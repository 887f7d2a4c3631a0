from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import sampler_oracle
from common import exp_spec, params, pwl_spec
from hawkes_mle import (
    DomainError,
    EventSequence,
    Exponential,
    ModelSpec,
    NonStationaryError,
    PowerLawCutoff,
    SimConfig,
    SimulationCapError,
    branching_matrix,
    intensities,
    offspring_offsets,
    simulate_cluster,
    simulate_thinning,
    spectral_radius,
    stationary_mean_intensity,
)


def _rates(sim, spec, pv, T, seeds):
    counts = np.array(
        [sim(spec, pv, T, SimConfig(seed=s)).counts(spec.K) for s in seeds],
        dtype=float,
    )
    return counts / T  # (reps, K)


class TestOffspringOffsets:
    def test_zero_alpha_empty(self):
        rng = np.random.default_rng(0)
        out = offspring_offsets(Exponential(), 0.0, 1.0, 5.0, rng)
        assert out.size == 0

    def test_exponential_unit_mean(self):
        rng = np.random.default_rng(1)
        fam = Exponential()
        # window -> inf: normalized offsets are Exp(1)
        draws = []
        while len(draws) < 100_000:
            draws.extend(offspring_offsets(fam, 50.0, 1.0, np.inf, rng))
        draws = np.asarray(draws[:100_000])
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "fam,beta", [(Exponential(), 0.8), (PowerLawCutoff(0.05), 1.6)]
    )
    def test_offsets_match_truncated_cdf(self, fam, beta):
        rng = np.random.default_rng(2)
        window = 4.0
        mass = fam.antiderivative(window, beta)
        draws = []
        while len(draws) < 10_000:
            draws.extend(offspring_offsets(fam, 25.0, beta, window, rng))
        draws = np.asarray(draws[:10_000])
        assert np.all(draws >= 0) and np.all(draws <= window)
        cdf = lambda u: fam.antiderivative(np.clip(u, 0.0, window), beta) / mass
        assert kstest(draws, cdf).pvalue > 0.01

    def test_count_is_poisson_mean(self):
        rng = np.random.default_rng(3)
        fam = Exponential()
        counts = [
            len(offspring_offsets(fam, 0.8, 1.0, np.inf, rng)) for _ in range(4000)
        ]
        assert np.mean(counts) == pytest.approx(0.8, abs=3 * np.sqrt(0.8 / 4000))


class TestClusterSimulator:
    def test_deterministic(self):
        spec = exp_spec(K=2)
        pv = params([0.3, 0.2], 0.2 * np.ones((1, 2, 2)), 1.0)
        a = simulate_cluster(spec, pv, 200.0, SimConfig(seed=42))
        b = simulate_cluster(spec, pv, 200.0, SimConfig(seed=42))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.types, b.types)

    def test_zero_horizon_empty(self):
        spec = exp_spec()
        out = simulate_cluster(spec, params(0.5, 0.2, 1.0), 0.0, SimConfig(seed=0))
        assert len(out) == 0

    def test_sorted_within_horizon(self):
        spec = pwl_spec(K=2)
        pv = params([0.2, 0.3], 0.02 * np.ones((1, 2, 2)), 1.5)
        out = simulate_cluster(spec, pv, 300.0, SimConfig(seed=5))
        assert np.all(np.diff(out.times) >= 0)
        assert out.times[0] >= 0 and out.times[-1] <= 300.0

    def test_pure_poisson_rate(self):
        spec = exp_spec()
        pv = params(0.5, 0.0, 1.0)
        rates = _rates(simulate_cluster, spec, pv, 1000.0, range(40))
        se = rates[:, 0].std(ddof=1) / np.sqrt(len(rates))
        assert abs(rates[:, 0].mean() - 0.5) <= 3 * se

    def test_mu_at_lower_bound(self):
        spec = exp_spec()
        pv = params(0.1, 0.0, 1.0)
        rates = _rates(simulate_cluster, spec, pv, 10.0, range(300))
        mean_count = rates[:, 0].mean() * 10.0
        se = (rates[:, 0] * 10.0).std(ddof=1) / np.sqrt(300)
        assert abs(mean_count - 1.0) <= 3 * se

    def test_stationary_mean_as_horizon_grows(self):
        # K=1, mu=1, alpha=0.5, beta=1 -> branching ratio 0.5, lambda_bar = 2
        spec = exp_spec()
        pv = params(1.0, 0.5, 1.0)
        lam_bar = stationary_mean_intensity(spec, pv)[0]
        assert lam_bar == pytest.approx(2.0)
        for T, reps in ((500.0, 30), (2000.0, 10)):
            rates = _rates(simulate_cluster, spec, pv, T, range(reps))[:, 0]
            se = rates.std(ddof=1) / np.sqrt(reps)
            assert abs(rates.mean() - lam_bar) <= 3 * se

    def test_nonstationary_rejected(self):
        spec = exp_spec()
        with pytest.raises(NonStationaryError):
            simulate_cluster(spec, params(1.0, 1.2, 1.0), 10.0, SimConfig(seed=0))

    def test_event_cap(self):
        spec = exp_spec()
        pv = params(5.0, 0.5, 1.0)
        with pytest.raises(SimulationCapError) as exc:
            simulate_cluster(spec, pv, 100.0, SimConfig(seed=0, max_events=50))
        assert exc.value.n_events > 50

    @pytest.mark.parametrize("seed", [-1, 2.5, True, None, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SimConfig(seed=seed)


class TestThinningSimulator:
    def test_deterministic(self):
        spec = exp_spec(K=2)
        pv = params([0.3, 0.2], 0.2 * np.ones((1, 2, 2)), 1.0)
        a = simulate_thinning(spec, pv, 100.0, SimConfig(seed=7))
        b = simulate_thinning(spec, pv, 100.0, SimConfig(seed=7))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.types, b.types)

    def test_pure_poisson(self):
        spec = exp_spec(K=2)
        pv = params([0.4, 0.1], np.zeros((1, 2, 2)), 1.0)
        rates = _rates(simulate_thinning, spec, pv, 500.0, range(40))
        for k, mu_k in enumerate((0.4, 0.1)):
            se = rates[:, k].std(ddof=1) / np.sqrt(len(rates))
            assert abs(rates[:, k].mean() - mu_k) <= 3 * se

    def test_agrees_with_cluster_simulator(self):
        spec = exp_spec()
        pv = params(0.5, 0.4, 1.0)  # branching ratio 0.4
        T, reps = 300.0, 60
        a = _rates(simulate_cluster, spec, pv, T, range(reps))[:, 0]
        b = _rates(simulate_thinning, spec, pv, T, range(1000, 1000 + reps))[:, 0]
        pooled_se = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
        assert abs(a.mean() - b.mean()) <= 3 * pooled_se

    def test_sorted_within_horizon(self):
        spec = pwl_spec(K=2)
        pv = params([0.2, 0.3], 0.02 * np.ones((1, 2, 2)), 1.5)
        out = simulate_thinning(spec, pv, 200.0, SimConfig(seed=6))
        assert np.all(np.diff(out.times) >= 0)
        assert len(out) == 0 or (out.times[0] >= 0 and out.times[-1] <= 200.0)

    def test_nonstationary_rejected(self):
        spec = exp_spec()
        with pytest.raises(NonStationaryError):
            simulate_thinning(spec, params(1.0, 1.2, 1.0), 10.0, SimConfig(seed=0))


def _oracle_case(name):
    """(spec, params) of a K=3 exp, K=3 power-law, mixed M=2 or sparse-alpha case."""
    kernels = {
        "exp": [Exponential()],
        "pwl": [PowerLawCutoff(0.5)],
        "mixed": [Exponential(), PowerLawCutoff(0.5)],
        "sparse": [Exponential()],
    }[name]
    spec = ModelSpec(K=3, M=len(kernels), kernels=kernels)
    rng = np.random.default_rng(11)
    alpha = rng.uniform(0.0, 1.0, (spec.M, 3, 3))
    if name == "sparse":
        alpha[0, :, 2] = 0.0  # type 2 excites nothing
        alpha[0, 1, 1] = alpha[0, 2, 0] = 0.0
    beta = [1.5 if k.name == "exponential" else 1.8 for k in kernels]
    # Scale alpha to a branching ratio near 0.5.
    pv = params(rng.uniform(0.2, 0.6, 3), alpha, beta)
    radius = spectral_radius(branching_matrix(spec, pv))
    return spec, params(pv.mu, 0.5 * alpha / radius, beta)


@pytest.mark.parametrize("case", ["exp", "pwl", "mixed", "sparse"])
class TestAgainstOracle:
    """The samplers against their per-draw versions in ``sampler_oracle``."""

    SEEDS = range(6)

    def test_cluster_bit_identical(self, case):
        spec, pv = _oracle_case(case)
        for seed in self.SEEDS:
            got = simulate_cluster(spec, pv, 150.0, SimConfig(seed=seed))
            want = sampler_oracle.simulate_cluster(spec, pv, 150.0, SimConfig(seed=seed))
            assert len(want) > 50
            assert got.times.tobytes() == want.times.tobytes()
            assert got.types.tobytes() == want.types.tobytes()

    def test_thinning_same_events(self, case):
        spec, pv = _oracle_case(case)
        for seed in self.SEEDS:
            got = simulate_thinning(spec, pv, 150.0, SimConfig(seed=seed))
            want = sampler_oracle.simulate_thinning(spec, pv, 150.0, SimConfig(seed=seed))
            assert len(want) > 50
            assert np.array_equal(got.types, want.types)
            np.testing.assert_allclose(got.times, want.times, rtol=1e-12, atol=0)


def _recipe_case(name, horizon):
    """(spec, params) of a built-in K=10 recipe, recipe seed 0, on a short horizon."""
    from hawkes_mle import experiments

    inst = experiments.generate_instance(
        replace(experiments.RECIPES[name], seed=0, horizon=horizon)
    )
    return inst.spec, inst.params


class TestClusterBookkeeping:
    """Generation-at-a-time bookkeeping against ``sampler_oracle``, byte for byte."""

    @pytest.mark.parametrize("name,horizon", [("exp-k10", 100.0), ("pwl-k10", 300.0)])
    def test_paper_recipes_bit_identical(self, name, horizon):
        spec, pv = _recipe_case(name, horizon)
        if name == "exp-k10":
            assert spectral_radius(branching_matrix(spec, pv)) > 0.95
        for seed in range(3):
            got = simulate_cluster(spec, pv, horizon, SimConfig(seed=seed))
            want = sampler_oracle.simulate_cluster(spec, pv, horizon, SimConfig(seed=seed))
            assert len(want) > 50
            assert got.times.tobytes() == want.times.tobytes()
            assert got.types.tobytes() == want.types.tobytes()

    def test_cap_inside_a_generation_counts_like_oracle(self):
        spec, pv = _oracle_case("mixed")
        for cap in (10, 60, 200):
            config = SimConfig(seed=3, max_events=cap)
            with pytest.raises(SimulationCapError) as want:
                sampler_oracle.simulate_cluster(spec, pv, 150.0, config)
            with pytest.raises(SimulationCapError) as got:
                simulate_cluster(spec, pv, 150.0, config)
            # The cap trips after a whole generation, so it overshoots.
            assert want.value.n_events > cap + 1
            assert got.value.n_events == want.value.n_events
            assert got.value.max_events == cap

    @pytest.mark.parametrize("mu,horizon", [(0.5, 0.0), (1e-6, 1.0)])
    def test_empty_result_dtypes(self, mu, horizon):
        spec = exp_spec(K=2)
        pv = params([mu, mu], 0.2 * np.ones((1, 2, 2)), 1.0)
        out = simulate_cluster(spec, pv, horizon, SimConfig(seed=0))
        want = sampler_oracle.simulate_cluster(spec, pv, horizon, SimConfig(seed=0))
        assert len(out) == len(want) == 0
        assert out.times.dtype == np.float64 and out.types.dtype == np.int64
        assert out.times.shape == out.types.shape == (0,)


def test_cluster_kernel_math_once_per_generation(monkeypatch):
    """Masses and offsets take one kernel call per generation, not per event."""
    from hawkes_mle import simulate

    calls = {}

    def counted(cls, method):
        inner = getattr(cls, method)

        def wrapper(self, *args):
            calls[cls, method] = calls.get((cls, method), 0) + 1
            return inner(self, *args)

        monkeypatch.setattr(cls, method, wrapper)

    for cls in (Exponential, PowerLawCutoff):
        for method in ("antiderivative", "inverse_antiderivative"):
            counted(cls, method)
    finalize, seen = simulate._finalize, []

    def recording_finalize(times, gens, types, horizon):
        seen.append(np.asarray(gens))
        return finalize(times, gens, types, horizon)

    monkeypatch.setattr(simulate, "_finalize", recording_finalize)
    spec, pv = _oracle_case("mixed")
    out = simulate_cluster(spec, pv, 150.0, SimConfig(seed=0))
    generations = int(seen[0].max()) + 1
    assert len(out) > 20 * generations
    assert set(calls) == {
        (cls, method)
        for cls in (Exponential, PowerLawCutoff)
        for method in ("antiderivative", "inverse_antiderivative")
    }
    assert all(0 < n <= generations for n in calls.values()), (calls, generations)


def test_thinning_exponential_never_scans_history(monkeypatch):
    """With exponential kernels only, a candidate costs O(M K), not O(history)."""
    from hawkes_mle import model, simulate

    def history_scan(*args, **kwargs):
        raise AssertionError("thinning evaluated the intensity over the history")

    value = Exponential.value

    def scalar_value(self, t, beta):
        if np.size(t) > 1:
            raise AssertionError("thinning evaluated the kernel over the history")
        return value(self, t, beta)

    monkeypatch.setattr(model, "intensities", history_scan)
    monkeypatch.setattr(simulate, "intensities", history_scan, raising=False)
    monkeypatch.setattr(Exponential, "value", scalar_value)
    spec = exp_spec(K=2, M=2)
    pv = params([0.3, 0.2], np.full((2, 2, 2), 0.1), [1.0, 3.0])
    out = simulate_thinning(spec, pv, 300.0, SimConfig(seed=0))
    assert len(out) > 100


@pytest.mark.parametrize("sim", [simulate_cluster, simulate_thinning])
class TestSamplerGuard:
    @pytest.mark.parametrize("horizon", [-1.0, np.nan, np.inf])
    def test_bad_horizon(self, sim, horizon):
        with pytest.raises(ValueError, match="horizon"):
            sim(exp_spec(), params(0.5, 0.2, 1.0), horizon, SimConfig(seed=0))

    def test_invalid_params(self, sim):
        with pytest.raises(DomainError):
            sim(exp_spec(), params(-0.5, 0.2, 1.0), 10.0, SimConfig(seed=0))

    def test_nonstationary(self, sim):
        with pytest.raises(NonStationaryError):
            sim(exp_spec(), params(0.5, 1.2, 1.0), 10.0, SimConfig(seed=0))


class TestIntensities:
    def test_strict_and_inclusive_sums(self):
        spec = exp_spec(K=2)
        pv = params([0.3, 0.2], [[0.5, 0.1], [0.2, 0.4]], 2.0)
        times, types = np.array([1.0, 2.0]), np.array([0, 1])
        e = np.exp(-2.0)
        strict = intensities(spec, pv, times, types, 2.0)
        assert strict == pytest.approx([0.3 + 0.5 * e, 0.2 + 0.2 * e], rel=1e-15)
        both = intensities(spec, pv, times, types, 2.0, strict=False)
        assert both == pytest.approx([0.3 + 0.5 * e + 0.1, 0.2 + 0.2 * e + 0.4], rel=1e-15)

    def test_empty_history_is_mu(self):
        spec = exp_spec()
        pv = params(0.7, 0.3, 1.0)
        lam = intensities(spec, pv, np.empty(0), np.empty(0, dtype=np.int64), 5.0)
        assert lam.tolist() == [0.7]
        lam[0] = 9.0  # a copy, not a view of mu
        assert pv.mu[0] == 0.7


class TestEventSequence:
    @pytest.mark.parametrize("horizon", [-1.0, np.nan, np.inf])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            EventSequence(np.empty(0), np.empty(0, dtype=np.int64), horizon)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_time(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EventSequence(np.array([1.0, bad]), np.array([0, 0]), 10.0)
