import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import sampler_oracle
from sampler_oracle import offspring_offsets
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
    simulate_cluster,
    simulate_thinning,
    spectral_radius,
    stationary_mean_intensity,
)
from hawkes_mle.model import DataError


def _rates(sim, spec, pv, T, seeds):
    counts = np.array(
        [sim(spec, pv, T, SimConfig(seed=s)).counts(spec.K) for s in seeds],
        dtype=float,
    )
    return counts / T  # (reps, K)


class TestOffspringOffsets:
    """The per-event offspring reference that the cluster sampler's bytes are
    checked against."""

    def test_zero_alpha_empty(self):
        rng = np.random.default_rng(0)
        out = offspring_offsets(Exponential(), 0.0, 1.0, 5.0, rng)
        assert out.size == 0

    @pytest.mark.parametrize("alpha_total, window, message", [
        (-0.1, 5.0, "alpha_total must be nonnegative"),
        (0.5, 0.0, "window must be positive"),
        (0.5, -1.0, "window must be positive"),
    ])
    def test_bad_arguments(self, alpha_total, window, message):
        with pytest.raises(ValueError, match=message):
            offspring_offsets(Exponential(), alpha_total, 1.0, window,
                              np.random.default_rng(0))

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

    @pytest.mark.parametrize("horizon", [2e19, 1e300])
    def test_mean_past_numpy_poisson_refused_before_any_draw(self, horizon):
        """mu * T past numpy's largest Poisson mean (about 2**63) draws nothing."""
        with pytest.raises(SimulationCapError) as exc:
            simulate_cluster(exp_spec(), params(0.5, 0.2, 1.0), horizon, SimConfig(seed=0))
        assert (exc.value.n_events, exc.value.max_events) == (0, 10_000_000)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, None, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed: expected a non-negative integer"):
            SimConfig(seed=seed)

    @pytest.mark.parametrize("max_events", [0, -3, 2.5, float("nan"), True, None, "3"])
    def test_max_events_must_be_a_positive_integer(self, max_events):
        with pytest.raises(ValueError, match="max_events: expected a positive integer"):
            SimConfig(seed=0, max_events=max_events)


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
    """(spec, params) of a K=3 case: exp, power-law, mixed M=2, two
    exponential kernels of different beta (exp2), or sparse alpha."""
    kernels = {
        "exp": [Exponential()],
        "pwl": [PowerLawCutoff(0.5)],
        "mixed": [Exponential(), PowerLawCutoff(0.5)],
        "exp2": [Exponential(), Exponential()],
        "sparse": [Exponential()],
    }[name]
    spec = ModelSpec(K=3, M=len(kernels), kernels=kernels)
    rng = np.random.default_rng(11)
    alpha = rng.uniform(0.0, 1.0, (spec.M, 3, 3))
    if name == "sparse":
        alpha[0, :, 2] = 0.0  # type 2 excites nothing
        alpha[0, 1, 1] = alpha[0, 2, 0] = 0.0
    beta = [1.5 if k.name == "exponential" else 1.8 for k in kernels]
    if name == "exp2":
        beta = [1.5, 4.0]
    # Scale alpha to a branching ratio near 0.5.
    pv = params(rng.uniform(0.2, 0.6, 3), alpha, beta)
    radius = spectral_radius(branching_matrix(spec, pv))
    return spec, params(pv.mu, 0.5 * alpha / radius, beta)


@pytest.mark.parametrize("case", ["exp", "pwl", "mixed", "exp2", "sparse"])
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


@pytest.mark.parametrize("seed", [0, 1, 299, 2**31 - 1, 2**63 + 5, 10**30])
def test_child_generator_is_the_spawned_stream(seed):
    """Child stream i from its spawn key is the oracle's ``spawn(3)[i]``."""
    from hawkes_mle import simulate

    for i, want in enumerate(sampler_oracle.spawn_generators(seed)):
        assert simulate._child_generator(seed, i).bit_generator.state == want.bit_generator.state


def test_samplers_build_only_their_own_streams(monkeypatch):
    """A cluster call builds the immigrant and offspring generators, a
    thinning call the thinning generator, and no other."""
    from hawkes_mle import simulate

    built, child = [], simulate._child_generator

    def recording_child(seed, i):
        built.append(i)
        return child(seed, i)

    monkeypatch.setattr(simulate, "_child_generator", recording_child)
    spec, pv = _oracle_case("mixed")
    simulate_cluster(spec, pv, 50.0, SimConfig(seed=4))
    assert built == [0, 1]
    built.clear()
    simulate_thinning(spec, pv, 50.0, SimConfig(seed=4))
    assert built == [2]


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
        # At seed 3 the first 228 events are immigrants: caps from 228 on
        # trip inside an offspring generation, the smaller ones before it.
        for cap in (10, 60, 200, 250, 300, 400):
            config = SimConfig(seed=3, max_events=cap)
            with pytest.raises(SimulationCapError) as want:
                sampler_oracle.simulate_cluster(spec, pv, 150.0, config)
            with pytest.raises(SimulationCapError) as got:
                simulate_cluster(spec, pv, 150.0, config)
            # The cap trips after a whole generation, so it overshoots.
            assert want.value.n_events > cap + 1
            assert got.value.n_events == want.value.n_events
            assert got.value.max_events == cap

    def test_events_at_or_past_horizon_draw_nothing(self):
        """A generation's tail at or past T reads no double, as the oracle,
        which skips such events, reads none: a window below 0 has a negative
        mass, which would otherwise be walked as a mean."""
        from hawkes_mle import simulate

        kernels = [(Exponential(), 1.0), (PowerLawCutoff(0.5), 1.8)]
        weights = np.full((1, 1, 2), 0.8)

        def generation(times):
            rng = np.random.default_rng(5)
            doubles = simulate._Doubles(rng)
            out = simulate._offspring(np.array(times), np.zeros(len(times), dtype=np.int64),
                                      5.0, kernels, weights, doubles, 0, 100)
            doubles.rewind()
            return out, rng.bit_generator.state

        (times, types), state = generation([1.0, 2.0])
        (tail_times, tail_types), tail_state = generation([1.0, 2.0, 5.0, 5.2])
        assert len(times) > 0
        assert tail_times.tobytes() == times.tobytes()
        assert tail_types.tobytes() == types.tobytes()
        assert tail_state == state

    def test_finalize_orders_tied_times_by_generation_then_type(self):
        """Generations in order, each sorted by (time, type), as both samplers
        pass them: tied times across and within generations come out in
        (time, generation, type) order."""
        from hawkes_mle import simulate

        times = [1.0, 1.0, 2.0, 0.5, 1.0, 2.0, 1.0]
        gens = [0, 0, 0, 1, 1, 1, 2]
        types = [0, 3, 1, 2, 1, 0, 0]
        ev = simulate._finalize(times, types, 5.0)
        want = np.lexsort((types, gens, times))
        assert ev.times.tolist() == [times[i] for i in want]
        assert ev.types.tolist() == [types[i] for i in want] == [2, 0, 3, 1, 0, 1, 0]

    @pytest.mark.parametrize("mu,horizon", [(0.5, 0.0), (1e-6, 1.0)])
    def test_empty_result_dtypes(self, mu, horizon):
        spec = exp_spec(K=2)
        pv = params([mu, mu], 0.2 * np.ones((1, 2, 2)), 1.0)
        out = simulate_cluster(spec, pv, horizon, SimConfig(seed=0))
        want = sampler_oracle.simulate_cluster(spec, pv, horizon, SimConfig(seed=0))
        assert len(out) == len(want) == 0
        assert out.times.dtype == np.float64 and out.types.dtype == np.int64
        assert out.times.shape == out.types.shape == (0,)


def _stream_case(case):
    """(spec, params, horizon): an ``_oracle_case`` at T=150, or the exp-k10
    (T=100) or pwl-k10 (T=300) recipe at recipe seed 0."""
    if case in ("exp-k10", "pwl-k10"):
        horizon = {"exp-k10": 100.0, "pwl-k10": 300.0}[case]
        return (*_recipe_case(case, horizon), horizon)
    return (*_oracle_case(case), 150.0)


def _float_platform():
    """sha256 of numpy's major version and of what the routines the samplers'
    bytes rest on return for fixed inputs: numpy's exp, expm1, log, log1p and
    power, libm's exp, and BLAS's vector-matrix products."""
    x = np.linspace(-30.0, 0.0, 4001)
    y = np.linspace(0.01, 10.0, 4001)
    b = (np.arange(4000) % 7 + 1.0).reshape(400, 10) / 7.0
    h = hashlib.sha256(np.__version__.split(".")[0].encode())
    for out in (np.exp(x), np.expm1(x), np.log(y), np.log1p(y), np.power(y, -1.5),
                np.array([math.exp(v) for v in x]), y[:400] @ b, y[:2] @ b[:2, :3]):
        h.update(out.tobytes())
    return h.hexdigest()


STREAM_CASES = ["exp", "pwl", "mixed", "exp2", "sparse", "exp-k10", "pwl-k10"]


@pytest.mark.parametrize("case", STREAM_CASES)
def test_thinning_bytes_match_stacked_form(case):
    """Thinning gives, byte for byte, the streams of the stacked O(M K) form
    in ``sampler_oracle``; the cluster sampler's bytes are checked against
    its oracle in ``TestAgainstOracle`` and ``TestClusterBookkeeping``."""
    spec, pv, horizon = _stream_case(case)
    for seed in range(3):
        got = simulate_thinning(spec, pv, horizon, SimConfig(seed=seed))
        want = sampler_oracle.simulate_thinning_stacked(spec, pv, horizon, SimConfig(seed=seed))
        assert len(want) > 50
        assert got.times.tobytes() == want.times.tobytes()
        assert got.types.tobytes() == want.types.tobytes()


class TestStreamDigests:
    """The samplers' streams, pinned byte for byte by sha256 digests.

    Per (sampler, case of ``_stream_case``), one digest of ``times.tobytes()``
    then ``types.tobytes()`` of seeds 0-2, in order.  Numpy's generator
    streams may change across its versions, and the rounding of its exp and
    of BLAS's products across CPUs and libraries, so the digests are checked
    only where ``_float_platform`` gives the value it gave where they were
    recorded (numpy 2, OpenBLAS, x86-64 with AVX-512); elsewhere the test
    skips, and the comparisons against ``sampler_oracle`` still pin the bytes.
    """

    FLOAT_PLATFORM = "349e2f1afe4a17cd6b17700ef4ca066349e33d23fa979fafb4a95790f6bbadd5"

    DIGESTS = {
        ("cluster", "exp"): "4ac5063214219b78f780102c188682481fcbba444759fe22388b80d11ea6aac6",
        ("thinning", "exp"): "81ec2e95a5b01d22de6d932767661db3c4a6b4b8b5da5dd28c0f9b0c6713fca8",
        ("cluster", "pwl"): "0abeeff82f0a4830b90652b966ddfbaa9e796d247418f720ee67aae301a8b402",
        ("thinning", "pwl"): "b28b9b791fc6fea90313bfca8815831fc24bb61160cbe776204022e0e393a02b",
        ("cluster", "mixed"): "83ec715e94ba84ed31be9e5ce1d9e7ddf10a9fdb2c2478c30753dafed9085e0e",
        ("thinning", "mixed"): "96e6b897ed29da46cabbe0ec991beb197ce717396af88dbd8cf088ef7e69874b",
        ("cluster", "exp2"): "21b156a20e89e45dd909788fc60eb86621efbe68f39d3379e92dec6028bbadf7",
        ("thinning", "exp2"): "684f794cb86ec85143bcc8684cacc2904ace5e190edc03c6c2175fa96895969e",
        ("cluster", "sparse"): "690caf5ab09c1bece7eb472fd9a7436b6b0fe68560f73b9b695ef6effe33e43f",
        ("thinning", "sparse"): "9b3024d93ad6ae5ebee9461888f12b7ce69bcd24d821cd4b2462f2da9cd408db",
        ("cluster", "exp-k10"): "0c41b0e256a9a4b5b9242e164be88ea0efe8524583aaa346a5ac0ad9e1ed1f96",
        ("thinning", "exp-k10"): "cf3ce652c250f307cffe3d2de8d37515f8b876ec8c2e734a20f934ae74ad1100",
        ("cluster", "pwl-k10"): "48232ad228751e7696720c19520b8a735c2e9742a27639324a4d584257b70dd5",
        ("thinning", "pwl-k10"): "b1e21206d5c5210f0d16f2ff2cf1216f99a41a99af919bfabe2d2314ceff357f",
    }

    @pytest.mark.parametrize("sampler,case", sorted(DIGESTS))
    def test_stream_bytes(self, sampler, case):
        if _float_platform() != self.FLOAT_PLATFORM:
            pytest.skip("digests were recorded on another numpy or floating-point platform")
        spec, pv, horizon = _stream_case(case)
        sim = {"cluster": simulate_cluster, "thinning": simulate_thinning}[sampler]
        h = hashlib.sha256()
        for seed in range(3):
            ev = sim(spec, pv, horizon, SimConfig(seed=seed))
            h.update(ev.times.tobytes())
            h.update(ev.types.tobytes())
        assert h.hexdigest() == self.DIGESTS[sampler, case]


class _RecordingGenerator:
    """A generator whose ``poisson`` and ``random`` calls are recorded."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.poisson_means, self.random_calls = [], 0

    def poisson(self, lam):
        self.poisson_means.append(float(lam))
        return self._rng.poisson(lam)

    def random(self, size=None):
        self.random_calls += 1
        return self._rng.random(size)


def _recorded_cluster(monkeypatch, spec, pv, horizon, seed):
    """``simulate_cluster`` with its offspring generator recorded, and per
    generation the row means, the doubles drawn ahead and not read on entry,
    and the generator's ``random`` calls (blocks drawn, and the offsets of
    rows of mean 10 or more)."""
    from hawkes_mle import simulate

    child, walk = simulate._child_generator, simulate._poisson_walk
    rec = {"walks": []}

    def child_recording(seed, i):
        rng = child(seed, i)
        if i == 1:
            rng = rec["rng"] = _RecordingGenerator(rng)
        return rng

    def walk_recording(means, doubles):
        left, calls = -doubles.read % simulate._BLOCK_DOUBLES, rec["rng"].random_calls
        out = walk(means, doubles)
        rec["walks"].append((means.copy(), left, rec["rng"].random_calls - calls))
        return out

    with monkeypatch.context() as m:
        m.setattr(simulate, "_child_generator", child_recording)
        m.setattr(simulate, "_poisson_walk", walk_recording)
        out = simulate_cluster(spec, pv, horizon, SimConfig(seed=seed))
    rec["means"] = np.concatenate([w[0] for w in rec["walks"]])
    return out, rec


def _two_type_case(a10, a01, beta):
    """K=2 exponential: type 0 excites type 1 with weight ``a10``."""
    return exp_spec(K=2), params([0.5, 0.2], [[0.3, a01], [a10, 0.3]], beta)


class TestPoissonWalk:
    """Counts read off a reader of uniform doubles, as ``Generator.poisson`` reads them."""

    @pytest.mark.parametrize("case", ["zero-mean", "tiny-mean", "large-mean", "past-block",
                                      "rewind-past-block"])
    def test_edge_rows_bit_identical(self, monkeypatch, case):
        from hawkes_mle import simulate

        if case in ("past-block", "rewind-past-block"):
            # Blocks of 50 doubles end inside rows that read about 20.
            monkeypatch.setattr(simulate, "_BLOCK_DOUBLES", 50)
        if case == "rewind-past-block":
            # The doubles read before each rewind.
            rewinds, rewind = [], simulate._Doubles.rewind

            def recorded_rewind(self):
                rewinds.append(self.read)
                rewind(self)

            monkeypatch.setattr(simulate._Doubles, "rewind", recorded_rewind)
        spec, pv = _two_type_case(*{
            "zero-mean": (5e-324, 0.1, 3.0), "tiny-mean": (1e-18, 0.1, 1.0),
            "large-mean": (12.0, 0.0, 1.0), "past-block": (9.5, 0.0, 1.0),
            "rewind-past-block": (12.0, 0.0, 1.0)}[case])
        for seed in range(3):
            got, rec = _recorded_cluster(monkeypatch, spec, pv, 100.0, seed)
            want = sampler_oracle.simulate_cluster(spec, pv, 100.0, SimConfig(seed=seed))
            assert len(want) > 50
            assert got.times.tobytes() == want.times.tobytes()
            assert got.types.tobytes() == want.types.tobytes()
            means = rec["means"]
            if case == "zero-mean":
                # 5e-324 * Phi rounds to 0 for Phi < 1/2 (here Phi < 1/beta):
                # a nonzero weight, a zero mean.
                assert np.any(means == 0.0)
            elif case == "tiny-mean":
                # exp(-lam) rounds to 1.0, yet numpy still reads one double.
                tiny = means[(means > 0) & (means < 1e-16)]
                assert tiny.size and all(math.exp(-lam) == 1.0 for lam in tiny)
            elif case == "large-mean":
                assert np.any(means >= 10.0)
            elif case == "past-block":
                assert means.max() < 10.0
                assert any(left and extended > 1 for _, left, extended in rec["walks"])
            else:
                # Means on both sides of 10, and rewinds that return doubles
                # of a block drawn after the first since the last rewind.
                assert np.any(means >= 10.0) and np.any((means > 0) & (means < 10.0))
                assert any(read > 50 and read % 50 for read in rewinds)
                rewinds.clear()
            assert rec["rng"].poisson_means == means[means >= 10.0].tolist()

    @pytest.mark.parametrize("case", ["exp", "pwl", "mixed", "sparse"])
    def test_poisson_called_only_at_large_means(self, monkeypatch, case):
        spec, pv = _oracle_case(case)
        _, rec = _recorded_cluster(monkeypatch, spec, pv, 150.0, 0)
        assert rec["means"].max() < 10.0 and rec["rng"].random_calls > 0
        assert rec["rng"].poisson_means == []

    def test_walk_matches_scalar_calls(self, monkeypatch):
        """Per row: the counts, the uniforms and the generator's final state of
        one ``poisson`` call and, after a nonzero count, one ``random`` call;
        with blocks of the default size, and of 50 doubles, which end inside
        the runs that rows of mean 10 or more cut."""
        from hawkes_mle import simulate

        g = np.random.default_rng(7)
        means = np.concatenate([
            g.exponential(0.2, 3000), g.uniform(0.0, 10.5, 1000),
            g.choice([0.0, 5e-324, 1e-17, 9.999999, 10.0, 25.0], 500),
        ])
        g.shuffle(means)
        for size in (simulate._BLOCK_DOUBLES, 50):
            monkeypatch.setattr(simulate, "_BLOCK_DOUBLES", size)
            walked = np.random.Generator(np.random.PCG64(3))
            scalar = np.random.Generator(np.random.PCG64(3))
            doubles = simulate._Doubles(walked)
            for part in np.array_split(means, 3):  # generations share the reader
                hits, counts, uniforms = simulate._poisson_walk(part, doubles)
                want = []
                for r, lam in enumerate(part.tolist()):
                    c = scalar.poisson(lam)
                    if c:
                        want.append((r, c, scalar.random(c)))
                assert hits.tolist() == [r for r, _, _ in want]
                assert counts == [c for _, c, _ in want]
                assert (np.array(uniforms).tobytes()
                        == np.concatenate([u for *_, u in want]).tobytes())
            doubles.rewind()
            assert walked.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("lams", ["log-spaced", "uniform"])
    def test_bound_below_libm_exp(self, lams):
        """The vectorized bound lies at or below libm's exp(-lam), so a double
        at or below it is a zero count, as ``poisson`` decides it."""
        from hawkes_mle import simulate

        assert simulate._EXP_MARGIN == 1 - 2**-40
        lams = (np.logspace(-300, 1, 10**6) if lams == "log-spaced"
                else 10.0 - np.random.default_rng(0).uniform(0.0, 10.0, 10**6))
        assert lams.min() > 0 and lams.max() <= 10.0
        exact = np.array(list(map(math.exp, (-lams).tolist())))
        assert np.all(np.exp(-lams) * simulate._EXP_MARGIN <= exact)

    @staticmethod
    def _counting_exp(monkeypatch):
        """Count the walk's libm ``exp`` calls, the rows that take the exact path."""
        from types import SimpleNamespace

        from hawkes_mle import simulate

        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        monkeypatch.setattr(simulate, "math", SimpleNamespace(exp=exp))
        return calls

    @pytest.mark.parametrize("margin", [0.5, 0.0])
    @pytest.mark.parametrize("case", ["zero-mean", "tiny-mean", "large-mean", "past-block",
                                      "rewind-past-block"])
    def test_edge_rows_exact_path(self, monkeypatch, case, margin):
        """The edge rows, bit for bit, with the bound moved so far below
        exp(-lam) that most rows are decided by libm's exp."""
        from hawkes_mle import simulate

        monkeypatch.setattr(simulate, "_EXP_MARGIN", margin)
        calls = self._counting_exp(monkeypatch)
        self.test_edge_rows_bit_identical(monkeypatch, case)
        assert calls

    @pytest.mark.parametrize("margin", [0.5, 0.0])
    def test_walk_exact_path_matches_scalar_calls(self, monkeypatch, margin):
        from hawkes_mle import simulate

        monkeypatch.setattr(simulate, "_EXP_MARGIN", margin)
        calls = self._counting_exp(monkeypatch)
        self.test_walk_matches_scalar_calls(monkeypatch)
        # Each of the two block sizes walks the same 4500 rows: most of them
        # take the exact path.
        assert len(calls) > 4500


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
    offspring, generations = simulate._offspring, 0

    def counted_offspring(*args):
        nonlocal generations
        generations += 1
        return offspring(*args)

    monkeypatch.setattr(simulate, "_offspring", counted_offspring)
    spec, pv = _oracle_case("mixed")
    out = simulate_cluster(spec, pv, 150.0, SimConfig(seed=0))
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
    def test_strict_sums(self):
        spec = exp_spec(K=2)
        pv = params([0.3, 0.2], [[0.5, 0.1], [0.2, 0.4]], 2.0)
        times, types = np.array([1.0, 2.0]), np.array([0, 1])
        e = np.exp(-2.0)
        strict = intensities(spec, pv, times, types, 2.0)
        assert strict == pytest.approx([0.3 + 0.5 * e, 0.2 + 0.2 * e], rel=1e-15)

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

    @pytest.mark.parametrize("times, types, message", [
        ([1.0, 2.0], [0], "1-d arrays of equal length"),
        ([[1.0], [2.0]], [[0], [0]], "1-d arrays of equal length"),
        ([2.0, 1.0], [0, 0], "nondecreasing"),
        ([-0.5, 1.0], [0, 0], r"lie in \[0, horizon\]"),
        ([1.0, 10.5], [0, 0], r"lie in \[0, horizon\]"),
        ([1.0, 2.0], [0, -1], "nonnegative integers"),
        ([1.0, 2.0], [0.0, 1.7], "types must be integers"),
        ([1.0, 2.0], [0.0, np.nan], "types must be integers"),
        ([1.0, 2.0], [0.0, np.inf], "types must be integers"),
    ], ids=["lengths", "2-d", "unsorted", "before-0", "after-T", "negative-type",
            "fractional-type", "nan-type", "inf-type"])
    def test_malformed_stream(self, times, types, message):
        with pytest.raises(ValueError, match=message):
            EventSequence(np.array(times), np.array(types), 10.0)

    @pytest.mark.parametrize("times, types, horizon", [
        ([1.0], [0], np.inf), ([2.0, 1.0], [0, 0], 10.0), ([1.0], [-1], 10.0),
    ], ids=["infinite-horizon", "unsorted", "negative-type"])
    def test_malformed_stream_is_a_data_error(self, times, types, horizon):
        """For library callers too, not only for the command line."""
        with pytest.raises(DataError):
            EventSequence(np.array(times), np.array(types), horizon)

    def test_integral_float_types_accepted(self):
        ev = EventSequence(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 10.0)
        assert ev.types.dtype == np.int64 and ev.types.tolist() == [0, 1]
