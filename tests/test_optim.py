import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from common import (
    compliant_global_bounds,
    events,
    exp_spec,
    params,
)
from hawkes_mle import (
    BoxDomain,
    HyperParams,
    HyperParamsError,
    InfeasibleInitError,
    LikelihoodProblem,
    SimConfig,
    estimate_lipschitz_bounds,
    ipalm_map,
    powell_phi,
    residual_diagnostics,
    run_aa_ipalm,
    run_ipalm,
    run_palm,
    simulate_cluster,
)
from hawkes_mle.optim import RUNNERS, TraceRecord


def poisson_problem(n=20, T=10.0, reg_c=0.0):
    """K=1 stream with alpha pinned to zero; the MLE is mu = n/T."""
    spec = exp_spec()
    times = np.linspace(0.3, T - 0.3, n)
    ev = events(times, horizon=T)
    mu_star = n / T
    dom = BoxDomain(
        mu_lb=np.array([0.3 * mu_star]),
        mu_ub=np.array([3.0 * mu_star]),
        alpha_lb=np.zeros((1, 1, 1)),
        alpha_ub=np.zeros((1, 1, 1)),
        beta_lb=np.array([0.5]),
        beta_ub=np.array([2.0]),
    )
    prob = LikelihoodProblem(spec, ev, dom, reg_c=reg_c)
    lbar1 = n / dom.mu_lb[0] ** 2  # exact curvature bound over the box
    return prob, mu_star, lbar1


def k2_problem(seed=31, T=150.0, reg_c=1.0, tight=False):
    spec = exp_spec(K=2)
    truth = params([0.2, 0.15], 0.15 * np.ones((1, 2, 2)), 1.0)
    ev = simulate_cluster(spec, truth, T, SimConfig(seed=seed))
    if tight:
        # Narrow box keeps the worst-case curvature moderate, so compliant
        # step sizes still move the iterates.
        dom = BoxDomain(
            mu_lb=np.full(2, 0.05),
            mu_ub=np.full(2, 1.0),
            alpha_lb=np.zeros((1, 2, 2)),
            alpha_ub=np.full((1, 2, 2), 0.6),
            beta_lb=np.array([0.7]),
            beta_ub=np.array([3.0]),
        )
    else:
        dom = BoxDomain(
            mu_lb=np.full(2, 0.01),
            mu_ub=np.full(2, 3.0),
            alpha_lb=np.zeros((1, 2, 2)),
            alpha_ub=np.full((1, 2, 2), 2.0),
            beta_lb=np.array([0.1]),
            beta_ub=np.array([6.0]),
        )
    return LikelihoodProblem(spec, ev, dom, reg_c=reg_c)


def compliant_hp(prob, gamma=0.5, safety=10.0, **kw):
    """Theory-compliant hyperparameters with generously padded curvature bounds."""
    theta0 = kw.pop("theta0", None)
    if theta0 is None:
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
    l1, l2 = estimate_lipschitz_bounds(prob, theta0, safety=safety)
    return HyperParams(
        epsilon=0.05, gamma1=gamma, gamma2=gamma, lbar1=l1, lbar2=l2, **kw
    )


class TestPowellPhi:
    def test_unit_above_threshold(self):
        assert powell_phi(0.5, 0.1) == 1.0

    def test_zero_uses_positive_sign(self):
        assert powell_phi(0.0, 0.1) == 0.9

    def test_negative_branch(self):
        assert powell_phi(-0.05, 0.1) == 1.1 / 1.05

    def test_threshold_boundary(self):
        assert powell_phi(0.1, 0.1) == 1.0
        assert powell_phi(-0.1, 0.1) == 1.0

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            powell_phi(0.5, 1.5)


class TestHyperParams:
    def test_step_size_rule(self):
        hp = HyperParams(epsilon=0.05, gamma1=0.9, gamma2=0.0, lbar1=4.0, lbar2=2.0)
        assert hp.tau1_eff == pytest.approx(2 * 0.1 / (1.9 * 4.0))
        assert hp.tau2_eff == pytest.approx(1.0)

    def test_delta_defaults(self):
        hp = HyperParams(epsilon=0.05, gamma1=0.9, gamma2=0.5, lbar1=1.0, lbar2=1.0)
        assert hp.delta1 == pytest.approx(0.9 / (2 * 0.05))
        assert hp.delta2 == pytest.approx(0.5 / (2 * 0.45))
        assert hp.delta_eff == pytest.approx(max(hp.delta1, hp.delta2))

    @pytest.mark.parametrize("algorithm", ["foo", "aa_ipalm", None, ["palm"]])
    def test_unknown_algorithm_refused(self, algorithm):
        names = ", ".join(RUNNERS)
        message = f"algorithm: expected one of {names}, got {algorithm!r}"
        with pytest.raises(HyperParamsError, match=re.escape(message)):
            HyperParams().validate(algorithm)

    def test_range_violations(self):
        with pytest.raises(HyperParamsError):
            HyperParams(epsilon=0.6).validate("ipalm")
        with pytest.raises(HyperParamsError):
            HyperParams(epsilon=0.05, gamma1=0.95).validate("ipalm")
        with pytest.raises(HyperParamsError):
            HyperParams(omega_bar=1.0).validate("ipalm")
        with pytest.raises(HyperParamsError):
            HyperParams(c1=0.5).validate("ipalm")
        with pytest.raises(HyperParamsError):
            HyperParams(memory=0).validate("ipalm")

    @pytest.mark.parametrize("field, value, message", [
        ("lbar1", 0.0, "lbar1 and lbar2 must be positive"),
        ("lbar2", -1.0, "lbar1 and lbar2 must be positive"),
        ("tau1", 0.0, "tau1 must be positive"),
        ("tau2", -1e-3, "tau2 must be positive"),
        ("delta", -0.5, "delta must be nonnegative"),
    ])
    def test_sign_violations(self, field, value, message):
        with pytest.raises(HyperParamsError, match=message):
            HyperParams(**{field: value}).validate("ipalm")

    @staticmethod
    def returned_then_warned_by_the_run(lax, message):
        """``validate`` returns the issue without warning; a run warns it once."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            issues = lax.validate("ipalm")
        assert len(issues) == 1 and issues[0].startswith(message)
        prob = poisson_problem()[0]
        flat = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        with pytest.warns(UserWarning, match=re.escape(message)) as caught:
            run_ipalm(prob, lax, flat)
        assert len(caught) == 1

    def test_oversized_tau_rejected_then_warns(self):
        hp = HyperParams(lbar1=1.0, tau1=5.0)  # rule gives 2.0
        with pytest.raises(HyperParamsError):
            hp.validate("ipalm")
        lax = HyperParams(lbar1=1.0, tau1=5.0, max_iters=2, allow_noncompliant=True)
        self.returned_then_warned_by_the_run(lax, "tau1=5 exceeds the step-size rule value 2 ")

    def test_small_delta_rejected_then_warns(self):
        hp = HyperParams(gamma1=0.9, lbar1=1.0, delta=0.02)
        with pytest.raises(HyperParamsError):
            hp.validate("ipalm")
        lax = HyperParams(gamma1=0.9, lbar1=1.0, delta=0.02, max_iters=2,
                          allow_noncompliant=True)
        self.returned_then_warned_by_the_run(lax, "delta=0.02 is below max(delta1, delta2)=9")

    # The paper's tau_i and delta_i depend on the momenta; PALM runs at gamma = 0, where
    # tau_i = 2 / lbar_i and delta_i = 0.
    @pytest.mark.parametrize("override, ipalm_rule", [
        ({"tau1": 0.015}, "tau1=0.015 exceeds the step-size rule value 0.00666667 "),
        ({"delta": 1.0}, "delta=1 is below max(delta1, delta2)=55.5556;"),
    ])
    def test_compliance_is_judged_with_the_algorithms_momenta(self, override, ipalm_rule):
        hp = HyperParams(gamma1=0.5, gamma2=0.5, lbar1=100.0, lbar2=100.0, **override)
        assert hp.validate("palm") == []
        for algo in ("ipalm", "aa-ipalm"):
            with pytest.raises(HyperParamsError, match=re.escape(ipalm_rule)):
                hp.validate(algo)

    @pytest.mark.parametrize("algo", ["palm", "ipalm", "aa-ipalm"])
    @pytest.mark.parametrize("gamma", [0.95, -0.1, float("nan"), "0.5"])
    def test_written_momenta_checked_for_every_algorithm(self, algo, gamma):
        with pytest.raises(HyperParamsError, match="gamma1(: expected a finite number| must lie)"):
            HyperParams(gamma1=gamma).validate(algo)

    def test_palm_runs_with_zero_momenta_only(self):
        hp = HyperParams(gamma1=0.5, gamma2=0.3, lbar1=4.0)
        assert hp.for_algorithm("palm") == replace(hp, gamma1=0.0, gamma2=0.0)
        assert hp.for_algorithm("ipalm") is hp and hp.for_algorithm("aa-ipalm") is hp

    def test_small_tau_override_is_compliant(self):
        HyperParams(lbar1=1.0, lbar2=1.0, tau1=1e-7, tau2=1e-7).validate("ipalm")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.1"])
    @pytest.mark.parametrize("name", ["epsilon", "gamma1", "gamma2", "lbar1", "lbar2", "tau1",
                                      "tau2", "omega_bar", "nu", "delta", "c1", "c2"])
    def test_float_fields_must_be_finite_numbers(self, name, bad):
        with pytest.raises(HyperParamsError, match=f"{name}: expected a finite number"):
            HyperParams(**{name: bad}).validate("ipalm")

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("name", ["memory", "max_iters"])
    def test_memory_and_max_iters_must_be_integers(self, name, bad):
        with pytest.raises(HyperParamsError, match=f"{name}: expected a positive integer"):
            HyperParams(**{name: bad}).validate("ipalm")

    def test_numpy_integers_accepted(self):
        HyperParams(memory=np.int64(3), max_iters=np.int32(5)).validate("ipalm")


class TestIpalmMap:
    def test_poisson_gradient_step(self):
        prob, mu_star, lbar1 = poisson_problem()
        hp = HyperParams(gamma1=0.0, gamma2=0.0, lbar1=lbar1, lbar2=1.0)
        im = prob.index_map
        mu0 = 0.8  # interior, below optimum 2.0
        flat = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        flat[im.mu_slice] = mu0
        u = np.concatenate([flat, flat])
        out = ipalm_map(prob, hp, u)
        expect = mu0 + hp.tau1_eff * (-prob.T + 20 / mu0)
        assert out[im.mu_slice][0] == pytest.approx(expect, rel=1e-12)
        assert np.array_equal(out[prob.dim :], flat)

    def test_fixed_point_at_poisson_optimum(self):
        prob, mu_star, lbar1 = poisson_problem()
        hp = HyperParams(gamma1=0.3, gamma2=0.3, lbar1=lbar1, lbar2=1.0)
        im = prob.index_map
        flat = np.zeros(prob.dim)
        flat[im.mu_slice] = mu_star
        flat[im.beta_slice] = 1.0
        u = np.concatenate([flat, flat])
        out = ipalm_map(prob, hp, u)
        assert np.linalg.norm(out - u) <= 1e-10

    def test_step_clamped_to_boundary(self):
        prob, mu_star, lbar1 = poisson_problem()
        hp = HyperParams(lbar1=1e-6, lbar2=1.0, allow_noncompliant=True)  # huge tau
        im = prob.index_map
        flat = np.zeros(prob.dim)
        flat[im.mu_slice] = 0.7  # gradient positive, step overshoots
        flat[im.beta_slice] = 1.0
        out = ipalm_map(prob, hp, np.concatenate([flat, flat]))
        assert out[im.mu_slice][0] == prob.domain.mu_ub[0]


@pytest.mark.parametrize("call, message", [
    (lambda prob, hp: run_palm(prob, hp, np.zeros(prob.dim + 1)), "expected flat vector of dim 3"),
    (lambda prob, hp: ipalm_map(prob, hp, np.zeros(2 * prob.dim - 1)),
     "expected doubled state of dim 6"),
], ids=["theta0", "doubled-state"])
def test_wrong_length_vectors_refused(call, message):
    prob, _, lbar1 = poisson_problem()
    with pytest.raises(ValueError, match=message):
        call(prob, HyperParams(lbar1=lbar1, lbar2=1.0))


class TestRunners:
    def test_palm_equals_ipalm_at_zero_momentum(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.0, max_iters=40)
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        a = run_palm(prob, hp, theta0)
        b = run_ipalm(prob, hp, theta0)
        assert a.final_objective == b.final_objective
        assert np.array_equal(a.params.mu, b.params.mu)
        assert np.array_equal(a.params.alpha, b.params.alpha)
        assert np.array_equal(a.params.beta, b.params.beta)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.objective, ra.residual, ra.lyapunov, ra.step_kind) == (
                rb.objective,
                rb.residual,
                rb.lyapunov,
                rb.step_kind,
            )

    def test_aa_disabled_equals_ipalm(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.5, max_iters=40)
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        a = run_aa_ipalm(prob, hp, theta0, accept_aa=False)
        b = run_ipalm(prob, hp, theta0)
        assert a.final_objective == b.final_objective
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.objective, ra.residual) == (rb.objective, rb.residual)

    def test_deterministic_reruns(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.5, max_iters=60, memory=5)
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        a = run_aa_ipalm(prob, hp, theta0)
        b = run_aa_ipalm(prob, hp, theta0)
        assert a.final_objective == b.final_objective
        assert np.array_equal(a.params.mu, b.params.mu)
        assert [r.objective for r in a.trace] == [r.objective for r in b.trace]

    def test_infeasible_init_rejected(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.0, max_iters=5)
        bad = prob.domain.ub_flat() * 2.0
        with pytest.raises(InfeasibleInitError):
            run_ipalm(prob, hp, bad)

    @pytest.mark.parametrize("algo", ["palm", "ipalm", "aa"])
    def test_poisson_recovery(self, algo):
        prob, mu_star, lbar1 = poisson_problem()
        im = prob.index_map
        theta0 = np.zeros(prob.dim)
        theta0[im.mu_slice] = 0.8
        theta0[im.beta_slice] = 1.0
        if algo == "palm":
            hp = HyperParams(lbar1=lbar1, lbar2=1.0, max_iters=2000)
            res = run_palm(prob, hp, theta0)
        elif algo == "ipalm":
            hp = HyperParams(
                gamma1=0.9, gamma2=0.9, lbar1=lbar1, lbar2=1.0, max_iters=5000
            )
            res = run_ipalm(prob, hp, theta0)
        else:
            hp = HyperParams(
                gamma1=0.9, gamma2=0.9, lbar1=lbar1, lbar2=1.0,
                memory=10, max_iters=2000,
            )
            res = run_aa_ipalm(prob, hp, theta0)
        assert res.params.mu[0] == pytest.approx(mu_star, rel=1e-5)
        assert np.all(np.isfinite([r.objective for r in res.trace]))

    def test_iterates_stay_feasible(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.9, max_iters=80, memory=5)
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        res = run_aa_ipalm(prob, hp, theta0, keep_iterates=True)
        for it in res.iterates:
            assert prob.domain.contains(it)

    def test_residual_decreases_over_run(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.5, max_iters=120)
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        res = run_ipalm(prob, hp, theta0)
        r = np.array([t.residual for t in res.trace])
        assert r[-20:].mean() < r[:20].mean()


class TestLyapunov:
    @pytest.mark.parametrize("algo", ["palm", "ipalm", "aa"])
    def test_monotone_on_compliant_runs(self, algo):
        prob = k2_problem(tight=True)
        l1, l2 = compliant_global_bounds(prob)
        gamma = {"palm": 0.0, "ipalm": 0.9, "aa": 0.5}[algo]
        hp = HyperParams(
            epsilon=0.05, gamma1=gamma, gamma2=gamma, lbar1=l1, lbar2=l2,
            max_iters=150, memory=5,
        )
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        runner = {"palm": run_palm, "ipalm": run_ipalm, "aa": run_aa_ipalm}[algo]
        res = runner(prob, hp, theta0)
        lyap = np.array([t.lyapunov for t in res.trace])
        assert np.all(np.diff(lyap) <= 1e-9)
        if algo == "aa":
            assert res.accepted_aa + res.rejected_aa == hp.max_iters - 1
            assert res.rejected_aa >= 1  # fallback steps exercised

    def test_monotone_with_aa_accepts(self):
        # Moderate curvature bound lets accelerated steps through the
        # safeguard; the certificate must still be monotone on both kinds.
        prob, mu_star, lbar1 = poisson_problem()
        im = prob.index_map
        theta0 = np.zeros(prob.dim)
        theta0[im.mu_slice] = 0.8
        theta0[im.beta_slice] = 1.0
        hp = HyperParams(
            epsilon=0.05, gamma1=0.5, gamma2=0.5, lbar1=lbar1, lbar2=1.0,
            max_iters=300, memory=5,
        )
        res = run_aa_ipalm(prob, hp, theta0)
        lyap = np.array([t.lyapunov for t in res.trace])
        assert np.all(np.diff(lyap) <= 1e-9)
        assert res.accepted_aa >= 1
        assert res.rejected_aa >= 1


class TestHNormBounds:
    @pytest.mark.parametrize("memory", [1, 5])
    def test_inverse_norm_bound(self, memory):
        prob = k2_problem()
        assert 2 * prob.dim <= 60
        hp = compliant_hp(
            prob, gamma=0.5, max_iters=150, memory=memory, omega_bar=0.1, nu=0.1
        )
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        res = run_aa_ipalm(prob, hp, theta0, track_h=True)
        bound = 3.0 * ((1 + 0.1 + 0.1) / 0.1) ** memory - 2.0
        if memory == 1:
            assert bound == pytest.approx(34.0)
        h_norm, h_inv_norm = np.array(res.h_norms).T
        assert np.all(h_inv_norm <= bound * (1 + 1e-9))
        # Interpretive forward bound with ambient exponent 2P - 1.
        fwd = bound ** (2 * prob.dim - 1) / 0.1**memory
        assert np.all(h_norm <= fwd)


class TestResidualDiagnostics:
    def test_constant_trace_flat(self):
        trace = [TraceRecord(k, -1.0, 0.5, "PALM", 1.0, 0.0) for k in range(40)]
        summ = residual_diagnostics(trace)
        assert summ.checkpoints == (10, 20, 40)
        assert summ.min_sq_residuals == (0.25, 0.25, 0.25)

    def test_prefix_min_nonincreasing(self):
        rng = np.random.default_rng(2)
        trace = [
            TraceRecord(k, -1.0, float(r), "PALM", 1.0, 0.0)
            for k, r in enumerate(rng.uniform(0.1, 1.0, 100))
        ]
        summ = residual_diagnostics(trace)
        assert summ.min_sq_residuals[0] >= summ.min_sq_residuals[1]
        assert summ.min_sq_residuals[1] >= summ.min_sq_residuals[2]

    def test_decay_on_converged_run(self):
        prob = k2_problem()
        hp = compliant_hp(prob, gamma=0.5, max_iters=160)
        theta0 = 0.5 * (prob.domain.lb_flat() + prob.domain.ub_flat())
        res = run_ipalm(prob, hp, theta0)
        summ = residual_diagnostics(res.trace)
        assert summ.min_sq_residuals[2] <= summ.min_sq_residuals[0]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            residual_diagnostics([])

    @pytest.mark.parametrize("k0", [0, -1, 2.0, 1.5, True, "4"])
    def test_base_checkpoint_must_be_positive_integer(self, k0):
        trace = [TraceRecord(k, -1.0, 0.5, "PALM", 1.0, 0.0) for k in range(8)]
        with pytest.raises(ValueError, match="base_checkpoint: expected a positive integer"):
            residual_diagnostics(trace, base_checkpoint=k0)

    def test_base_checkpoint_past_the_trace_stops_at_its_end(self):
        trace = [TraceRecord(k, -1.0, 0.5, "PALM", 1.0, 0.0) for k in range(8)]
        assert residual_diagnostics(trace, base_checkpoint=np.int64(3)).checkpoints == (3, 6, 8)


class TestLipschitzEstimate:
    def test_poisson_block_curvature(self):
        prob, mu_star, _ = poisson_problem()
        im = prob.index_map
        theta0 = np.zeros(prob.dim)
        theta0[im.mu_slice] = 1.0
        theta0[im.beta_slice] = 1.0
        l1, l2 = estimate_lipschitz_bounds(prob, theta0, safety=2.0)
        # mu-block curvature at mu=1 is n = 20; safety factor 2 doubles it.
        assert l1 >= 0.9 * 2 * 20
        assert np.isfinite(l2) and l2 > 0
