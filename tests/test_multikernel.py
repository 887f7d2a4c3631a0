"""Mixture models: M = 2 base kernels, including mixed families."""

import numpy as np
import pytest

from common import (
    compliant_global_bounds,
    fd_gradient,
    loglik_quadrature,
    random_interior,
    wide_domain,
)
from hawkes_mle import (
    BoxDomain,
    Exponential,
    HyperParams,
    LikelihoodProblem,
    ModelSpec,
    ParamVector,
    PowerLawCutoff,
    SimConfig,
    branching_matrix,
    log_likelihood,
    run_aa_ipalm,
    simulate_cluster,
    simulate_thinning,
    spectral_radius,
    stationary_mean_intensity,
)


def mixed_spec(K=2):
    return ModelSpec(K=K, M=2, kernels=[Exponential(), PowerLawCutoff(0.05)])


def mixed_truth(K=2):
    alpha = np.zeros((2, K, K))
    alpha[0] = 0.12  # exponential component, mass 0.12 / beta
    alpha[1] = 0.015  # power-law component, mass 0.015 * c^(1-b)/(b-1)
    return ParamVector(
        mu=np.full(K, 0.1), alpha=alpha, beta=np.array([1.0, 1.6])
    )


class TestMixedBranching:
    def test_masses_add_across_kernels(self):
        spec = mixed_spec(K=1)
        pv = ParamVector(
            mu=np.array([0.1]),
            alpha=np.array([[[0.3]], [[0.02]]]),
            beta=np.array([2.0, 1.5]),
        )
        expect = 0.3 / 2.0 + 0.02 * 0.05**-0.5 / 0.5
        G = branching_matrix(spec, pv)
        assert G[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_truth_is_stationary(self):
        spec = mixed_spec()
        radius = spectral_radius(branching_matrix(spec, mixed_truth()))
        assert radius < 0.9


class TestMixedLikelihood:
    def test_gradient_matches_finite_differences(self):
        spec = mixed_spec()
        truth = mixed_truth()
        ev = simulate_cluster(spec, truth, 100.0, SimConfig(seed=13))
        assert len(ev) > 10
        dom = wide_domain(spec, mu_hi=2.0, alpha_hi=1.0, beta_hi=5.0)
        prob = LikelihoodProblem(spec, ev, dom, reg_c=0.5)
        rng = np.random.default_rng(29)
        for _ in range(10):
            flat = random_interior(dom, rng)
            g = prob.grad_flat(flat)
            g_fd = fd_gradient(prob, flat)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            assert rel <= 1e-5

    def test_loglik_matches_quadrature(self):
        spec = mixed_spec()
        truth = mixed_truth()
        ev = simulate_cluster(spec, truth, 40.0, SimConfig(seed=4))
        assert 0 < len(ev) <= 50
        dom = wide_domain(spec)
        prob = LikelihoodProblem(spec, ev, dom)
        pv = ParamVector(
            mu=np.array([0.12, 0.2]),
            alpha=np.stack(
                [0.2 * np.ones((2, 2)), 0.01 * np.ones((2, 2))]
            ),
            beta=np.array([0.7, 1.4]),
        )
        assert log_likelihood(prob, pv) == pytest.approx(
            loglik_quadrature(prob, pv), abs=1e-6
        )

    def test_kernel_components_superpose(self):
        # A two-kernel model with the second weight zeroed equals the
        # one-kernel model on the same stream.
        spec2 = mixed_spec(K=1)
        spec1 = ModelSpec(K=1, M=1, kernels=[Exponential()])
        times = np.array([1.0, 2.0, 3.5])
        from common import events, problem

        ev = events(times, horizon=5.0)
        pv2 = ParamVector(
            mu=np.array([0.3]),
            alpha=np.array([[[0.4]], [[0.0]]]),
            beta=np.array([1.1, 1.5]),
        )
        pv1 = ParamVector(
            mu=np.array([0.3]), alpha=np.array([[[0.4]]]), beta=np.array([1.1])
        )
        assert log_likelihood(problem(spec2, ev), pv2) == pytest.approx(
            log_likelihood(problem(spec1, ev), pv1), rel=1e-12
        )


class TestMixedSimulation:
    def test_cluster_thinning_agree(self):
        spec = mixed_spec()
        truth = mixed_truth()
        lam_bar = stationary_mean_intensity(spec, truth)
        T, reps = 250.0, 50
        a = np.array(
            [
                simulate_cluster(spec, truth, T, SimConfig(seed=r)).counts(2)
                for r in range(reps)
            ],
            dtype=float,
        ) / T
        b = np.array(
            [
                simulate_thinning(spec, truth, T, SimConfig(seed=500 + r)).counts(2)
                for r in range(reps)
            ],
            dtype=float,
        ) / T
        pooled = np.sqrt(a.var(axis=0, ddof=1) / reps + b.var(axis=0, ddof=1) / reps)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 3 * pooled)
        se = a.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(a.mean(axis=0) - lam_bar) <= 3 * se)

    def test_deterministic(self):
        spec = mixed_spec()
        truth = mixed_truth()
        x = simulate_cluster(spec, truth, 100.0, SimConfig(seed=3))
        y = simulate_cluster(spec, truth, 100.0, SimConfig(seed=3))
        assert np.array_equal(x.times, y.times)
        assert np.array_equal(x.types, y.types)


class TestMixedOptimization:
    def test_accelerated_run_is_monotone_and_feasible(self):
        spec = mixed_spec()
        truth = mixed_truth()
        ev = simulate_cluster(spec, truth, 200.0, SimConfig(seed=17))
        dom = BoxDomain(
            mu_lb=np.full(2, 0.05),
            mu_ub=np.full(2, 0.8),
            alpha_lb=np.zeros((2, 2, 2)),
            alpha_ub=np.stack([np.full((2, 2), 0.5), np.full((2, 2), 0.05)]),
            beta_lb=np.array([0.6, 1.3]),
            beta_ub=np.array([3.0, 2.5]),
        )
        prob = LikelihoodProblem(spec, ev, dom, reg_c=0.5)
        l1, l2 = compliant_global_bounds(prob)
        hp = HyperParams(
            epsilon=0.05, gamma1=0.5, gamma2=0.5, lbar1=l1, lbar2=l2,
            memory=5, max_iters=120,
        )
        theta0 = 0.5 * (dom.lb_flat() + dom.ub_flat())
        res = run_aa_ipalm(prob, hp, theta0, keep_iterates=True)
        lyap = np.array([r.lyapunov for r in res.trace])
        assert np.all(np.diff(lyap) <= 1e-9)
        for it in res.iterates:
            assert dom.contains(it)
        assert np.isfinite(res.final_objective)
