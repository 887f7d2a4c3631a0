import re

import numpy as np
import pytest

from common import (
    events,
    exp_spec,
    fd_gradient,
    loglik_quadrature,
    params,
    problem,
    pwl_spec,
    random_interior,
    wide_domain,
)
from hawkes_mle import (
    LikelihoodProblem,
    SimConfig,
    grad_log_likelihood,
    grad_regularized,
    intensity_at,
    log_likelihood,
    regularized_objective,
    simulate_cluster,
)
from hawkes_mle.model import DataError


class TestIntensity:
    def test_no_prior_events(self):
        prob = problem(exp_spec(), events([5.0], horizon=10.0))
        pv = params(0.7, 0.5, 1.0)
        assert intensity_at(prob, pv, 2.0, 0) == pytest.approx(0.7)

    def test_single_event_excitation(self):
        prob = problem(exp_spec(), events([1.0], horizon=10.0))
        pv = params(1.0, 0.5, 1.0)
        expect = 1.0 + 0.5 * np.exp(-1.0)
        assert intensity_at(prob, pv, 2.0, 0) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.18394, abs=1e-5)

    def test_zero_alpha_constant(self):
        prob = problem(exp_spec(), events([1.0, 2.0, 3.0], horizon=10.0))
        pv = params(0.4, 0.0, 1.0)
        for t in (0.5, 2.5, 9.9):
            assert intensity_at(prob, pv, t, 0) == pytest.approx(0.4)

    def test_strictness_at_event_time(self):
        prob = problem(exp_spec(), events([1.0], horizon=10.0))
        pv = params(1.0, 0.5, 1.0)
        # At the arrival instant the event itself does not contribute.
        assert intensity_at(prob, pv, 1.0, 0) == pytest.approx(1.0)

    def test_outside_window_rejected(self):
        prob = problem(exp_spec(), events([1.0], horizon=10.0))
        pv = params(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            intensity_at(prob, pv, 10.5, 0)
        with pytest.raises(ValueError):
            intensity_at(prob, pv, -0.1, 0)

    @pytest.mark.parametrize("i", [-1, 1, 1.5, True])
    def test_type_out_of_range_rejected(self, i):
        prob = problem(exp_spec(), events([1.0], horizon=10.0))
        with pytest.raises(ValueError, match=f"type index {re.escape(str(i))} out of range"):
            intensity_at(prob, params(1.0, 0.5, 1.0), 2.0, i)


class TestLogLikelihood:
    def test_no_events(self):
        prob = problem(exp_spec(), events([], horizon=10.0))
        assert log_likelihood(prob, params(0.3, 0.0, 0.5)) == pytest.approx(-3.0)

    def test_poisson_closed_form(self):
        prob = problem(exp_spec(), events([1.0, 2.0, 3.0], horizon=10.0))
        got = log_likelihood(prob, params(0.5, 0.0, 1.0))
        assert got == pytest.approx(-5.0 + 3.0 * np.log(0.5), rel=1e-12)
        assert got == pytest.approx(-7.079442, abs=1e-6)

    def test_two_event_hand_value(self):
        prob = problem(exp_spec(), events([1.0, 2.0], horizon=3.0))
        pv = params(1.0, 0.5, 1.0)
        phi2, phi1 = 1.0 - np.exp(-2.0), 1.0 - np.exp(-1.0)
        expect = -3.0 - 0.5 * (phi2 + phi1) + np.log(1.0 + 0.5 * np.exp(-1.0))
        got = log_likelihood(prob, pv)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(-3.57954, abs=1e-5)

    def test_matches_quadrature_oracle(self):
        prob = problem(exp_spec(), events([1.0, 2.0], horizon=3.0))
        pv = params(1.0, 0.5, 1.0)
        assert log_likelihood(prob, pv) == pytest.approx(
            loglik_quadrature(prob, pv), abs=1e-6
        )

    @pytest.mark.parametrize(
        "make_spec,beta,a", [(exp_spec, 0.8, 0.1), (pwl_spec, 1.5, 0.02)]
    )
    def test_quadrature_on_simulated_streams(self, make_spec, beta, a):
        spec = make_spec(K=2)
        truth = params([0.15, 0.1], a * np.ones((1, 2, 2)), beta)
        ev = simulate_cluster(spec, truth, 60.0, SimConfig(seed=3))
        assert 0 < len(ev) <= 50
        prob = problem(spec, ev)
        pv = params([0.2, 0.3], 0.15 * np.ones((1, 2, 2)), beta + 0.3)
        assert log_likelihood(prob, pv) == pytest.approx(
            loglik_quadrature(prob, pv), abs=1e-6
        )

    def test_simultaneous_arrivals_do_not_self_excite(self):
        # Two co-timed events across types: neither contributes to the other's
        # log term; only baselines appear there.
        spec = exp_spec(K=2)
        prob = problem(spec, events([1.0, 1.0], [0, 1], horizon=2.0))
        pv = params([0.5, 0.5], 0.4 * np.ones((1, 2, 2)), 1.0)
        comp = 0.4 * 2 * 2 * (1.0 - np.exp(-1.0))  # both events excite both types
        expect = -2.0 * 0.5 * 2 - comp + 2 * np.log(0.5)
        assert log_likelihood(prob, pv) == pytest.approx(expect, rel=1e-12)


class TestGradient:
    def test_poisson_score(self):
        prob = problem(exp_spec(), events([1.0, 2.0, 3.0], horizon=10.0))
        im = prob.index_map
        for mu in (0.1, 0.3, 0.7):
            g = grad_log_likelihood(prob, params(mu, 0.0, 1.0))
            assert g[im.mu_slice][0] == pytest.approx(-10.0 + 3.0 / mu, rel=1e-12)
        g_opt = grad_log_likelihood(prob, params(0.3, 0.0, 1.0))
        assert g_opt[im.mu_slice][0] == pytest.approx(0.0, abs=1e-12)

    def test_no_events_gradient(self):
        prob = problem(exp_spec(K=2), events([], horizon=7.0))
        g = grad_log_likelihood(prob, params([0.2, 0.4], 0.1 * np.ones((1, 2, 2)), 1.0))
        im = prob.index_map
        assert np.allclose(g[im.mu_slice], -7.0)
        assert np.allclose(g[im.alpha_slice], 0.0)
        assert np.allclose(g[im.beta_slice], 0.0)

    @pytest.mark.parametrize(
        "make_spec,beta_true,a", [(exp_spec, 1.0, 0.15), (pwl_spec, 1.5, 0.02)]
    )
    def test_matches_finite_differences(self, make_spec, beta_true, a):
        spec = make_spec(K=2)
        truth = params([0.2, 0.15], a * np.ones((1, 2, 2)), beta_true)
        ev = simulate_cluster(spec, truth, 120.0, SimConfig(seed=9))
        dom = wide_domain(spec, mu_hi=3.0, alpha_hi=2.0, beta_hi=6.0)
        prob = LikelihoodProblem(spec, ev, dom, reg_c=1.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            flat = random_interior(dom, rng)
            g = prob.grad_flat(flat)
            g_fd = fd_gradient(prob, flat)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            assert rel <= 1e-5

    def test_regularized_consistency(self):
        prob = problem(exp_spec(), events([1.0, 2.0], horizon=5.0), reg_c=1.0)
        pv = params(0.5, 0.3, 1.2)
        flat = prob.index_map.pack(pv)
        assert regularized_objective(prob, pv) == pytest.approx(
            log_likelihood(prob, pv) - float(flat @ flat), rel=1e-12
        )
        g_reg = grad_regularized(prob, pv)
        g_raw = grad_log_likelihood(prob, pv)
        assert np.allclose(g_reg, g_raw - 2.0 * flat, atol=1e-12)


class TestRegularizedObjective:
    def test_zero_penalty_equals_loglik(self):
        prob = problem(exp_spec(), events([1.0, 4.0], horizon=6.0), reg_c=0.0)
        pv = params(0.5, 0.2, 1.0)
        assert regularized_objective(prob, pv) == log_likelihood(prob, pv)

    def test_hand_penalty(self):
        # No events, mu=0.3, alpha=0, beta=0.5, C=1: -3 - (0.09 + 0.25)
        prob = problem(exp_spec(), events([], horizon=10.0), reg_c=1.0)
        got = regularized_objective(prob, params(0.3, 0.0, 0.5))
        assert got == pytest.approx(-3.34, rel=1e-12)

    @pytest.mark.parametrize("reg_c", [float("nan"), float("inf"), -1.0])
    def test_reg_c_must_be_finite_and_nonnegative(self, reg_c):
        with pytest.raises(ValueError, match="reg_c: expected a finite number >= 0"):
            problem(exp_spec(), events([1.0, 4.0], horizon=6.0), reg_c=reg_c)


class TestStructuralProperties:
    def test_concave_in_mu_alpha_at_fixed_beta(self):
        spec = exp_spec(K=2)
        truth = params([0.2, 0.2], 0.1 * np.ones((1, 2, 2)), 1.0)
        ev = simulate_cluster(spec, truth, 80.0, SimConfig(seed=21))
        prob = problem(spec, ev)
        im = prob.index_map
        rng = np.random.default_rng(23)
        for _ in range(20):
            beta = rng.uniform(0.5, 3.0)
            x = rng.uniform(0.05, 1.5, im.dim)
            y = rng.uniform(0.05, 1.5, im.dim)
            x[im.beta_slice] = beta
            y[im.beta_slice] = beta
            mid = 0.5 * (x + y)
            f_mid = prob.objective_flat(mid)
            f_avg = 0.5 * (prob.objective_flat(x) + prob.objective_flat(y))
            assert f_mid >= f_avg - 1e-12

    def test_finite_on_domain_grid_after_adding_event(self):
        spec = exp_spec()
        base = events([1.0, 2.5, 4.0], horizon=6.0)
        augmented = events([1.0, 2.0, 2.5, 4.0], horizon=6.0)
        for ev in (base, augmented):
            prob = problem(spec, ev, reg_c=0.5)
            for mu in (0.05, 0.5, 2.0):
                for a in (0.0, 0.3, 0.9):
                    for b in (0.2, 1.0, 4.0):
                        pv = params(mu, a, b)
                        val = regularized_objective(prob, pv)
                        g = grad_regularized(prob, pv)
                        assert np.isfinite(val)
                        assert np.all(np.isfinite(g))

    def test_event_type_out_of_range(self):
        spec = exp_spec(K=1)
        with pytest.raises(ValueError):
            problem(spec, events([1.0], [1], horizon=2.0))

    @pytest.mark.parametrize("times, types, horizon", [([1.0], [1], 2.0), ([], [], 0.0)],
                             ids=["type-beyond-K", "zero-horizon"])
    def test_stream_that_does_not_fit_the_model_is_a_data_error(self, times, types, horizon):
        with pytest.raises(DataError):
            problem(exp_spec(K=1), events(times, np.array(types, dtype=np.int64), horizon))
