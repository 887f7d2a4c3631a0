"""The factored Anderson state against the dense-H oracle.

``OptimizerState`` holds H = I + sum_i a_i b_i' as factor pairs;
``dense_h_oracle.DenseHState`` holds the same H as a dense matrix changed by
the dense formula, with the same secant window and restart rules.
"""

from dataclasses import replace

import numpy as np
import pytest

from dense_h_oracle import DenseHState
from hawkes_mle import (
    HyperParams,
    LikelihoodProblem,
    OptimizerState,
    SimConfig,
    optim,
    run_aa_ipalm,
    simulate_cluster,
)
from hawkes_mle.experiments import RECIPES, generate_instance
from test_engine import traced_peak
from test_optim_golden import ACCELERATED, aa_run


def _close(a, b, scale, tol=1e-12):
    return np.linalg.norm(a - b) <= tol * scale


def _secant_step(state, hp, u_prev, sweep_prev, u, u_hat):
    """One secant update whose candidate ``u`` was taken, so its sweep is ``u_hat``."""
    state.u_prev, state.cached_sweep, state.u_tilde = u_prev, sweep_prev, u
    state.secant_update(None, hp, u, u_hat)


@pytest.mark.parametrize("seed", range(4))
def test_factored_h_matches_dense_oracle_on_random_secants(seed):
    """H x, H'x and the dense H agree through every kind of restart."""
    rng = np.random.default_rng(seed)
    dim, hp = 6, HyperParams(memory=3, nu=0.8)
    fact, dense = OptimizerState(dim), DenseHState(dim)
    u_prev, sweep_prev = rng.standard_normal(dim), rng.standard_normal(dim)
    restarts = {"window": 0, "projection": 0, "skip": 0}
    for k in range(80):
        u = u_prev if k % 20 == 7 else rng.standard_normal(dim)  # zero secant
        u_hat = rng.standard_normal(dim)
        if k % 20 == 13:
            u_hat[3] = np.inf  # non-finite sweep
        window_before = len(fact.s_window)
        for state in (fact, dense):
            _secant_step(state, hp, u_prev, sweep_prev, u, u_hat)
        u_prev, sweep_prev = u, u_hat

        assert len(fact.s_window) == len(dense.s_window)
        assert len(fact.h_terms) <= hp.memory + 1
        if not fact.s_window:
            kind = "skip" if not fact.h_terms else (
                "window" if window_before == hp.memory else "projection"
            )
            restarts[kind] += 1
        H = dense.h_matrix
        x = rng.standard_normal(dim)
        scale = np.linalg.norm(H) * np.linalg.norm(x)
        assert _close(fact.h_dot(x), H @ x, scale)
        assert _close(fact.h_t_dot(x), H.T @ x, scale)
        assert _close(fact.h_matrix, H, np.linalg.norm(H))
    assert min(restarts.values()) >= 1, restarts


@pytest.mark.parametrize("name", sorted(ACCELERATED))
def test_accelerated_golden_runs_follow_dense_oracle(name, monkeypatch):
    """Same step kinds, iterates within 1e-9 over the first 50 iterations."""
    _, res = aa_run(ACCELERATED[name], max_iters=50)
    monkeypatch.setattr(optim, "OptimizerState", DenseHState)
    _, ref = aa_run(ACCELERATED[name], max_iters=50)
    kinds = [r.step_kind for r in res.trace]
    assert kinds == [r.step_kind for r in ref.trace]
    assert "AA-accepted" in kinds
    for a, b in zip(res.iterates, ref.iterates, strict=True):
        assert _close(a, b, np.linalg.norm(b), tol=1e-9)


def _one_term_state(cls):
    """H = I + a b' with a = (1, 1, 0, 0), b = (1, -1, 0, 0)."""
    a, b = np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.0, 0.0])
    state = cls(4)
    if cls is DenseHState:
        state._h = np.eye(4) + np.outer(a, b)
    else:
        state.h_terms = [(a, b)]
    return state


def test_curvature_retry_with_identity_updates_h():
    """y = 0 and r orthogonal to H's but not to s: only the H = I pass updates.

    With y = 0 the damping gives y~ = -omega_bar r, so the first pass has
    curvature s'H y~ = -omega_bar (H's).r = 0 exactly, and the retry with
    H = I has -omega_bar s.r = -0.5.
    """
    hp = HyperParams(omega_bar=0.5)
    u_prev = np.zeros(4)
    sweep_prev = -np.array([1.0, 2.0, 0.0, 0.0])  # r = u_prev - sweep_prev
    u = np.array([1.0, 0.0, 0.0, 0.0])  # s = u - u_prev
    u_hat = sweep_prev + u  # y = s - (u_hat - sweep_prev) = 0
    fact, dense = _one_term_state(OptimizerState), _one_term_state(DenseHState)
    assert fact.h_t_dot(u) @ (u_prev - sweep_prev) == 0.0
    for state in (fact, dense):
        _secant_step(state, hp, u_prev, sweep_prev, u, u_hat)
    assert fact.s_window == [] and len(fact.h_terms) == 1
    expected = np.eye(4)
    expected[:2, :2] = [[-2.0, 0.0], [-2.0, 1.0]]  # I + (s + r / 2) s' / (-1/2)
    np.testing.assert_array_equal(fact.h_matrix, expected)
    np.testing.assert_array_equal(dense.h_matrix, expected)


def test_nonfinite_sweep_restarts_before_update(monkeypatch):
    def no_update(*args):
        raise AssertionError("a non-finite secant reached the H update")

    monkeypatch.setattr(OptimizerState, "_damped_update", no_update)
    state = _one_term_state(OptimizerState)
    state.s_window = [np.ones(4)]
    u_hat = np.array([0.0, np.nan, 0.0, 0.0])
    _secant_step(state, HyperParams(), np.zeros(4), np.zeros(4), np.ones(4), u_hat)
    assert (state.s_window, state.h_terms) == ([], [])


def test_factored_h_memory_guard():
    """At P >= 2000 the Anderson state stays far below one dense 2P x 2P H.

    Only ``track_h`` builds the dense H, for its SVD; that takes about 15 s per
    accelerated iteration at this size, so the tracked run stops after one.
    """
    recipe = replace(
        RECIPES["exp-k10"], K=45, alpha_divisor=75.0, seed=0, horizon=20.0
    )
    inst = generate_instance(recipe)
    ev = simulate_cluster(inst.spec, inst.params, inst.horizon, SimConfig(seed=0))
    prob = LikelihoodProblem(inst.spec, ev, inst.domain, reg_c=inst.reg_c)
    P, dense_bytes = prob.dim, 8 * (2 * prob.dim) ** 2
    assert P >= 2000 and 20 <= len(ev) <= 60
    hp = replace(inst.hp, max_iters=5)
    out = []
    peak = traced_peak(lambda: out.append(run_aa_ipalm(prob, hp, inst.init)))
    assert out[0].h_norms is None and out[0].accepted_aa > 0
    assert peak < 0.05 * dense_bytes

    hp = replace(hp, max_iters=2)
    peak = traced_peak(
        lambda: out.append(run_aa_ipalm(prob, hp, inst.init, track_h=True))
    )
    assert len(out[1].h_norms) == out[1].accepted_aa + out[1].rejected_aa == 1
    assert peak >= dense_bytes
