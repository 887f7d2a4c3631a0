"""The factored Anderson state against the dense-H oracle.

``OptimizerState`` holds H = I + sum_i a_i b_i' as factor pairs;
``dense_h_oracle.DenseHState`` holds the same H as a dense matrix changed by
the dense formula, with the same secant window and restart rules.
"""

from dataclasses import replace

import numpy as np
import pytest

from dense_h_oracle import DenseHState, dense_h, svd_norms
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


def _assert_norms_close(norms, ref, tol=1e-10):
    assert all(abs(x - y) <= tol * y for x, y in zip(norms, ref, strict=True)), (norms, ref)


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
        assert _close(dense_h(fact), H, np.linalg.norm(H))
        _assert_norms_close(fact.h_norms(), svd_norms(H))
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


def _state_with_pairs(dim, pairs):
    state = OptimizerState(dim)
    state.h_terms = [(a, b) for a, b in pairs]
    return state


def test_h_norms_of_identity():
    state = OptimizerState(5)
    assert state.h_norms() == (1.0, 1.0) == svd_norms(dense_h(state))


@pytest.mark.parametrize("seed", range(3))
def test_h_norms_without_complement(seed):
    """dim 3 with two pairs: [A B] is 3 x 4, so range(Q) is all of R^3."""
    rng = np.random.default_rng(seed)
    state = _state_with_pairs(3, rng.standard_normal((2, 2, 3)))
    _assert_norms_close(state.h_norms(), svd_norms(dense_h(state)))


@pytest.mark.parametrize("scale, norms", [(1.0, (2.0, 0.5)), (-0.5, (0.5, 2.0))])
def test_h_norms_take_no_unit_singular_value_without_complement(scale, norms):
    """H = (1 + scale) I in dim 2 has no singular value 1 to add."""
    state = _state_with_pairs(2, [(e, scale * e) for e in np.eye(2)])
    _assert_norms_close(state.h_norms(), norms, tol=1e-15)


def test_h_norms_rank_deficient_factors():
    """The same pair twice: [A B] has rank 2 and H = I + 2 a b'."""
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 6))
    state = _state_with_pairs(6, [(a, b), (a, b)])
    _assert_norms_close(state.h_norms(), svd_norms(dense_h(state)))


@pytest.mark.parametrize("name", sorted(ACCELERATED))
def test_h_norms_match_dense_svd_on_golden_runs(name, monkeypatch):
    """Every tracked H of the accelerated golden runs, against its dense SVD."""
    checked = []

    class RecordingState(OptimizerState):
        def h_norms(self):
            norms = super().h_norms()
            checked.append((norms, svd_norms(dense_h(self))))
            return norms

    monkeypatch.setattr(optim, "OptimizerState", RecordingState)
    _, res = aa_run(ACCELERATED[name])
    assert [norms for norms, _ in checked] == res.h_norms
    assert len(res.h_norms) == len(res.trace) - 1
    for norms, ref in checked:
        _assert_norms_close(norms, ref)


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
    np.testing.assert_array_equal(dense_h(fact), expected)
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

    ``track_h`` takes its norms from the factors, so a tracked run is held to
    the same bound as an untracked one, and takes the same steps.
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
    for track_h in (False, True):
        peak = traced_peak(
            lambda: out.append(run_aa_ipalm(prob, hp, inst.init, track_h=track_h))
        )
        assert peak < 0.05 * dense_bytes
    plain, tracked = out
    assert plain.h_norms is None and plain.accepted_aa > 0
    assert len(tracked.h_norms) == tracked.accepted_aa + tracked.rejected_aa == 4
    assert [r.step_kind for r in tracked.trace] == [r.step_kind for r in plain.trace]
