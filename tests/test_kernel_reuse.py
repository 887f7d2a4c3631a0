"""Kernel sums are computed once per distinct beta and reused bit for bit.

A ``LikelihoodProblem`` keeps the kernel sums of its last two beta vectors.
Every call that hits them must return exactly what the same call returns on
a fresh problem, and the optimizer's block steps must then cost about one
kernel pass per iteration.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from common import events, params, wide_domain
from hawkes_mle import (
    Exponential,
    LikelihoodProblem,
    ModelSpec,
    PowerLawCutoff,
    SimConfig,
    estimate_lipschitz_bounds,
    gen_synthetic_exponential,
    gen_synthetic_powerlaw,
    run_aa_ipalm,
    run_ipalm,
    run_palm,
    simulate_cluster,
)

EXP, PWL, PWL_WIDE = Exponential(), PowerLawCutoff(0.05), PowerLawCutoff(0.7)

# name: (kernels, times, types, horizon); K = 3, and type 2 never fires.
STREAM = ([0.0, 0.5, 0.5, 1.25, 2.0, 3.5, 4.0], [1, 0, 1, 1, 0, 0, 1], 5.0)
MODELS = {
    "exp": ([EXP], *STREAM),
    "pwl": ([PWL], *STREAM),
    "exp+pwl": ([EXP, PWL], *STREAM),
    "pwl+pwl-wide": ([PWL, PWL_WIDE], *STREAM),
    "exp+pwl-n0": ([EXP, PWL], [], [], 5.0),
}
BETAS = ([1.5, 2.0], [3.0, 1.25], [2.25, 4.5])  # first M entries are used


def build(name):
    kernels, times, types, horizon = MODELS[name]
    spec = ModelSpec(K=3, M=len(kernels), kernels=kernels)
    ev = events(times, types, horizon=horizon)
    return LikelihoodProblem(spec, ev, wide_domain(spec), reg_c=0.1)


def point(prob, beta):
    K, M = prob.spec.K, prob.spec.M
    alpha = np.arange(1, M * K * K + 1).reshape(M, K, K) / 50.0
    return prob.index_map.pack(params([0.3, 0.2, 0.4], alpha, beta[:M]))


CALLS = {
    "objective_and_grad": lambda p, x: p.objective_and_grad_flat(x),
    "objective": lambda p, x: p.objective_flat(x),
    "grad": lambda p, x: p.grad_flat(x),
    "grad_mu_alpha": lambda p, x: p.grad_flat(x, mu_alpha=True, beta=False),
    "grad_beta": lambda p, x: p.grad_flat(x, mu_alpha=False, beta=True),
}


def fingerprint(out):
    """The exact bits of an objective, a gradient, or a pair of them."""
    if isinstance(out, tuple):
        return tuple(fingerprint(o) for o in out)
    if isinstance(out, float):
        return out.hex()
    return np.asarray(out).tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_reused_sums_equal_fresh_problem(name):
    """beta1, beta2, beta3, beta1 in turn: every call equals a fresh problem's."""
    prob = build(name)
    order = [BETAS[0], BETAS[1], BETAS[2], BETAS[0]]
    for beta in order:
        for call in CALLS.values():
            x = point(prob, beta)
            assert fingerprint(call(prob, x)) == fingerprint(call(build(name), x))
    # Two slots: the fourth beta1 comes after beta3 has evicted it.
    assert prob.kernel_passes == len(order)


def test_two_slots_hold_the_last_two_betas():
    prob = build("exp+pwl")
    for beta in (BETAS[0], BETAS[1], BETAS[0], BETAS[1], BETAS[0]):
        prob.grad_flat(point(prob, beta))
    assert prob.kernel_passes == 2
    prob.grad_flat(point(prob, BETAS[2]))
    prob.grad_flat(point(prob, BETAS[0]))  # used last, so beta2 was evicted
    assert prob.kernel_passes == 3


def test_mu_alpha_change_reuses_the_pass():
    """The sums depend on beta alone: a new (mu, alpha) at the same beta is a hit."""
    prob = build("exp+pwl")
    x = point(prob, BETAS[0])
    y = x.copy()
    y[prob.index_map.mu_alpha_slice] *= 1.5
    prob.objective_and_grad_flat(x)
    got = prob.objective_and_grad_flat(y)
    assert prob.kernel_passes == 1
    assert fingerprint(got) == fingerprint(build("exp+pwl").objective_and_grad_flat(y))


@pytest.mark.parametrize("name", ["exp", "pwl", "exp+pwl"])
def test_nan_beta_leaves_later_results_unchanged(name):
    prob = build(name)
    x1, x2 = point(prob, BETAS[0]), point(prob, BETAS[1])
    prob.objective_and_grad_flat(x1)
    bad = point(prob, [math.nan, math.nan])
    assert not np.all(np.isfinite(prob.grad_flat(bad)))
    try:
        prob.objective_flat(bad)
    except RuntimeError:  # the documented nonpositive-intensity invariant
        pass
    for x in (x1, x2, x1):
        for call in CALLS.values():
            assert fingerprint(call(prob, x)) == fingerprint(call(build(name), x))


def test_cached_sums_are_read_only():
    prob = build("exp+pwl")
    prob.grad_flat(point(prob, BETAS[0]))
    (_, sums), = prob._memo
    for kernel_sums in sums:
        for a in kernel_sums:
            with pytest.raises(ValueError):
                a[...] = 0.0


# -- kernel passes of the optimizer loop -----------------------------------------


def recipe_problem(name):
    """The paper's K=10 recipes on a short simulated stream."""
    if name == "exp-k10":
        inst = gen_synthetic_exponential(seed=0, K=10, horizon=100.0)
    else:
        inst = gen_synthetic_powerlaw(seed=0, K=10, horizon=800.0)
    ev = simulate_cluster(inst.spec, inst.params, inst.horizon, SimConfig(seed=1))
    assert ev.times.size > 100
    return LikelihoodProblem(inst.spec, ev, inst.domain, reg_c=inst.reg_c), inst


ITERS = 40
RUNS = {"palm": (run_palm, 1.05), "ipalm": (run_ipalm, 1.05), "aa-ipalm": (run_aa_ipalm, 2.0)}


@pytest.mark.parametrize("stream", ["exp-k10", "pwl-k10"])
@pytest.mark.parametrize("algo", sorted(RUNS))
def test_passes_per_iteration(stream, algo):
    prob, inst = recipe_problem(stream)
    runner, bound = RUNS[algo]
    res = runner(prob, replace(inst.hp, max_iters=ITERS), inst.init)
    assert len(res.trace) == ITERS
    assert prob.kernel_passes / ITERS <= bound


@pytest.mark.parametrize("stream", ["exp-k10", "pwl-k10"])
def test_lipschitz_estimate_passes(stream):
    prob, inst = recipe_problem(stream)
    estimate_lipschitz_bounds(prob, inst.init)
    assert prob.kernel_passes <= 5
