"""Golden traces: the optimizers reproduce recorded runs bit for bit.

Each run is reduced to sha256 digests of its trace rows (iteration, objective,
residual, step kind, Lyapunov value, floats as ``float.hex``), its iterates,
its final parameters and, for accelerated runs, the per-iteration
(||H||, ||H^-1||) pairs, plus the accepted/rejected counts.  The digests in
``optim_golden.json`` were recorded from the optimizer before its runners were
folded into one loop, so any change in arithmetic or control flow shows here.

The nine entries of the exponential-kernel runs (``k5-*`` and ``exp3-*``,
with their ``-lowrank`` entries) were re-recorded when the exponential scan
became a blocked recursion: it adds the kernel sums in another order, which
moves objective values in their last bits.  Every re-recorded run kept its
step kinds and its accepted/rejected counts.  The trace digest moved in all
nine; the iterates and final values of the seven optimizer runs stayed bit
for bit, and the two ``fit_stream`` runs ended one ulp apart (1.3e-16
relative).  The ``pwl-*`` and ``poisson-*`` entries are unchanged.

The three runs that accept Anderson steps follow their candidates, so they
depend on the rounding of H.  Their original entries were recorded with a
dense H and are checked with the dense oracle state of ``dense_h_oracle``
swapped in; their ``-lowrank`` entries were recorded when H became factor
pairs and pin the production path.  The other runs never take a candidate and
match their original entries through the production path.

The ``h_norms`` digest of the three ``-lowrank`` entries, and no other key,
was re-recorded when ``OptimizerState.h_norms`` began to take the norms from
a thin QR of the factor pairs instead of a full SVD of the dense H.  The norms
are read-only, so the trajectories kept their bits; only the rounding of the
reported norms moved, within 1e-10 relative of the dense SVD (checked in
``test_lowrank_h``).  The dense-oracle entries keep their digests, because
``DenseHState.h_norms`` still takes the full SVD of its own dense H.

Between them the runs reach every restart of the accelerated loop: a full
memory window (memory 2, on the K=3 stream with accepted steps), a
degenerate projection of the secant direction (every recipe stream), a zero
secant (the Poisson problem, which reaches its fixed point exactly) and a
non-finite sweep at a rejected candidate (the K=5 recipe stream).  The
degenerate-curvature retry with H = I is reached by hand-built vectors in
``test_lowrank_h``.

``fit_stream`` always runs with ``FIT_MEMORY`` (10), so only its ``-m10``
entries remain; the ``k5-fit-stream-m2`` and ``pwl-fit-stream-m2`` entries
went with its ``memory`` keyword.  The nine re-recorded entries counted above
include ``k5-fit-stream-m2``.

All thirteen entries were then re-recorded when the likelihood engine began
to hold its events in one row order, by type and then time, and to take
every per-type sum as a segment sum over a type's block of rows instead of a
product with a one-hot type matrix.  The kernel sums of each event kept
their bits, but every sum over events is now added in another order, so
objective values move in their last bits and the trace digest moved in all
thirteen.  Every entry kept its row count and its accepted/rejected counts.
Seven entries kept their final objective bit for bit.  The runs that follow
accepted Anderson candidates moved most: ``k5-aa-ipalm`` by 9.1e-11 relative
and its ``-lowrank`` entry by 1.0e-9.  The other four moved by at most
2.7e-15.

The ``pwl-fit-stream-m10`` entry, and no other, was re-recorded when the
power-law kernel's Phi, dPhi/dbeta and Phi^-1 became the exponential
kernel's formulas in log time s = log1p(u / c).  The recipe stream it fits
kept its bits (its 29 events drew no offset whose rounding moved), but the
compensator sums S and Sd now round differently: 80 of the 150 trace
objectives moved, by at most 4.3e-16 relative, and 6 of the 13 final
parameters by at most 1.6e-15.  Rows, step kinds, accepted/rejected counts
and the final objective kept their bits.
"""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from dense_h_oracle import DenseHState
from hawkes_mle import (
    HyperParams,
    LikelihoodProblem,
    SimConfig,
    fit_stream,
    gen_synthetic_exponential,
    gen_synthetic_powerlaw,
    optim,
    run_aa_ipalm,
    run_ipalm,
    run_palm,
    simulate_cluster,
)
from test_optim import poisson_problem

GOLDEN = os.path.join(os.path.dirname(__file__), "optim_golden.json")


def _sha(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
    return h.hexdigest()


def digest(prob, res):
    """Recorded fingerprint of one optimizer run."""
    rows = (
        f"{r.iteration},{r.objective.hex()},{r.residual.hex()},"
        f"{r.step_kind},{r.lyapunov.hex()}\n"
        for r in res.trace
    )
    out = {
        "trace": _sha(rows),
        "rows": len(res.trace),
        "accepted_aa": res.accepted_aa,
        "rejected_aa": res.rejected_aa,
        "params": _sha([prob.index_map.pack(res.params).tobytes()]),
        "final_objective": float(res.final_objective).hex(),
    }
    if res.iterates is not None:
        out["iterates"] = _sha(np.asarray(it).tobytes() for it in res.iterates)
    if res.h_norms is not None:
        out["h_norms"] = _sha(f"{a.hex()},{b.hex()}\n" for a, b in res.h_norms)
    return out


def _recipe_problem(inst, seed):
    ev = simulate_cluster(inst.spec, inst.params, inst.horizon, SimConfig(seed=seed))
    return LikelihoodProblem(inst.spec, ev, inst.domain, reg_c=inst.reg_c)


def _k5():
    inst = gen_synthetic_exponential(seed=1, K=5)
    return _recipe_problem(inst, 1), inst


def _exp3():
    inst = gen_synthetic_exponential(seed=4, K=3, horizon=300.0)
    return _recipe_problem(inst, 4), inst


def _pwl():
    inst = gen_synthetic_powerlaw(seed=2, K=3, horizon=300.0)
    return _recipe_problem(inst, 2), inst


def _poisson():
    prob, _, lbar1 = poisson_problem()
    im = prob.index_map
    theta0 = np.zeros(prob.dim)
    theta0[im.mu_slice] = 0.8
    theta0[im.beta_slice] = 1.0
    hp = HyperParams(
        epsilon=0.05, gamma1=0.5, gamma2=0.5, lbar1=lbar1, lbar2=1.0,
        memory=5, max_iters=300,
    )
    return prob, hp, theta0


def _k5_setup():
    prob, inst = _k5()
    return prob, inst.hp, inst.init


def _exp3_m2_setup():
    prob, inst = _exp3()
    return prob, replace(inst.hp, memory=2, max_iters=300), inst.init


def _k5_run(runner, **kw):
    prob, hp, theta0 = _k5_setup()
    return prob, runner(prob, hp, theta0, **kw)


def _poisson_run(runner, **kw):
    prob, hp, theta0 = _poisson()
    return prob, runner(prob, hp, theta0, **kw)


def aa_run(setup, **hp_changes):
    """An accelerated golden run, optionally with changed hyperparameters."""
    prob, hp, theta0 = setup()
    hp = replace(hp, **hp_changes)
    return prob, run_aa_ipalm(prob, hp, theta0, keep_iterates=True, track_h=True)


# The runs that accept Anderson steps, by their setup.
ACCELERATED = {
    "k5-aa-ipalm": _k5_setup,
    "exp3-aa-ipalm-m2": _exp3_m2_setup,
    "poisson-aa-ipalm": _poisson,
}


def _fit_stream_run(make, iters):
    prob, _ = make()
    return prob, fit_stream(prob, iters=iters)


RUNS = {
    "k5-palm": lambda: _k5_run(run_palm, keep_iterates=True),
    "k5-ipalm": lambda: _k5_run(run_ipalm, keep_iterates=True),
    "k5-aa-ipalm": lambda: aa_run(_k5_setup),
    "k5-aa-off": lambda: _k5_run(run_aa_ipalm, accept_aa=False, keep_iterates=True),
    "exp3-aa-ipalm-m2": lambda: aa_run(_exp3_m2_setup),
    "poisson-palm": lambda: _poisson_run(run_palm),
    "poisson-ipalm": lambda: _poisson_run(run_ipalm),
    "poisson-aa-ipalm": lambda: aa_run(_poisson),
    "k5-fit-stream-m10": lambda: _fit_stream_run(_k5, 200),
    "pwl-fit-stream-m10": lambda: _fit_stream_run(_pwl, 150),
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_every_run(golden):
    lowrank = [f"{name}-lowrank" for name in ACCELERATED]
    assert sorted(golden) == sorted([*RUNS, *lowrank])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(name, golden, monkeypatch):
    if name in ACCELERATED:
        monkeypatch.setattr(optim, "OptimizerState", DenseHState)
    prob, res = RUNS[name]()
    assert digest(prob, res) == golden[name]


@pytest.mark.parametrize("name", sorted(ACCELERATED))
def test_lowrank_run_matches_golden(name, golden):
    prob, res = RUNS[name]()
    assert digest(prob, res) == golden[f"{name}-lowrank"]
