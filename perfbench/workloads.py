"""The benchmark's workloads: seeded recipes, set-up, timed jobs, output checks.

Every workload draws its inputs from the workload seed and hands the program
only generated inputs: an events CSV and a config JSON for the fits, or
(spec, params, horizon, seed) for the samplers.

A fit stream holds exactly n events on [0, T]: ten consecutive blocks of
length T/10, each a window of a longer cluster sample of the recipe that
holds a tenth of the events.  On the near-critical K=10 recipe, [0, 300]
holds 503 to 3,380 events across seeds; the dense likelihood costs O(n^2),
and its exp() is 13 to 100 times slower on the pairs whose kernel value
underflows, whose number depends on how the events spread over [0, T].
Fixing n, T and the spread block by block lets the code, not the seed's
luck, set the timings.  The seed shows in the block starts, the simulated
horizon and the simulated count, all in the stamp.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as _stdio
import json
import math
import os

import numpy as np

from hawkes_mle import cli, experiments, io, likelihood, simulate

# Relative tolerance of "objective recomputed on a fresh LikelihoodProblem":
# the same code on the same floats, so only BLAS reduction order may differ.
RECOMPUTE_RTOL = 1e-12
# Relative tolerance against the objective recorded for the same workload seed
# when the benchmark was defined (reference.json).  Loose enough for reordered sums over a
# few short runs, tight enough that a wrong gradient or a changed step shows.
REFERENCE_RTOL = 1e-6
# Blocks per fit stream (see block_stream).
BLOCKS = 10

SCALES = {
    # exp-k10 and pwl: (n, T, iterations); k50: (K, n, T, iterations);
    # sim: events per job, in the order of SimulateK10.JOBS
    "full": {
        "exp": (1471, 300.0, 10), "pwl": (904, 2500.0, 20), "k50": (50, 367, 100.0, 20),
        "sim": (12000, 3000, 3000, 1500),
    },
    "tiny": {
        "exp": (60, 30.0, 3), "pwl": (60, 150.0, 3), "k50": (6, 20, 100.0, 3),
        "sim": (200, 100, 100, 50),
    },
}


def exp_recipe(horizon):
    """The paper's exponential K=10 recipe (recipe seed 0, radius 0.96)."""
    return experiments.SyntheticRecipe(kind="exp-k10", K=10, seed=0, horizon=horizon)


def pwl_recipe(horizon):
    """The paper's power-law K=10 recipe (recipe seed 0, radius 0.25)."""
    return experiments.SyntheticRecipe(
        kind="pwl-k10", K=10, family="powerlaw", beta_true=1.5,
        alpha_divisor=200.0, seed=0, horizon=horizon,
    )


def k50_recipe(K, horizon):
    """Exponential K=50 recipe, alpha divided by 75 (radius 0.66)."""
    return experiments.SyntheticRecipe(
        kind="custom", K=K, alpha_divisor=75.0, seed=0, horizon=horizon
    )


@dataclasses.dataclass
class Op:
    """One checked operation; a failed check counts against failed_frac."""

    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)


def stream_ops(label, ev, expected_n):
    """Sorted, inside [0, T], and as many events as recorded for this seed."""
    t = ev.times
    ok = bool(np.all(np.diff(t) >= 0)) and (t.size == 0 or (t[0] >= 0 and t[-1] <= ev.horizon))
    ops = [Op(f"{label}:sorted-in-window", ok, f"T={ev.horizon}")]
    if expected_n is not None:
        ops.append(Op(f"{label}:event-count", len(ev) == expected_n,
                      f"{len(ev)} events, recorded {expected_n}"))
    return ops


def window_start(times, n, T, lo, hi):
    """Start a >= lo of a window (a, a + T] inside [lo, hi] with exactly n arrivals.

    Sliding a forward, the count drops by one as a passes an arrival and
    rises by one as a + T does, so it takes every value between its extremes.
    Returns None when no such window exists.
    """
    edges = np.concatenate([times, times - T])
    steps = np.concatenate([-np.ones(times.size, int), np.ones(times.size, int)])
    order = np.argsort(edges, kind="stable")
    edges, steps = edges[order], steps[order]
    inside = (edges > lo) & (edges < hi - T)
    edges, steps = edges[inside], steps[inside]

    def count(a):
        return np.searchsorted(times, a + T, side="right") - np.searchsorted(times, a, side="right")

    counts = count(lo) + np.cumsum(steps)
    bounds = np.append(edges, hi - T)
    for k in [-1, *np.flatnonzero(counts == n)]:
        a = lo if k < 0 else 0.5 * (bounds[k] + bounds[k + 1])
        if a + T <= hi and count(a) == n:
            return a
    return None


def block_stream(instance, n, T, seed):
    """(raw sample, block starts, n events on [0, T]) for the recipe and seed.

    The stream is BLOCKS consecutive blocks of length T / BLOCKS.  Block i is
    the first window of the sample after block i - 1 that holds its share of
    the n events, shifted into place.  The sample's horizon starts at 2T and
    doubles until every block fits.
    """
    L = T / BLOCKS
    sizes = [n // BLOCKS + (i < n % BLOCKS) for i in range(BLOCKS)]
    horizon = 2.0 * T
    while horizon < 2.0**12 * T:
        raw = simulate.simulate_cluster(
            instance.spec, instance.params, horizon, simulate.SimConfig(seed=seed)
        )
        starts = []
        for m in sizes:
            a = window_start(raw.times, m, L, starts[-1] + L if starts else 0.0, horizon)
            if a is None:
                break
            starts.append(a)
        else:
            keep = [(raw.times > a) & (raw.times <= a + L) for a in starts]
            times = np.concatenate(
                [raw.times[k] - a + i * L for i, (a, k) in enumerate(zip(starts, keep))]
            )
            types = np.concatenate([raw.types[k] for k in keep])
            return raw, starts, simulate.EventSequence(times, types, T)
        horizon *= 2.0
    raise ValueError(f"no {BLOCKS} blocks of {n} events in length {T} for seed {seed}")


def fit_config(instance, horizon):
    """Config document for ``hawkes-mle fit`` with the recipe's hyperparameters."""
    spec, dom, init = instance.spec, instance.domain, instance.init
    opt = dataclasses.asdict(instance.hp)
    del opt["allow_noncompliant"]
    return {
        "model": {"K": spec.K, "M": spec.M, "kernels": io.kernels_to_json(spec.kernels)},
        "domain": {k: getattr(dom, k).tolist()
                   for k in ("mu_lb", "mu_ub", "alpha_lb", "alpha_ub", "beta_lb", "beta_ub")},
        "init": {"mu": init.mu.tolist(), "alpha": init.alpha.tolist(),
                 "beta": init.beta.tolist()},
        "regularization": {"C": instance.reg_c},
        "optimizer": opt,
        "horizon": horizon,
    }


def fit_output_ops(label, instance, events, params_path, trace_path, iters, reference):
    """Box, recomputed objective, recorded objective, and trace/meta agreement."""
    spec, params, objective, meta = io.read_params(params_path)
    flat = instance.spec.index_map.pack(params)
    ops = [Op(f"{label}:params-in-box", bool(instance.domain.contains(flat)))]
    fresh = likelihood.LikelihoodProblem(
        instance.spec, events, instance.domain, reg_c=instance.reg_c
    )
    again = likelihood.regularized_objective(fresh, params)
    ops.append(Op(f"{label}:objective-recomputed",
                  objective is not None and math.isclose(objective, again, rel_tol=RECOMPUTE_RTOL),
                  f"written {objective!r}, recomputed {again!r}"))
    if reference is not None:
        ops.append(Op(f"{label}:objective-vs-reference",
                      objective is not None
                      and math.isclose(objective, reference, rel_tol=REFERENCE_RTOL),
                      f"written {objective!r}, recorded {reference!r}"))
    rows = io.read_trace(trace_path)
    kinds = [r["step_kind"] for r in rows]
    ops.append(Op(f"{label}:trace-rows", len(rows) == iters and meta.get("iterations") == iters,
                  f"{len(rows)} rows for {iters} iterations"))
    ops.append(Op(f"{label}:trace-vs-meta",
                  kinds.count("AA-accepted") == meta.get("accepted_aa")
                  and kinds.count("AA-rejected") == meta.get("rejected_aa"),
                  f"trace {kinds.count('AA-accepted')}/{kinds.count('AA-rejected')}, "
                  f"meta {meta.get('accepted_aa')}/{meta.get('rejected_aa')}"))
    return ops


class Workload:
    """A named job list over inputs made by ``setup``; subclasses fill it in."""

    name = ""

    def __init__(self, scale, seed, reference):
        self.size = SCALES[scale]
        self.seed = seed
        self.reference = reference  # recorded values for this seed, or None

    def recorded(self, *keys):
        value = self.reference
        for k in keys:
            if value is None:
                return None
            value = value.get(k)
        return value

    def setup(self, workdir):
        """Generate the inputs into ``workdir``; returns the stamp (n, K, P, T)."""
        raise NotImplementedError

    def jobs(self):
        """[(job name, callable returning the job's output)] for one round."""
        raise NotImplementedError

    def check(self, job, output):
        """Ops checking one job's output."""
        raise NotImplementedError

    def record(self, outputs):
        """Values to store as this seed's reference (see record_reference.py)."""
        raise NotImplementedError

    def problem(self):
        """The likelihood problem of the workload's stream, or None."""
        return None


class _FitWorkload(Workload):
    def make_instance(self):
        raise NotImplementedError

    def setup(self, workdir):
        self.workdir = workdir
        self.instance = self.make_instance()
        raw, starts, self.events = block_stream(self.instance, self.n, self.T, self.seed)
        self.setup_ops = stream_ops("setup-stream", raw, self.recorded("simulated_events"))
        self.simulated = len(raw)
        self.events_path = os.path.join(workdir, "events.csv")
        io.write_events(self.events_path, self.events)
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as f:
            json.dump(fit_config(self.instance, self.events.horizon), f)
        return {
            "n": len(self.events), "K": self.instance.spec.K,
            "P": self.instance.spec.index_map.dim, "T": self.events.horizon,
            "block_starts": starts, "n_simulated": self.simulated,
            "T_simulated": raw.horizon,
            "radius": self.instance.radius,
        }

    def paths(self, job):
        return (os.path.join(self.workdir, f"params-{job}.json"),
                os.path.join(self.workdir, f"trace-{job}.csv"))

    def cli_fit(self, algo):
        params_path, trace_path = self.paths(algo)
        argv = ["fit", "--events", self.events_path, "--config", self.config_path,
                "--algo", algo, "--iters", str(self.iters), "--out", params_path,
                "--trace", trace_path, "--allow-noncompliant-hp"]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.main(argv)

    def check(self, job, rc):
        if rc != 0:
            return [Op(f"{job}:exit-code", False, f"exit code {rc}")]
        params_path, trace_path = self.paths(job)
        return [Op(f"{job}:exit-code", True)] + fit_output_ops(
            job, self.instance, self.events, params_path, trace_path, self.iters,
            self.recorded("objectives", job),
        )

    def record(self, outputs):
        objectives = {}
        for job in outputs:
            _, _, objective, _ = io.read_params(self.paths(job)[0])
            objectives[job] = objective
        return {"simulated_events": self.simulated, "objectives": objectives}

    def problem(self):
        return likelihood.LikelihoodProblem(
            self.instance.spec, self.events, self.instance.domain, reg_c=self.instance.reg_c
        )

    def start_point(self):
        return self.instance.spec.index_map.pack(self.instance.init)


class FitExpK10(_FitWorkload):
    """Three CLI fits (palm, ipalm, aa-ipalm) on the exponential K=10 recipe."""

    name = "fit-exp-k10"

    def __init__(self, scale, seed, reference):
        super().__init__(scale, seed, reference)
        self.n, self.T, self.iters = self.size["exp"]

    def make_instance(self):
        return experiments.generate_instance(exp_recipe(self.T))

    def jobs(self):
        return [(algo, lambda a=algo: self.cli_fit(a)) for algo in experiments.ALGORITHMS]


class AaK50(_FitWorkload):
    """One CLI aa-ipalm fit at K=50, where the dense 2P x 2P H dominates."""

    name = "aa-k50"

    def __init__(self, scale, seed, reference):
        super().__init__(scale, seed, reference)
        self.K, self.n, self.T, self.iters = self.size["k50"]

    def make_instance(self):
        return experiments.generate_instance(k50_recipe(self.K, self.T))

    def jobs(self):
        return [("aa-ipalm", lambda: self.cli_fit("aa-ipalm"))]


class FitPwlK10(_FitWorkload):
    """``experiments.fit_stream`` (the library quick-start path) on power-law K=10."""

    name = "fit-pwl-k10"

    def __init__(self, scale, seed, reference):
        super().__init__(scale, seed, reference)
        self.n, self.T, self.iters = self.size["pwl"]

    def make_instance(self):
        return experiments.generate_instance(pwl_recipe(self.T))

    def fit(self):
        params_path, trace_path = self.paths("fit_stream")
        events = io.read_events(self.events_path, horizon=self.events.horizon)
        inst = self.instance
        problem = likelihood.LikelihoodProblem(inst.spec, events, inst.domain, reg_c=inst.reg_c)
        res = experiments.fit_stream(problem, iters=self.iters)
        meta = {"iterations": len(res.trace), "accepted_aa": res.accepted_aa,
                "rejected_aa": res.rejected_aa}
        io.write_params(params_path, inst.spec, res.params,
                        objective=res.final_objective, meta=meta)
        io.write_trace(trace_path, res.trace)
        return 0

    def jobs(self):
        return [("fit_stream", self.fit)]


class SimulateK10(Workload):
    """Both samplers on the exponential and power-law K=10 recipes.

    Each job draws streams with seeds derived from the workload seed until it
    has at least a fixed number of events, so a run's work does not follow
    the seed's luck (one exponential stream at T=300 holds 500 to 3,400).
    """

    name = "simulate-k10"
    # (job, recipe, sampler, stream horizon).  Streams are short so that the
    # last one overshoots the target by little, and so that thinning's
    # history scan, quadratic in a stream's size, does not let one large
    # stream of a lucky seed set the time.
    JOBS = (
        ("cluster-exp", "exp", "cluster", 100.0),
        ("cluster-pwl", "pwl", "cluster", 500.0),
        ("thinning-exp", "exp", "thinning", 50.0),
        ("thinning-pwl", "pwl", "thinning", 500.0),
    )

    def setup(self, workdir):
        self.instances = {
            "exp": experiments.generate_instance(exp_recipe(300.0)),
            "pwl": experiments.generate_instance(pwl_recipe(2500.0)),
        }
        self.targets = dict(zip((j[0] for j in self.JOBS), self.size["sim"]))
        self.setup_ops = []
        return {"K": 10, "P": self.instances["exp"].spec.index_map.dim,
                "T": {job: T for job, _, _, T in self.JOBS},
                "target_events": self.targets}

    def sample(self, job, recipe, method, horizon):
        inst = self.instances[recipe]
        sampler = simulate.simulate_cluster if method == "cluster" else simulate.simulate_thinning
        streams, total, j = [], 0, 0
        while total < self.targets[job]:
            sub_seed = self.seed * 1000 + j
            ev = sampler(inst.spec, inst.params, horizon, simulate.SimConfig(seed=sub_seed))
            streams.append(ev)
            total += len(ev)
            j += 1
        return streams

    def jobs(self):
        return [(args[0], lambda a=args: self.sample(*a)) for args in self.JOBS]

    def check(self, job, streams):
        counts = self.recorded("stream_events", job)
        ops = []
        if counts is not None:
            ops.append(Op(f"{job}:stream-count", len(counts) == len(streams),
                          f"{len(streams)} streams, recorded {len(counts)}"))
        for i, ev in enumerate(streams):
            n = counts[i] if counts is not None and i < len(counts) else None
            ops += stream_ops(f"{job}[{i}]", ev, n)
        return ops

    def record(self, outputs):
        return {"stream_events": {job: [len(ev) for ev in streams]
                                  for job, streams in outputs.items()}}


WORKLOADS = {w.name: w for w in (FitExpK10, FitPwlK10, AaK50, SimulateK10)}
