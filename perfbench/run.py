#!/usr/bin/env python3
"""hawkes-mle benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload fit-exp-k10 --seed 0 --seconds 25 --trace 0

``--trace 0`` times whole rounds of the workload's jobs with no tracing and
prints the end-to-end metrics.  ``--trace 1`` replays the same jobs once with
every call into the package wrapped in a span (see tracing.py), next to
untraced rounds, and prints the per-layer metrics.  Every job's output is
checked; each check is one attempted operation and a failed check one failed
operation.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
machine and input stamp, which is also written with the spans and the checks
to ``perfbench/.work/records/``.  ``--scale tiny`` shrinks every input for
the smoke test.  Run from anywhere; the package is imported from ``src/``
next to this directory, and the run fails without a result if it is absent.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# Set-up repeats before each round: until SETUP_SLOT_S have been spent (at
# most SETUP_MAX), so a set-up of a few ms still gets a steady median.
SETUP_MAX, SETUP_SLOT_S = 50, 0.1
MIN_ROUNDS = 3
PROBE_CALLS = 40  # per likelihood call kind: p75 then has 10 samples beyond it
PROBE_PCT = 75

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

ALGOS = ("palm", "ipalm", "aa_ipalm")
LIK_CALLS = ("build", "objective", "grad_mu_alpha", "grad_beta", "objective_and_grad")
PER_LAYER = {
    **{f"likelihood.{c}_s.{p}": "s" for c in LIK_CALLS for p in ("p50", f"p{PROBE_PCT}")},
    "likelihood.build_rss_mb": "MB",
    **{f"likelihood.passes_per_iter.{a}": "passes/iter" for a in ALGOS},
    **{f"likelihood.calls.{c}": "count" for c in
       ("objective", "grad_mu_alpha", "grad_beta", "grad_full", "objective_and_grad")},
    **{f"likelihood.share.{a}": "ratio" for a in ALGOS},
    "likelihood.self_s": "s",
    **{f"optim.self_s_per_iter.{a}": "s" for a in ALGOS},
    "optim.ipalm_map_s": "s",
    "optim.aa_accept_ratio": "ratio",
    "optim.lipschitz_s": "s",
    "optim.lipschitz_grad_calls": "count",
    "optim.self_s": "s",
    "simulate.cluster_s": "s",
    "simulate.thinning_s": "s",
    "simulate.cluster_events_per_s": "events/s",
    "simulate.thinning_events_per_s": "events/s",
    "simulate.self_s": "s",
    **{f"model.kernel_{f}_pairs_per_s.{k}": "pairs/s" for f in ("value", "dbeta")
       for k in ("exp", "pwl")},
    "experiments.generate_instance_s": "s",
    "experiments.fit_stream_s": "s",
    "experiments.self_s": "s",
    "io.config_load_s": "s",
    "io.read_events_s": "s",
    "io.write_params_s": "s",
    "io.write_trace_s": "s",
    "io.write_events_s": "s",
    "io.self_s": "s",
    **{f"cli.fit_s.{a}": "s" for a in ALGOS},
    "cli.fit_other_s": "s",
    "trace.round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class MissingPackage(RuntimeError):
    pass


def import_package():
    src = ROOT / "src"
    if not (src / "hawkes_mle" / "__init__.py").is_file():
        raise MissingPackage(f"no hawkes_mle package under {src}")
    sys.path.insert(0, str(src))
    import hawkes_mle

    if Path(hawkes_mle.__file__).resolve().parent != src / "hawkes_mle":
        raise MissingPackage(f"hawkes_mle imported from {hawkes_mle.__file__}, not {src}")


# -- stamp ---------------------------------------------------------------------


def _openblas(symbol_suffix):
    """The loaded OpenBLAS function ``*openblas*<suffix>``, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, prefix + symbol_suffix + suffix, None)
                if fn is not None:
                    return fn
    return None


def cap_blas_threads(nproc):
    """Cap OpenBLAS threads at the CPUs this process may use; returns the count."""
    get = _openblas("get_num_threads")
    if get is None:
        return None
    get.restype = ctypes.c_int
    if get() > nproc:
        setter = _openblas("set_num_threads")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter(nproc)
    return int(get())


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine_stamp(nproc, blas_threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


# -- measuring -----------------------------------------------------------------


def rss_mb():
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, ops, tracer=None):
    """All jobs once; returns (round seconds, {job: seconds}, {job: output})."""
    from workloads import Op

    times, outputs = {}, {}
    t_round = time.perf_counter()
    for job, fn in wl.jobs():
        if tracer is not None:
            tracer.job = job
        t0 = time.perf_counter()
        try:
            outputs[job] = fn()
        except Exception as exc:  # a failing job is a failed op, not a crash
            outputs[job] = exc
        times[job] = time.perf_counter() - t0
    wall = time.perf_counter() - t_round
    for job, out in outputs.items():
        if isinstance(out, Exception):
            ops.append(Op(f"{job}:ran", False, f"{type(out).__name__}: {out}"))
        else:
            try:
                ops.extend(wl.check(job, out))
            except Exception as exc:
                ops.append(Op(f"{job}:check", False, f"{type(exc).__name__}: {exc}"))
    return wall, times, outputs


def make_workload(args, reference, workdir, ops, label):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.scale, args.seed, reference)
    d = tempfile.mkdtemp(prefix=label + "-", dir=workdir)
    t0 = time.perf_counter()
    stamp = wl.setup(d)
    seconds = time.perf_counter() - t0
    wl.workdir_path = d
    ops.extend(wl.setup_ops)
    return wl, stamp, seconds


def timed_run(args, reference, workdir, ops):
    """Cycles of set-ups then one round, until ``args.seconds`` have passed.

    Set-ups are spread over the run like the rounds, so both medians average
    over the same stretch of the host's speed, which drifts by tens of percent
    over seconds on shared machines.  A cycle repeats its set-up until
    SETUP_SLOT_S have passed (at most SETUP_MAX times); the round uses the
    last one's inputs, which the seed fixes, and only those are checked.
    The first cycle is a warm-up: it is checked but not timed, because it
    pays one-off costs (lazy imports, first page faults of large arrays).
    """
    gc.collect()
    gc.freeze()  # the package and the stamp stay out of every later collection
    setups, rounds, per_job = [], [], {}
    wl = None
    warm_up = True
    t_start = time.perf_counter()
    while True:
        spent, n = 0.0, 0
        while n == 0 or (spent < SETUP_SLOT_S and n < SETUP_MAX):
            if wl is not None:
                shutil.rmtree(wl.workdir_path, ignore_errors=True)
            wl, stamp, seconds = make_workload(args, reference, workdir, [], f"setup{len(setups)}")
            setups.append(seconds)
            spent += seconds
            n += 1
        ops.extend(wl.setup_ops)
        gc.collect()  # each round starts with no garbage left by the last
        wall, times, _ = run_round(wl, ops)
        if warm_up:
            warm_up = False
            setups.clear()
            t_start = time.perf_counter()
            continue
        rounds.append(wall)
        for job, t in times.items():
            per_job.setdefault(job, []).append(t)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= MIN_ROUNDS and elapsed + wall + spent > args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"setup_s": setups, "rounds_s": rounds, "jobs_s": per_job}
    return metrics, stamp, detail


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def likelihood_probe(wl, calls):
    """Per-call timings of each likelihood entry point on the workload's stream."""
    out = {f"likelihood.{c}_s.{p}": 0.0 for c in LIK_CALLS for p in ("p50", f"p{PROBE_PCT}")}
    out["likelihood.build_rss_mb"] = 0.0
    problem = wl.problem()
    if problem is None:
        return out
    flat = wl.start_point()
    fns = {
        "build": wl.problem,
        "objective": lambda: problem.objective_flat(flat),
        "grad_mu_alpha": lambda: problem.grad_flat(flat, mu_alpha=True, beta=False),
        "grad_beta": lambda: problem.grad_flat(flat, mu_alpha=False, beta=True),
        "objective_and_grad": lambda: problem.objective_and_grad_flat(flat),
    }
    for name, fn in fns.items():
        samples = []
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        out[f"likelihood.{name}_s.p50"] = _pct(samples, 50)
        out[f"likelihood.{name}_s.p{PROBE_PCT}"] = _pct(samples, PROBE_PCT)
    del problem
    gc.collect()
    before = rss_mb()
    held = wl.problem()
    out["likelihood.build_rss_mb"] = rss_mb() - before
    del held
    return out


def kernel_probe(size, reps=5):
    """Kernel value and beta-derivative evaluations per second on elapsed times."""
    import numpy as np

    from hawkes_mle.model import Exponential, PowerLawCutoff

    dt = np.random.default_rng(0).exponential(2.0, size)
    out = {}
    for tag, kern, beta in (("exp", Exponential(), 0.5), ("pwl", PowerLawCutoff(0.05), 1.5)):
        for fname in ("value", "dbeta"):
            fn = getattr(kern, fname)
            samples = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn(dt, beta)
                samples.append(time.perf_counter() - t0)
            out[f"model.kernel_{fname}_pairs_per_s.{tag}"] = size / statistics.median(samples)
    return out


def span_metrics(tr):
    """Per-layer counts and times from one traced set-up plus one traced round."""
    from tracing import END, EVAL_NAMES, INFO, LAYER, NAME, START

    spans = tr.spans

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(layer, name):
        return sum(dur(i) for i in tr.find(layer, name))

    def lik_under(idx):
        found = [j for i in idx for j in tr.descendants(i)
                 if spans[j][LAYER] == "likelihood" and spans[j][NAME] in EVAL_NAMES]
        return len(found), sum(dur(j) for j in found)

    m = {}
    for a in ALGOS:
        runs = tr.find("optim", "run_" + a)
        iters = sum(spans[i][INFO]["iterations"] for i in runs)
        seconds = sum(dur(i) for i in runs)
        passes, lik_s = lik_under(runs)
        m[f"likelihood.passes_per_iter.{a}"] = passes / iters if iters else 0.0
        m[f"likelihood.share.{a}"] = lik_s / seconds if seconds else 0.0
        m[f"optim.self_s_per_iter.{a}"] = (seconds - lik_s) / iters if iters else 0.0
    for name in EVAL_NAMES:
        m[f"likelihood.calls.{name}"] = len(tr.find("likelihood", name))
    maps = [tr.self_seconds(i) for i in tr.find("optim", "ipalm_map")]
    m["optim.ipalm_map_s"] = _pct(maps, 50)
    aa = [spans[i][INFO] for i in tr.find("optim", "run_aa_ipalm")]
    steps = sum(r["accepted_aa"] + r["rejected_aa"] for r in aa)
    m["optim.aa_accept_ratio"] = sum(r["accepted_aa"] for r in aa) / steps if steps else 0.0
    lip = tr.find("optim", "lipschitz")
    m["optim.lipschitz_s"] = sum(dur(i) for i in lip)
    m["optim.lipschitz_grad_calls"] = lik_under(lip)[0]
    for method in ("cluster", "thinning"):
        idx = tr.find("simulate", method)
        seconds = sum(dur(i) for i in idx)
        events = sum(spans[i][INFO] for i in idx)
        m[f"simulate.{method}_s"] = seconds
        m[f"simulate.{method}_events_per_s"] = events / seconds if seconds else 0.0
    m["experiments.generate_instance_s"] = total("experiments", "generate_instance")
    for name in ("config_load", "read_events", "write_params", "write_trace", "write_events"):
        m[f"io.{name}_s"] = total("io", name)
    m["cli.fit_other_s"] = sum(tr.self_seconds(i) for i in tr.find("cli"))
    for layer in ("likelihood", "optim", "simulate", "experiments", "io"):
        m[f"{layer}.self_s"] = sum(tr.self_seconds(i) for i in tr.find(layer))
    m["trace.spans"] = len(spans)
    return m


def traced_run(args, reference, workdir, ops):
    from tracing import Tracer

    wl, stamp, _ = make_workload(args, reference, workdir, ops, "plain")
    # The first round pays one-off costs (page faults of the first large
    # arrays); the traced round is compared with the untraced round after it.
    warm_wall, _, _ = run_round(wl, ops)
    tr = Tracer()
    with tr.installed():
        tr.job = "setup"
        wl_traced, _, _ = make_workload(args, reference, workdir, ops, "traced")
        traced_wall, _, _ = run_round(wl_traced, ops, tracer=tr)
    round_s, jobs, _ = run_round(wl, ops)
    m = span_metrics(tr)
    m["trace.round_s"] = round_s
    m["trace.traced_round_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - round_s
    for a in ALGOS:
        m[f"cli.fit_s.{a}"] = jobs.get(a.replace("_", "-"), 0.0)
    m["experiments.fit_stream_s"] = jobs.get("fit_stream", 0.0)
    m.update(likelihood_probe(wl, PROBE_CALLS))
    m.update(kernel_probe(10**6 if args.scale == "full" else 10**4))
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    detail = {"warm_up_round_s": warm_wall, "jobs_s": jobs}
    return m, stamp, detail, tr


def load_reference(scale, workload, seed):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f).get(scale, {}).get(workload, {}).get(str(seed))


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def main(argv=None):
    try:
        import_package()
    except MissingPackage as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    # The recipes use the paper's non-compliant step sizes on purpose.
    warnings.filterwarnings("ignore", category=UserWarning, module=r"hawkes_mle\.")
    reference = load_reference(args.scale, args.workload, args.seed)

    WORK.mkdir(exist_ok=True)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    ops = []
    tracer = None
    try:
        if args.trace:
            metrics, inputs, detail, tracer = traced_run(args, reference, workdir, ops)
            units = PER_LAYER
        else:
            metrics, inputs, detail = timed_run(args, reference, workdir, ops)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if not op.ok]
    stamp = {
        "machine": machine_stamp(nproc, blas_threads),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "reference_recorded": reference is not None,
    }
    tag = f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}"
    with open(records / f"{tag}.json", "w") as f:
        json.dump({"stamp": stamp, "metrics": metrics, "detail": detail,
                   "ops": [[op.name, op.ok, op.detail] for op in ops]}, f, indent=1)
        f.write("\n")
    if tracer is not None:
        tracer.write(records / f"{tag}.spans.json")
    for op in failed[:10]:
        print(f"check failed: {op.name}: {op.detail}", file=sys.stderr)
    if len(failed) > 10:
        print(f"... {len(failed) - 10} more failed checks in {records}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
