#!/usr/bin/env python3
"""One-shot reference probe: the large "before" figures, outside the workloads.

    python3 perfbench/probe.py --out perfbench/results/reference_probe.json

Each item runs in its own child process, so its peak RSS is its own:

- ``k10-objective-and-grad``: one ``objective_and_grad_flat`` on the
  exponential K=10 recipe's stream at T=1000 (stream seed 0, n about 8,300),
  with the problem build timed apart.  The dense n x n pair matrices need
  about 3 GB; run it on a machine with that much free memory.
- ``k5-aa-500``: 500 AA-iPALM iterations on the K=5 acceptance stream
  (``gen_synthetic_exponential(seed=0, K=5)``, stream seed 0).
- ``k5-passes``: likelihood passes per iteration of iPALM and AA-iPALM on the
  same stream, counted by the tracer over 100 iterations each.

Too large for the repeated workloads; run it once per commit to compare.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time

import run

ITEMS = ("k10-objective-and-grad", "k5-aa-500", "k5-passes")


def _stream(K, horizon):
    from hawkes_mle import experiments, likelihood, simulate

    inst = experiments.gen_synthetic_exponential(0, K=K, horizon=horizon)
    ev = simulate.simulate_cluster(inst.spec, inst.params, horizon, simulate.SimConfig(seed=0))
    return inst, ev, likelihood.LikelihoodProblem(inst.spec, ev, inst.domain, reg_c=inst.reg_c)


def item(name):
    from hawkes_mle import optim

    if name == "k10-objective-and-grad":
        t0 = time.perf_counter()
        inst, ev, prob = _stream(10, 1000.0)
        build_s = time.perf_counter() - t0
        flat = inst.spec.index_map.pack(inst.init)
        t0 = time.perf_counter()
        prob.objective_and_grad_flat(flat)
        return {"n": len(ev), "K": 10, "T": 1000.0, "generate_and_build_s": build_s,
                "objective_and_grad_s": time.perf_counter() - t0}
    inst, ev, prob = _stream(5, 1000.0)
    if name == "k5-aa-500":
        t0 = time.perf_counter()
        res = optim.run_aa_ipalm(prob, inst.hp, inst.init)
        return {"n": len(ev), "K": 5, "iterations": len(res.trace),
                "aa_ipalm_s": time.perf_counter() - t0,
                "accepted_aa": res.accepted_aa, "rejected_aa": res.rejected_aa}
    from tracing import EVAL_NAMES, LAYER, NAME, Tracer

    hp = dataclasses.replace(inst.hp, max_iters=100)
    out = {"n": len(ev), "K": 5, "iterations": hp.max_iters}
    for algo, runner in (("ipalm", optim.run_ipalm), ("aa_ipalm", optim.run_aa_ipalm)):
        tr = Tracer()
        with tr.installed():
            runner(prob, hp, inst.init)
        passes = sum(1 for s in tr.spans if s[LAYER] == "likelihood" and s[NAME] in EVAL_NAMES)
        out[f"passes_per_iter.{algo}"] = passes / hp.max_iters
    return out


def main(argv=None):
    run.import_package()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--item", choices=ITEMS)
    p.add_argument("--out", default=str(run.HERE / "results" / "reference_probe.json"))
    args = p.parse_args(argv)
    import warnings

    warnings.filterwarnings("ignore", category=UserWarning, module=r"hawkes_mle\.")
    nproc = len(os.sched_getaffinity(0))
    blas_threads = run.cap_blas_threads(nproc)
    if args.item:
        result = item(args.item)
        result["peak_rss_mb"] = run.peak_rss_mb()
        print(json.dumps(result))
        return 0
    results = {}
    for name in ITEMS:
        child = subprocess.run([sys.executable, __file__, "--item", name],
                               capture_output=True, text=True, check=True)
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
        print(name, results[name], flush=True)
    doc = {"machine": run.machine_stamp(nproc, blas_threads), "items": results}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
