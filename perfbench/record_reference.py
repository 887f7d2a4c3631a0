#!/usr/bin/env python3
"""Record the outputs that each workload's checks compare a run against.

    python3 perfbench/record_reference.py --scale full --seeds 0-63
    python3 perfbench/record_reference.py --scale tiny --seeds 0-3 --workload aa-k50

For every workload and seed this runs the set-up and one round of jobs on the
package as it stands, checks the outputs that need no reference, and stores
the simulated event counts and the written objectives in
``perfbench/reference.json`` (merged into what is there).  Record on the
commit the benchmark is defined on; a later commit is then checked against
it.  Seeds with no entry skip the reference checks and say so in the stamp.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import warnings

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def dumps(reference):
    """JSON with one line per seed, so re-recording a seed changes one line."""
    scales = []
    for scale, table in sorted(reference.items()):
        names = []
        for name, seeds in sorted(table.items()):
            rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(seeds[seed], sort_keys=True)}"
                              for seed in sorted(seeds, key=int))
            names.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
        scales.append(f" {json.dumps(scale)}: {{\n" + ",\n".join(names) + "\n }")
    return "{\n" + ",\n".join(scales) + "\n}\n"


def main(argv=None):
    run.import_package()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--seeds", type=parse_seeds, default=[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    warnings.filterwarnings("ignore", category=UserWarning, module=r"hawkes_mle\.")

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    table = reference.setdefault(args.scale, {})
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="record-", dir=run.WORK)
            try:
                wl = WORKLOADS[name](args.scale, seed, None)
                wl.setup(workdir)
                outputs = {job: fn() for job, fn in wl.jobs()}
                ops = list(wl.setup_ops)
                for job, out in outputs.items():
                    ops.extend(wl.check(job, out))
                bad = [op for op in ops if not op.ok]
                if bad:
                    sys.exit(f"{name} seed {seed}: check failed: {bad[0].name}: {bad[0].detail}")
                table.setdefault(name, {})[str(seed)] = wl.record(outputs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: recorded", flush=True)
        path.write_text(dumps(reference))


if __name__ == "__main__":
    main()
