"""Desk-scale replica of the algorithm comparison: log regret per iteration.

Builds a K=5 exponential instance with the standard recipe (alpha uniform
then /11, mu uniform then /2, C=1, step sizes 1e-7, momentum 0.9), runs 500
iterations of each algorithm on 3 seeds, and writes the regret CSVs and the
manifest with ``io.write_report``.
"""

import numpy as np

from hawkes_mle import gen_synthetic_exponential, run_benchmark
from hawkes_mle.io import write_report

instance = gen_synthetic_exponential(seed=0, K=5)
print(
    f"instance: K={instance.spec.K}, stationarity radius {instance.radius:.3f}, "
    f"horizon {instance.horizon}"
)

report = run_benchmark(instance, iters=500, seeds=(0, 1, 2))
for algo in report.algorithms:
    finals = report.final_objectives(algo)
    print(f"{algo:9s}: final objectives {np.round(finals, 1)}")

outdir = "benchmark_report"
write_report(outdir, report)
print(f"wrote {outdir}/regret_iter.csv, regret_time.csv, manifest.json")

# quick look at the regret trajectories (iteration 0, 100, ..., 500) of seed 0
for algo in report.algorithms:
    reg = report.regrets[(algo, 0)]
    picks = reg[::100]
    print(f"{algo:9s} log-regret at iters 0..500: {np.round(picks, 2)}")
