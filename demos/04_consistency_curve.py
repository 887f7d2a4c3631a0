"""Parameter error versus observation horizon: consistency at desk scale.

The regularized MLE converges to the truth as the horizon grows; here the
median relative error over a few streams per horizon illustrates the trend;
``io.write_report`` writes the per-stream errors and the manifest.
"""

from hawkes_mle import SyntheticRecipe, run_consistency_study
from hawkes_mle.io import write_report

recipe = SyntheticRecipe(
    kind="custom",
    K=2,
    family="exponential",
    beta_true=1.0,
    alpha_low=0.05,
    alpha_high=0.3,
    alpha_divisor=1.0,
    mu_low=0.04,
    mu_high=0.12,
    mu_divisor=1.0,
    reg_c=0.0,
    seed=7,
)

report = run_consistency_study(
    recipe, T_grid=[200.0, 500.0, 2000.0], seeds_per_T=5, iters=300
)
print("median relative parameter error by horizon:")
for T, med in sorted(report.medians.items()):
    print(f"  T = {T:6g}: {med:.4f}")

write_report("consistency_report", report)
print("wrote consistency_report/consistency.csv and manifest.json")
