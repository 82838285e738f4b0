"""End-to-end leave-one-dataset-out benchmark on a synthetic multi-scale corpus.

Four datasets whose channel magnitudes span 3.5 decades, with level shifts and
noise.  For every (scheme, withheld dataset) pair a point-MSE forecaster is
pretrained on the remaining datasets and scored zero-shot (ZS) on the withheld
one and in-domain (ID) on the training datasets' held-out test rows.  MASE is
scale-free, so scores are comparable across schemes and scales.

Runs in well under a minute; the CLI equivalent is
`tsnorm run --plan <plan.json> --out <dir>` followed by `tsnorm report`.
"""

from tsnorm import (
    ExperimentPlan,
    Scheme,
    SyntheticSpec,
    generate_synthetic,
    run_plan,
)
from tsnorm.harness import AVERAGE_ID

spec = SyntheticSpec(seed=11)
datasets = {d.name: d for d in generate_synthetic(spec)}
print("corpus (train rows | channel std):")
for name, d in datasets.items():
    print(f"  {name}: {d.split_index:5d} | {d.values.std(axis=0).round(5)}")

plan = ExperimentPlan.from_dict(
    {
        "schemes": [s.value for s in Scheme],
        "models": ["point_mse"],
        "context_len": 96,
        "withheld": ["synth0", "synth1", "synth2"],
        "steps": 5000,
        "lr": 6e-4,
        "seed": 7,
    },
    list(datasets.values()),
)
print(f"\nrunning {len(plan.variants())} pretraining variants ...")
result = run_plan(plan, datasets)

methods = [s.value for s in Scheme]
print(f"\n{'':14s}" + "".join(f"{m:>17s}" for m in methods))
for setting in ("zs", "id"):
    cells = []
    for m in methods:
        # mean +- std over the three leave-one-dataset-out variants
        mean, std = result.report.aggregates[("point_mse", m, setting)]
        cells.append(f"{mean:7.2f} ± {std:5.2f}")
    print(f"{setting.upper():14s}" + "".join(f"{c:>17s}" for c in cells))

raw_zs = result.report.aggregates[(AVERAGE_ID, "raw", "zs")][0]
revin_zs = result.report.aggregates[(AVERAGE_ID, "revin", "zs")][0]
delta = result.report.improvements[("zs", "raw", "revin")]
print(f"\nzero-shot MASE: no normalization {raw_zs:.2f} vs window "
      f"standardization {revin_zs:.2f} -> {delta:.0f}% improvement")
print("mean/std-based schemes (revin, hybrid, standardization) land within a")
print("few percent of each other; range- and magnitude-based scaling trails;")
print("training on raw values transfers worst across scales")
