"""Tour of the six normalization methods and their two scopes.

Every method is a channel-wise affine transform x_norm = (x - shift) / scale.
What differs is the statistic family (mean/std, min/range, max-abs, mean-abs)
and where the statistics come from: the whole training split of a dataset, or
a single look-back window.
"""

import numpy as np

from tsnorm import (
    Dataset,
    Method,
    denormalize,
    fit_dataset_stats,
    fit_inference_stats,
    normalize,
    raw_stats,
)

rng = np.random.default_rng(0)

# a toy two-channel series: channel 0 is small, channel 1 is 1000x larger
t = np.arange(300, dtype=float)
values = np.column_stack([
    2.0 + np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, t.size),
    1e3 * (5.0 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.2, t.size)),
])
d = Dataset("demo", values, frequency="1h", seasonal_period=24, split_index=240)

print("raw channel means:", d.train_values.mean(axis=0).round(2))
print("raw channel stds: ", d.train_values.std(axis=0).round(2))

# --- dataset-level: statistics fitted once on the train rows -----------------
print("\ndataset-level methods (fitted on train rows only):")
for method in (Method.STANDARDIZATION, Method.MINMAX, Method.MAXABS):
    stats = fit_dataset_stats(d, method)
    z = normalize(d.train_values, stats)
    print(f"  {method.value:16s} shift={stats.shift.round(3)} scale={stats.scale.round(3)}"
          f"  -> normalized range [{z.min():.3f}, {z.max():.3f}]")

# --- instance-level: statistics fitted per look-back window ------------------
print("\ninstance-level methods (fitted on a single 96-step window):")
window = d.values[100:196]
for method in (Method.REVIN, Method.MEANABS):
    stats = fit_inference_stats(window, method)
    z = normalize(window, stats)
    print(f"  {method.value:16s} shift={stats.shift.round(3)} scale={stats.scale.round(3)}"
          f"  -> window mean {z.mean(axis=0).round(6)} std {z.std(axis=0).round(6)}")

# --- the raw baseline is the identity transform -------------------------------
z = normalize(window, raw_stats(d.channels))
print("\nraw baseline leaves values untouched:", bool((z == window).all()))

# --- every transform is exactly invertible ------------------------------------
stats = fit_dataset_stats(d, Method.STANDARDIZATION)
back = denormalize(normalize(d.values, stats), stats)
print("round-trip max relative error:", f"{np.abs((back - d.values) / d.values).max():.2e}")

# --- at inference, dataset statistics are replaced by context statistics ------
# (a deployed model only ever sees the input window, so e.g. MinMax uses the
#  window min/range instead of the corpus min/range)
ctx = d.test_values[:96]
for method in (Method.STANDARDIZATION, Method.MINMAX, Method.MAXABS):
    stats = fit_inference_stats(ctx, method)
    print(f"inference-time {method.value}: shift={stats.shift.round(3)} "
          f"scale={stats.scale.round(3)} (from the context window alone)")
