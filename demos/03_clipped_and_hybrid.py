"""Clipping and the hybrid (standardize-then-window) pipeline, as scheme placements.

Point-forecast models train directly in normalized space, which breaks down
when a context is nearly constant: the fitted scale collapses and the
normalized horizon explodes.  Under the window schemes (revin, meanabs) the
training pool discards such instances instead of letting them wreck the
gradients.  The hybrid scheme standardizes with each dataset's train
statistics and then applies window normalization during training, keeping
only the window component at inference.  Both are placements in the scheme table, not
separate transforms: the steps below are the ones the pool runs.
"""

import numpy as np

from tsnorm import (
    Dataset,
    Instance,
    LinearForecaster,
    LossKind,
    Scheme,
    fit_dataset_stats,
    fit_inference_stats,
    normalize,
    sample_instances,
    train,
)
from tsnorm.models import prepare_training_pool
from tsnorm.norm import instance_max_abs

rng = np.random.default_rng(2)

# --- clipping: near-constant plateaus followed by jumps ------------------------
levels = np.repeat([5.0, 50.0, 5.0, 50.0], 300)
plateau = Dataset("plateau", (levels + rng.normal(0, 1e-3, levels.size))[:, None],
                  frequency="1h", seasonal_period=24, split_index=960)

inside = Instance(context=plateau.values[100:196], horizon=plateau.values[196:220],
                  origin=("plateau", 100))
straddle = Instance(context=plateau.values[200:296], horizon=plateau.values[296:320],
                    origin=("plateau", 200))  # context flat, horizon crosses 5 -> 50

model = LinearForecaster.create(LossKind.MSE, 96, 24, seed=5)
for label, inst in (("inside a plateau    ", inside), ("horizon crosses jump", straddle)):
    # the whole instance is rescaled with the statistics of its context
    stats = fit_inference_stats(inst.context, Scheme.REVIN.instance_method)
    ctx, hor = normalize(inst.context, stats), normalize(inst.horizon, stats)
    max_abs = float(instance_max_abs(ctx, hor))
    _, rejected = prepare_training_pool([inst], Scheme.REVIN, model)
    print(f"{label}: max |normalized| = {max_abs:11.4g}  rejected = {rejected == 1}")

instances = sample_instances(plateau, 96, 24, 400, seed=1)
_, trace = train(model, instances, Scheme.REVIN, steps=100, lr=1e-3, seed=0)
print(f"\ntraining pool: {trace.pool_size} accepted, {trace.rejected} rejected "
      f"(rate {trace.rejection_rate:.1%}); no |normalized value| > 10 ever "
      f"reaches the trainer")

# --- hybrid: dataset standardization, then window normalization ----------------
t = np.arange(400, dtype=float)
series = np.column_stack([
    100.0 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, 400),
    0.1 + 0.02 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.002, 400),
])
d = Dataset("hybrid-demo", series, frequency="1h", seasonal_period=24, split_index=320)

ds_stats = fit_dataset_stats(d, Scheme.HYBRID.dataset_method)
window = d.values[50:146]
standardized = normalize(window, ds_stats)
window_stats = fit_inference_stats(standardized, Scheme.HYBRID.instance_method)
doubly_normalized = normalize(standardized, window_stats)
print("\nhybrid pipeline on a 96-step window:")
print("  dataset stats  shift:", ds_stats.shift.round(3), "scale:", ds_stats.scale.round(3))
print("  window stats   shift:", window_stats.shift.round(3), "scale:", window_stats.scale.round(3))
print("  output window  mean:", doubly_normalized.mean(axis=0).round(6),
      "std:", doubly_normalized.std(axis=0).round(6))
print("losses and metrics invert ONLY the window statistics; at inference the")
print("dataset step is dropped and the pipeline degrades to plain window RevIN")
