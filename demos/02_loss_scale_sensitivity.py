"""Why the three loss families react differently to input magnitude.

* Gaussian NLL on a de-normalized distribution: the window scale enters the
  loss only as an additive log term, so parameter gradients are identical for
  any positive rescaling of the instance.
* Token cross-entropy: values are quantized after instance scaling, so the
  loss never sees magnitudes at all - token ids, losses, and gradients are
  bitwise identical across rescalings.
* MSE/MAE on raw values: gradients grow with channel magnitude, so one large
  channel dominates the update.  Window standardization removes the bias.
"""

import numpy as np

from tsnorm import Dataset, InstanceBatch, LinearForecaster, LossKind, Scheme, train

rng = np.random.default_rng(1)
t = np.arange(40)
base = np.column_stack([
    np.sin(2 * np.pi * t / 8) + 2.0 + rng.normal(0, 0.1, 40),
    np.cos(2 * np.pi * t / 8) + 1.5 + rng.normal(0, 0.1, 40),
])


def one_window(values):
    """A batch of one window, its first 32 rows the context: the rows of a small dataset."""
    d = Dataset("demo", values, frequency="1h", seasonal_period=1, split_index=len(values) - 1)
    return InstanceBatch([(d, [0])], 32, len(values) - 32)


# --- Gaussian NLL: gradients invariant, loss shifted by log c -----------------
print("Gaussian NLL under window standardization (RevIN):")
model = LinearForecaster.create(LossKind.GAUSSIAN_NLL, 32, 8, seed=2)
ref, ref_trace = train(model, one_window(base), Scheme.REVIN, steps=20, lr=0.05, seed=0)
for c in (1e-3, 1e3):
    m, tr = train(model, one_window(c * base), Scheme.REVIN, steps=20, lr=0.05, seed=0)
    print(f"  c={c:7.0e}  max weight deviation {np.abs(m.weights - ref.weights).max():.2e}"
          f"  loss offset {np.mean(tr.losses - ref_trace.losses):+.6f}"
          f"  (log c = {np.log(c):+.6f})")

# --- token cross-entropy: bitwise identical ------------------------------------
print("\ntoken cross-entropy under mean-abs scaling:")
model = LinearForecaster.create(LossKind.TOKEN_CE, 32, 8, seed=3)
ref, ref_trace = train(model, one_window(base), Scheme.MEANABS, steps=20, lr=0.1, seed=0)
for c in (1e-3, 1e3):
    m, tr = train(model, one_window(c * base), Scheme.MEANABS, steps=20, lr=0.1, seed=0)
    print(f"  c={c:7.0e}  losses bitwise equal: {bool((tr.losses == ref_trace.losses).all())}"
          f"  weights bitwise equal: {bool((m.token_weights == ref.token_weights).all())}")

# --- MSE/MAE: the magnitude bias, and its removal ------------------------------
print("\nper-channel gradient norms, channel 1 = 1000 x channel 0:")
ch = np.sin(2 * np.pi * t / 8) + rng.normal(0, 0.1, 40) + 2.0
series = np.column_stack([ch, 1e3 * ch])
inst = one_window(series)
for kind in (LossKind.MSE, LossKind.MAE):
    for scheme in (Scheme.RAW, Scheme.REVIN):
        model = LinearForecaster.create(kind, 32, 8, seed=4)
        _, trace = train(model, inst, scheme, steps=1, lr=0.0, seed=0)
        g = trace.grad_norms[0]
        print(f"  {kind.value:10s} {scheme.value:6s} ratio big/small = {g[1] / g[0]:10.3g}")
print("(raw MSE is biased by the squared magnitude, raw MAE by the magnitude;")
print(" window standardization brings both ratios to 1)")
