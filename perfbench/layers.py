"""Metric definitions and the derivation of per-layer metrics from spans.

A span is (id, parent id, name, start, end, attrs).  A span's self time is
its duration minus the part of its interval that its child spans cover;
children recorded in pool workers may overlap, so the covered part is the
union of their intervals.
"""

from __future__ import annotations

from collections import defaultdict

LOSS_KINDS = ("point_mse", "point_mae", "gaussian_nll", "token_ce")

# (name, unit, better, bound): what a user of `tsnorm run` sees.  Timings get
# the widest bound: on a shared 2-core host the same CPU-bound work varies by
# up to 2x over seconds, and acceptance/token fit only one full run in a run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("artifact_mb", "MB", "lower", 0.05),
]

# (name, unit, better): one layer each, from the traced run.
PER_LAYER = [
    ("data.synth_s", "s", "lower"),
    ("data.sample_s", "s", "lower"),
    ("data.instances", "count", "lower"),
    ("norm.prenorm_s", "s", "lower"),
    ("norm.inference_fit_s", "s", "lower"),
    ("models.pool_s", "s", "lower"),
    ("models.pool_size", "count", "higher"),
    ("models.rejected", "count", "lower"),
    ("models.admit_ratio", "ratio", "higher"),
    ("models.train_self_s", "s", "lower"),
    ("models.steps", "count", "lower"),
    *((f"models.us_per_step.{kind}", "us", "lower") for kind in LOSS_KINDS),
    ("models.forecast_s", "s", "lower"),
    ("models.forecast_calls", "count", "lower"),
    ("metrics.mase_s", "s", "lower"),
    ("metrics.mase_calls", "count", "lower"),
    ("harness.evaluate_self_s", "s", "lower"),
    ("harness.eval_windows", "count", "lower"),
    ("harness.us_per_window", "us", "lower"),
    ("harness.report_s", "s", "lower"),
    ("harness.verify_s", "s", "lower"),
    ("harness.audit_events", "count", "lower"),
    ("harness.pickled_mb", "MB", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Counts that must repeat bit for bit between two runs with the same seed.
EXACT_COUNTS = (
    "data.instances",
    "models.steps",
    "models.pool_size",
    "models.rejected",
    "models.forecast_calls",
    "metrics.mase_calls",
    "harness.eval_windows",
    "harness.audit_events",
    "harness.pickled_mb",
    "cli.bytes_written",
    "cli.files_written",
)

# Layer shares of traced busy time, for naming each workload's dominant layer.
SHARE_GROUPS = {
    "sgd": ("models.train",),
    "pool": ("models.pool",),
    "evaluate": ("harness.evaluate", "norm.inference_fit", "models.forecast",
                 "metrics.mase", "metrics.naive_mae"),
    "write": ("cli.write",),
    "sample": ("data.sample",),
    "synth": ("data.synth",),
    "prenorm": ("norm.fit_dataset_stats", "norm.normalize"),
    "report": ("harness.report", "harness.verify"),
    "trace": ("trace.pickle",),
}


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _attrs in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def derive(spans) -> dict:
    """Per-layer metrics (all but trace.overhead_ratio) from one traced run."""
    own = self_times(spans)
    names = {s[0]: s[2] for s in spans}
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(int)
    train_self = defaultdict(float)
    train_steps = defaultdict(int)
    prenorm = 0.0
    for sid, parent, name, start, end, attrs in spans:
        total[name] += end - start
        self_total[name] += own[sid]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            if key != "kind":
                attr_sum[(name, key)] += value
        if name == "models.train":
            train_self[attrs["kind"]] += own[sid]
            train_steps[attrs["kind"]] += attrs["steps"]
        if name in ("norm.fit_dataset_stats", "norm.normalize") and names.get(parent) != "harness.evaluate":
            prenorm += end - start

    pool_size = attr_sum[("models.pool", "pool_size")]
    rejected = attr_sum[("models.pool", "rejected")]
    windows = attr_sum[("harness.evaluate", "windows")]
    m = {
        "data.synth_s": total["data.synth"],
        "data.sample_s": total["data.sample"],
        "data.instances": attr_sum[("data.sample", "n")],
        "norm.prenorm_s": prenorm,
        "norm.inference_fit_s": total["norm.inference_fit"],
        "models.pool_s": total["models.pool"],
        "models.pool_size": pool_size,
        "models.rejected": rejected,
        "models.admit_ratio": pool_size / (pool_size + rejected) if pool_size + rejected else 0.0,
        "models.train_self_s": self_total["models.train"],
        "models.steps": sum(train_steps.values()),
        "models.forecast_s": total["models.forecast"],
        "models.forecast_calls": calls["models.forecast"],
        "metrics.mase_s": total["metrics.mase"] + total["metrics.naive_mae"],
        "metrics.mase_calls": calls["metrics.mase"],
        "harness.evaluate_self_s": self_total["harness.evaluate"],
        "harness.eval_windows": windows,
        "harness.us_per_window": 1e6 * total["harness.evaluate"] / windows if windows else 0.0,
        "harness.report_s": total["harness.report"],
        "harness.verify_s": total["harness.verify"],
        "harness.audit_events": attr_sum[("harness.verify", "events")],
        "harness.pickled_mb": attr_sum[("trace.pickle", "bytes")] / 1e6,
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": attr_sum[("cli.write", "bytes")],
        "cli.files_written": calls["cli.write"],
    }
    # A loss kind the workload does not train reads 0.
    for kind in LOSS_KINDS:
        steps = train_steps.get(kind, 0)
        m[f"models.us_per_step.{kind}"] = 1e6 * train_self[kind] / steps if steps else 0.0
    return m


def shares(spans) -> dict:
    """Fraction of all traced self time spent in each SHARE_GROUPS layer."""
    own = self_times(spans)
    busy = sum(own.values())
    by_name = defaultdict(float)
    for sid, _parent, name, *_ in spans:
        by_name[name] += own[sid]
    out = {group: sum(by_name[n] for n in members) / busy for group, members in SHARE_GROUPS.items()}
    out["other"] = 1.0 - sum(out.values())
    return out
