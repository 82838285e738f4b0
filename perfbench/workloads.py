"""Seeded plan generation for the benchmark workloads.

Each workload is one `tsnorm run` plan.  The program only ever sees the plan
file the benchmark writes; the plan is a pure function of (workload, seed).
At ``DEFAULT_SEED`` the ``acceptance`` plan is exactly the acceptance suite's
``BENCH_PLAN``; other seeds move the plan seed and the corpus seed together.
"""

from __future__ import annotations

import copy
import math

DEFAULT_SEED = 7
_DEFAULT_SYNTH_SEED = 11

# The acceptance suite's yardstick plan (tests/test_acceptance.py::BENCH_PLAN).
ACCEPTANCE_SYNTH = {
    "n_datasets": 4,
    "channels": 2,
    "length": 2400,
    "scale_exponents": [0.5, 0.0, -2.0, -3.0],
    "level_shifts": 2,
    "seed": _DEFAULT_SYNTH_SEED,
    "seasonal_period": 24,
    "split_fraction": 0.8,
}

ACCEPTANCE_PLAN = {
    "seed": DEFAULT_SEED,
    "context_len": 96,
    "steps": 5000,
    "lr": 6e-4,
    "instances_per_dataset": 256,
    "schemes": ["revin", "meanabs", "hybrid", "standardization", "minmax", "maxabs", "raw"],
    "models": ["point_mse", "gaussian_nll"],
    "withheld": ["synth0", "synth1", "synth2"],
    "synthetic": ACCEPTANCE_SYNTH,
}

# Token cross-entropy only, on the acceptance corpus: time goes to the
# (H, B, L) einsum step and to ~9 MB JSON checkpoints per variant.
TOKEN_PLAN = {
    **ACCEPTANCE_PLAN,
    "steps": 300,
    "schemes": ["revin", "meanabs", "hybrid", "raw"],
    "models": ["token_ce"],
    "withheld": ["synth0", "synth1"],
}

# Many long, wide datasets and few SGD steps: time goes to pool preparation,
# evaluation windows, sampling and, with two jobs, pickling datasets to the
# worker processes.  Magnitudes stay inside the acceptance corpus's decades.
WIDE_PLAN = {
    "seed": DEFAULT_SEED,
    "context_len": 96,
    "steps": 300,
    "lr": 6e-4,
    "instances_per_dataset": 1024,
    "schemes": ["revin", "hybrid", "standardization", "minmax", "raw"],
    "models": ["point_mae", "gaussian_nll"],
    "withheld": ["synth0", "synth1"],
    "synthetic": {
        "n_datasets": 6,
        "channels": 8,
        "length": 24000,
        "scale_exponents": [0.5, 0.0, -1.0, -2.0, -3.0, -0.5],
        "level_shifts": 2,
        "seed": _DEFAULT_SYNTH_SEED,
        "seasonal_period": 24,
        "split_fraction": 0.8,
    },
}

WORKLOADS = {
    "acceptance": (ACCEPTANCE_PLAN, 1),
    "token": (TOKEN_PLAN, 1),
    "wide": (WIDE_PLAN, 2),
}


def make_plan(workload: str, seed: int) -> tuple[dict, int]:
    """Return (plan dict, --jobs) for a workload at a benchmark seed."""
    base, jobs = WORKLOADS[workload]
    plan = copy.deepcopy(base)
    plan["seed"] = seed
    plan["synthetic"]["seed"] = (seed - DEFAULT_SEED + _DEFAULT_SYNTH_SEED) % 2**32
    return plan, jobs


def variants(plan: dict) -> list:
    """(model, scheme, withheld) triples, in the CLI's canonical order."""
    return [(m, s, w) for m in plan["models"] for s in plan["schemes"] for w in plan["withheld"]]


def corpus(plan: dict) -> list:
    return [f"synth{i}" for i in range(plan["synthetic"]["n_datasets"])]


def protocol_counts(plan: dict) -> dict:
    """Counts the leave-one-out protocol fixes for a plan, whatever the code.

    Every variant trains ``steps`` steps on ``instances_per_dataset`` draws
    from each non-withheld dataset, and scores non-overlapping windows of
    context + horizon over every dataset's test rows (1h data: horizon 24).
    """
    syn = plan["synthetic"]
    horizon = 24
    split = math.floor(syn["split_fraction"] * syn["length"])
    windows = (syn["length"] - split - plan["context_len"] - horizon) // horizon + 1
    n_variants = len(variants(plan))
    n_datasets = syn["n_datasets"]
    return {
        "models.steps": n_variants * plan["steps"],
        "data.instances": n_variants * (n_datasets - 1) * plan["instances_per_dataset"],
        "harness.eval_windows": n_variants * n_datasets * windows,
    }
