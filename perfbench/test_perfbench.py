"""Tests of the benchmark's own pieces: plans, metric lists, span arithmetic,
and one traced run of a tiny plan through the real CLI."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _acceptance_bench_plan() -> dict:
    """BENCH_PLAN as tests/test_acceptance.py defines it, read without importing."""
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    namespace: dict = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("BENCH_SYNTH", "BENCH_PLAN"):
            exec(compile(ast.Module([node], []), "test_acceptance.py", "exec"), namespace)
    return namespace["BENCH_PLAN"]


def test_acceptance_plan_is_the_yardstick():
    plan, jobs = workloads.make_plan("acceptance", workloads.DEFAULT_SEED)
    assert plan == _acceptance_bench_plan()
    assert jobs == 1


def test_plans_follow_the_seed():
    for name in workloads.WORKLOADS:
        a, _ = workloads.make_plan(name, 3)
        assert a == workloads.make_plan(name, 3)[0]
        b, _ = workloads.make_plan(name, 4)
        assert a["seed"] != b["seed"]
        assert a["synthetic"]["seed"] != b["synthetic"]["seed"]
        assert a["synthetic"]["seed"] >= 0
    assert all(jobs <= 2 for _, jobs in workloads.WORKLOADS.values())


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    ref = json.loads((HERE / "reference.json").read_text())
    assert ref["seed"] == workloads.DEFAULT_SEED
    assert set(ref["report_sha256"]) == set(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, None, "root", 0.0, 10.0, None),
        (1, 0, "a", 1.0, 4.0, None),
        (2, 0, "b", 3.0, 5.0, None),  # overlaps a: a pool worker's span
        (3, 0, "c", 8.0, 12.0, None),  # clipped to the parent's interval
        (4, 1, "d", 2.0, 3.0, None),
    ]
    own = layers.self_times(spans)
    assert own == {0: 10.0 - 4.0 - 2.0, 1: 2.0, 2: 2.0, 3: 4.0, 4: 1.0}


def test_protocol_counts_of_the_acceptance_plan():
    plan, _ = workloads.make_plan("acceptance", workloads.DEFAULT_SEED)
    # 42 variants; 3 training datasets x 256 draws; 4 datasets x 16 windows
    assert workloads.protocol_counts(plan) == {
        "models.steps": 42 * 5000,
        "data.instances": 42 * 3 * 256,
        "harness.eval_windows": 42 * 4 * 16,
    }


def test_traced_run_matches_untraced_and_the_protocol(tmp_path):
    plan, _ = workloads.make_plan("wide", workloads.DEFAULT_SEED)
    plan.update(steps=20, instances_per_dataset=16, schemes=["revin", "raw"])
    plan["synthetic"].update(n_datasets=3, channels=2, length=1200)
    plan["withheld"] = ["synth0", "synth1"]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    common = ["run", "--plan", str(plan_path), "--jobs", "2", "--out"]
    spans_path = tmp_path / "spans.json"
    for argv in (
        [sys.executable, "-m", "tsnorm", *common, str(tmp_path / "plain")],
        [sys.executable, str(HERE / "traced_run.py"), str(spans_path), *common, str(tmp_path / "traced")],
    ):
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=120, capture_output=True)
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain

    spans = [tuple(s) for s in json.loads(spans_path.read_text())["spans"]]
    m = layers.derive(spans)
    for name, want in workloads.protocol_counts(plan).items():
        assert m[name] == want, name
    assert m["models.forecast_calls"] == m["metrics.mase_calls"] == m["harness.eval_windows"]
    assert m["models.pool_size"] + m["models.rejected"] == m["data.instances"]
    n_variants = len(workloads.variants(plan))
    assert m["cli.files_written"] == 3 * n_variants + 2
    assert m["models.us_per_step.point_mae"] > 0 and m["models.us_per_step.gaussian_nll"] > 0
    assert m["models.us_per_step.token_ce"] == 0.0
    roots = [s for s in spans if s[1] is None]
    assert [s[2] for s in roots] == ["cli.main"]
    assert sum(s[2] == "harness.variant" for s in spans) == n_variants
    assert abs(sum(layers.shares(spans).values()) - 1.0) < 1e-9
