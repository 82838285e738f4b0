import copy
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tsnorm.cli as cli
import tsnorm.harness as harness
from tsnorm import ExperimentPlan, LinearForecaster, LossKind, read_checkpoint
from tsnorm.core import EvalEntry, Setting
from tsnorm.cli import _write_json, main
from tsnorm.data import MAX_SYNTHETIC_VALUES
from tsnorm.models import TrainTrace, write_checkpoint_data

ROOT = Path(__file__).resolve().parent.parent

TINY_SYNTH = {
    "n_datasets": 3,
    "channels": 2,
    "length": 600,
    "scale_exponents": [0.5, 0.0, -2.0],
    "level_shifts": 1,
    "seed": 13,
    "seasonal_period": 24,
    "split_fraction": 0.8,
}

TINY_PLAN = {
    "seed": 3,
    "context_len": 48,
    "steps": 80,
    "lr": 1e-4,
    "instances_per_dataset": 24,
    "schemes": ["revin", "raw"],
    "models": ["point_mse"],
    "withheld": ["synth0", "synth2"],
    "synthetic": TINY_SYNTH,
}


# one model kind and scheme, each dataset withheld once
THREE_VARIANTS = dict(TINY_PLAN, schemes=["revin"], withheld=["synth0", "synth1", "synth2"])


def write_plan(tmp_path, plan=None, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(plan or TINY_PLAN))
    return path


def csv_plan(tmp_path):
    """TINY_PLAN with its corpus written as CSV files under ``tmp_path``."""
    corpus = tmp_path / "corpus"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SYNTH))
    assert main(["synth", "--spec", str(spec_path), "--out", str(corpus)]) == 0
    manifest = json.loads((corpus / "manifest.json").read_text())
    plan = {k: v for k, v in TINY_PLAN.items() if k != "synthetic"}
    plan["datasets"] = [
        {
            "name": name,
            "path": str(corpus / info["path"]),
            "frequency": info["frequency"],
            "seasonal_period": info["seasonal_period"],
            "split_index": info["split_index"],
        }
        for name, info in manifest["files"].items()
    ]
    return plan


def _tree(out):
    """Every file under ``out`` by relative path, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestSynth:
    def test_writes_corpus_and_manifest(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SYNTH))
        out = tmp_path / "corpus"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["files"]) == 3
        assert (out / "synth0.csv").exists()
        assert manifest["spec"]["seed"] == 13

    def test_default_spec_four_datasets(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["files"]) == 4

    def test_refuses_nonempty_out_without_force(self, tmp_path):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["synth", "--out", str(out)]) == 2
        assert main(["synth", "--out", str(out), "--force"]) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a)])
        main(["synth", "--out", str(b)])
        assert (a / "synth0.csv").read_bytes() == (b / "synth0.csv").read_bytes()


class TestRun:
    @pytest.mark.parametrize("extra", [[], ["--dry-run"], ["--dry-run", "--jobs", "2"]],
                             ids=["serial", "dry-run", "dry-run-jobs-2"])
    def test_a_run_without_a_pool_loads_no_multiprocessing(self, tmp_path, extra):
        # in a fresh interpreter: this one has loaded a pool for other tests
        script = ("import json, sys; from tsnorm.cli import main; code = main(sys.argv[1:]); "
                  "print(json.dumps([code, sorted(set(sys.modules) & "
                  "{'multiprocessing', 'concurrent.futures.process'})]))")
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        argv = ["run", "--plan", str(write_plan(tmp_path)), "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c", script, *argv, *extra], cwd=ROOT, env=env,
                              capture_output=True, timeout=300, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
        assert (tmp_path / "out" / "report.json").exists() == (not extra)

    def test_dry_run_prints_matrix_trains_nothing(self, tmp_path, capsys):
        plan = dict(TINY_PLAN)
        plan["schemes"] = ["revin", "meanabs", "hybrid", "standardization",
                           "minmax", "maxabs", "raw"]
        plan["withheld"] = ["synth0", "synth1", "synth2"]
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out), "--dry-run"]) == 0
        printed = capsys.readouterr().out
        assert "21 runs" in printed
        assert not out.exists()

    def test_run_writes_report_checkpoints_traces(self, tmp_path):
        path = write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert len(list((out / "checkpoints").glob("*.json"))) == 4
        assert len(list((out / "traces").glob("*.csv"))) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["variant_seeds"]) == 4

    def test_same_seed_byte_identical_reports(self, tmp_path):
        path = write_plan(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--plan", str(path), "--out", str(a)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_parallel_jobs_byte_identical(self, tmp_path):
        path = write_plan(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--plan", str(path), "--out", str(a)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(b), "--jobs", "2"]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_parallel_jobs_byte_identical_token_trees(self, tmp_path):
        # two-channel token models keep (L, H, B) weights behind an (H, B, L) view,
        # which crosses the process pool under --jobs 2
        path = write_plan(tmp_path, dict(TINY_PLAN, models=["token_ce"]))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--plan", str(path), "--out", str(a)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(b), "--jobs", "2"]) == 0
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert {f.suffix for f in files} == {".json", ".f64", ".csv"}
        assert len(list((a / "checkpoints").glob("*.f64"))) == 4
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), f

    def test_checkpoints_read_back_as_trained_and_repeat_byte_for_byte(self, tmp_path,
                                                                       monkeypatch):
        plan = dict(TINY_PLAN, steps=20, schemes=["revin"], withheld=["synth0"],
                    models=["point_mse", "point_mae", "gaussian_nll", "token_ce"])
        path = write_plan(tmp_path, plan)
        received = {}
        run_plan = cli.run_plan

        def capturing(*args, on_variant, **kwargs):
            def record(key, trained, trace, rows):
                received[key] = copy.deepcopy(trained)
                on_variant(key, trained, trace, rows)
            return run_plan(*args, on_variant=record, **kwargs)

        monkeypatch.setattr(cli, "run_plan", capturing)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--plan", str(path), "--out", str(a)]) == 0
        assert len(received) == 4
        for key, trained in received.items():
            name = key.replace("|", "__")
            back = read_checkpoint(a / "checkpoints" / f"{name}.json")
            assert (back.loss_kind, back.context_len, back.horizon, back.tokenizer) == (
                trained.loss_kind, trained.context_len, trained.horizon, trained.tokenizer)
            for field in ("weights", "bias", "sigma_weights", "sigma_bias",
                          "token_weights", "token_bias"):
                want, got = getattr(trained, field), getattr(back, field)
                assert (got is None) if want is None else got.tobytes() == want.tobytes()
        assert main(["run", "--plan", str(path), "--out", str(b)]) == 0
        files = sorted(p.name for p in (a / "checkpoints").iterdir())
        assert files == sorted(f"{k.replace('|', '__')}{suffix}"
                               for k in received for suffix in (".json", ".f64"))
        assert files == sorted(p.name for p in (b / "checkpoints").iterdir())
        for f in files:
            assert (a / "checkpoints" / f).read_bytes() == (b / "checkpoints" / f).read_bytes()

    def test_failure_between_checkpoint_data_and_header_is_recomputed(self, tmp_path,
                                                                       monkeypatch, capsys):
        path = write_plan(tmp_path)
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(full)]) == 0
        write_json, headers = cli._write_json, []

        def failing(target, payload):
            if target.parent.name == "checkpoints":
                headers.append(target)
                if len(headers) == 2:  # the second variant's data file is on disk
                    raise OSError("injected failure before the checkpoint header")
            write_json(target, payload)

        monkeypatch.setattr(cli, "_write_json", failing)
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 4
        victim = headers[-1]
        assert victim.with_suffix(".f64").exists()
        assert not victim.exists()
        assert not (out / "variants" / victim.name).exists()
        assert not list(out.rglob("*.tmp"))
        monkeypatch.setattr(cli, "_write_json", write_json)
        capsys.readouterr()
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        assert "completed 3 runs (resumed past 1)" in capsys.readouterr().out
        assert (out / "report.json").read_bytes() == (full / "report.json").read_bytes()
        for f in (full / "checkpoints").iterdir():
            assert (out / "checkpoints" / f.name).read_bytes() == f.read_bytes()
        read_checkpoint(victim)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_1_exits_2_before_training(self, tmp_path, capsys, jobs):
        path = write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out), "--jobs", jobs]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_completes_interrupted_run(self, tmp_path):
        path = write_plan(tmp_path)
        full, partial = tmp_path / "full", tmp_path / "partial"
        assert main(["run", "--plan", str(path), "--out", str(full)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(partial)]) == 0
        # simulate an interruption: drop the report and one completed variant
        (partial / "report.json").unlink()
        dropped = sorted((partial / "variants").glob("*.json"))[0]
        dropped.unlink()
        assert main(["run", "--plan", str(path), "--out", str(partial)]) == 0
        assert (partial / "report.json").read_bytes() == (full / "report.json").read_bytes()

    def test_resume_recomputes_unreadable_variant_files(self, tmp_path, capsys):
        path = write_plan(tmp_path)
        full, partial = tmp_path / "full", tmp_path / "partial"
        assert main(["run", "--plan", str(path), "--out", str(full)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(partial)]) == 0
        (partial / "report.json").unlink()
        truncated, empty = sorted((partial / "variants").glob("*.json"))[:2]
        truncated.write_bytes(truncated.read_bytes()[:40])
        empty.write_text('{"rows": []}\n')
        capsys.readouterr()
        assert main(["run", "--plan", str(path), "--out", str(partial)]) == 0
        captured = capsys.readouterr()
        assert str(truncated) in captured.err and str(empty) in captured.err
        assert "completed 2 runs (resumed past 2)" in captured.out
        assert (partial / "report.json").read_bytes() == (full / "report.json").read_bytes()
        for f in (truncated, empty):
            assert f.read_bytes() == (full / "variants" / f.name).read_bytes()

    @pytest.mark.parametrize("damage", ["data files deleted", "data file altered",
                                        "header deleted", "trace emptied",
                                        "trace cut short"])
    def test_resume_recomputes_variants_whose_files_do_not_read_back(self, tmp_path, capsys,
                                                                     damage):
        path = write_plan(tmp_path, THREE_VARIANTS)
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(full)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        data = sorted((out / "checkpoints").glob("*.f64"))
        trace = sorted((out / "traces").glob("*.csv"))[1]
        if damage == "data files deleted":
            for f in data:
                f.unlink()
            trace.write_text("")
            named = [f.with_suffix(".json") for f in data]
        elif damage == "data file altered":
            raw = bytearray(data[0].read_bytes())
            raw[0] ^= 1
            data[0].write_bytes(bytes(raw))
            named = [data[0].with_suffix(".json")]
        elif damage == "header deleted":
            data[2].with_suffix(".json").unlink()
            named = [data[2].with_suffix(".json")]
        else:
            lines = trace.read_bytes().split(b"\r\n")
            # a trace cut short keeps its header and all rows but the last
            trace.write_bytes(b"" if damage == "trace emptied"
                              else b"\r\n".join(lines[:-2]) + b"\r\n")
            named = [trace]
        capsys.readouterr()
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        kind = "trace" if named == [trace] else "checkpoint"
        assert [line for line in captured.err.splitlines() if line.startswith("recomputing")] == [
            f"recomputing unreadable {kind} {f}" for f in named]
        resumed = 3 - len(named)
        assert captured.out.startswith(f"completed {len(named)} runs"
                                       + (f" (resumed past {resumed})" if resumed else "") + ";")
        assert _tree(out) == _tree(full)

    # None puts another variant's rows in the file
    @pytest.mark.parametrize("mase", [-1.0, float("nan"), "0.5", None])
    def test_resume_recomputes_variant_file_with_invalid_rows(self, tmp_path, capsys, mase):
        path = write_plan(tmp_path)
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(full)]) == 0
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        victim, other = sorted((out / "variants").glob("*.json"))[:2]
        doc = json.loads((victim if mase is not None else other).read_text())
        if mase is not None:
            doc["rows"][0]["mase"] = mase
        victim.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"recomputing unreadable variant file {victim}" in captured.err.splitlines()
        assert "completed 1 runs (resumed past 3)" in captured.out
        assert _tree(out) == _tree(full)

    def test_progress_line_per_finished_variant(self, tmp_path, capsys):
        path = write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        keys = ["point_mse|revin|synth0", "point_mse|revin|synth2",
                "point_mse|raw|synth0", "point_mse|raw|synth2"]
        assert [line.split(": ", 1)[0] for line in lines] == [
            f"[{i}/4] {key}" for i, key in enumerate(keys, 1)]
        trace = (out / "traces" / "point_mse__revin__synth0.csv").read_text().splitlines()
        first, last = float(trace[1].split(",")[1]), float(trace[-1].split(",")[1])
        # 2 training datasets x 24 draws, all admitted
        assert lines[0].endswith(
            f": computed, pool 48, rejected 0, loss {first:.6g} -> {last:.6g}")

        (out / "report.json").unlink()
        (out / "variants" / "point_mse__raw__synth0.json").unlink()
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[:3] == [f"[{i}/4] {key}: resumed"
                             for i, key in enumerate(keys[:2] + keys[3:], 1)]
        assert lines[3].startswith(f"[4/4] {keys[2]}: computed, pool 48, rejected 0, loss ")
        assert len(lines) == 4

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_late_divergence_keeps_finished_variants(self, tmp_path, monkeypatch, jobs):
        # raw MSE at this rate diverges only when trained on both synth0 and
        # synth1, i.e. in the last variant, withheld synth2
        plan = dict(TINY_PLAN, lr=10.0, schemes=["raw"],
                    withheld=["synth0", "synth1", "synth2"])
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        argv = ["run", "--plan", str(path), "--out", str(out), "--jobs", jobs]
        assert main(argv) == 3
        assert sorted(p.name for p in (out / "variants").glob("*.json")) == [
            "point_mse__raw__synth0.json", "point_mse__raw__synth1.json"]
        assert len(list((out / "checkpoints").glob("*.json"))) == 2
        trained = []
        run_variant = harness.run_variant

        def counting(*args, **kwargs):
            trained.append(args[4])
            return run_variant(*args, **kwargs)

        monkeypatch.setattr(harness, "run_variant", counting)
        assert main(argv) == 3
        assert trained == ["synth2"]
        assert not (out / "report.json").exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_plan(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["run", "--plan", str(path), "--out", str(a)]) == 0
        monkeypatch.setenv("TSNORM_SEED", "99")
        assert main(["run", "--plan", str(path), "--out", str(b)]) == 0
        monkeypatch.delenv("TSNORM_SEED")
        assert main(["run", "--plan", str(path), "--out", str(c), "--seed", "99"]) == 0
        assert (b / "report.json").read_bytes() == (c / "report.json").read_bytes()
        assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()

    def test_invalid_plan_exits_2_before_training(self, tmp_path):
        plan = dict(TINY_PLAN)
        plan["withheld"] = ["missing"]
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("lag", [0, -1])
    def test_naive_lag_below_1_exits_2_before_training(self, tmp_path, capsys, lag):
        path = write_plan(tmp_path, dict(TINY_PLAN, naive_lag=lag))
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 2
        assert "naive_lag" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.5), ("context_len", 96.0), ("instances_per_dataset", 8.5), ("lr", "0.1"),
        ("naive_lag", 2.5), ("naive_lag", True), ("seed", 1.5),
    ])
    def test_mistyped_plan_field_exits_2_before_training(self, tmp_path, capsys, field, value):
        plan = dict(TINY_PLAN, schemes=["raw"], withheld=["synth0"], **{field: value})
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("horizon_overrides", {"synth0": 2.5}), ("horizon_overrides", {"synth0": 0}),
        ("lr", -1e-4), ("lr", 0.0),
    ], ids=["horizon-2.5", "horizon-0", "lr-negative", "lr-0"])
    def test_out_of_range_plan_field_exits_2_before_training(self, tmp_path, capsys,
                                                             field, value):
        plan = dict(TINY_PLAN, schemes=["raw"], withheld=["synth0"], **{field: value})
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("horizons" if field == "horizon_overrides" else "lr") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("steps", 10**20), ("steps", MAX_SYNTHETIC_VALUES + 1),
        ("instances_per_dataset", 10**20), ("instances_per_dataset", MAX_SYNTHETIC_VALUES + 1),
    ], ids=["steps-1e20", "steps-bound+1", "instances-1e20", "instances-bound+1"])
    def test_unbounded_plan_size_exits_2_at_dry_run(self, tmp_path, capsys, field, value):
        # refused while the plan is built: nothing is sampled or trained
        path = write_plan(tmp_path, dict(TINY_PLAN, **{field: value}))
        assert main(["run", "--plan", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert f"{field} must be at most {MAX_SYNTHETIC_VALUES}" in captured.err
        assert "Traceback" not in captured.err and "runs:" not in captured.out

    @pytest.mark.parametrize("shifts", [10**7, 10**20, 2**63])
    def test_unbounded_level_shifts_exit_2_at_dry_run(self, tmp_path, capsys, shifts):
        # refused by the spec: no channel is generated
        plan = dict(TINY_PLAN, synthetic=dict(TINY_SYNTH, level_shifts=shifts))
        path = write_plan(tmp_path, plan)
        assert main(["run", "--plan", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert "level_shifts must be at most length (600)" in captured.err
        assert "Traceback" not in captured.err and "runs:" not in captured.out

    @pytest.mark.parametrize("plan, named", [
        ([TINY_PLAN], "plan must be a JSON object"),
        (dict(TINY_PLAN, synthetic=[1, 2]), "synthetic spec must be a JSON object"),
        (dict(TINY_PLAN, synthetic={"scale_exponents": 3}), "scale_exponents must be a list"),
        (dict(TINY_PLAN, synthetic={"n_datasets": 2.5}), "n_datasets must be an integer"),
        (dict(TINY_PLAN, synthetic={"seed": "x"}), "seed must be an integer"),
        (dict(TINY_PLAN, synthetic={"frequency": 3}), "frequency and name_prefix must be"),
        (dict(TINY_PLAN, horizon_overrides=[1]), "'horizon_overrides' must be an object"),
        (dict(TINY_PLAN, withheld="synth0"), "'withheld' must be a list of strings"),
        (dict(TINY_PLAN, schemes="revin"), "'schemes' must be a list of strings"),
        (dict(TINY_PLAN, models="point_mse"), "'models' must be a list of strings"),
        (dict(TINY_PLAN, schemes=["revin", "revinn"]),
         "plan 'schemes' has unknown values ['revinn']; allowed: ['revin', 'meanabs',"),
        (dict(TINY_PLAN, models=["point_mse2"]),
         "plan 'models' has unknown values ['point_mse2']; allowed: ['point_mse',"),
        ({k: v for k, v in TINY_PLAN.items() if k != "synthetic"}
         | {"datasets": [{"name": "a", "frequency": "1h", "seasonal_period": 24}]},
         "'datasets' entry 0 lacks ['path']"),
        ({k: v for k, v in TINY_PLAN.items() if k != "synthetic"}
         | {"datasets": [{"name": "a", "path": "a.csv", "frequency": "1h",
                          "seasonal_period": 24, "split_fracton": 0.5}]},
         "'datasets' entry 0 has unknown keys ['split_fracton']"),
        (dict(TINY_PLAN, synthetic={"trend": "x"}), "trend must be a real number, got 'x'"),
        (dict(TINY_PLAN, synthetic={"trend": True}), "trend must be a real number, got True"),
        (dict(TINY_PLAN, synthetic={"noise": None}), "noise must be a real number, got None"),
        (dict(TINY_PLAN, synthetic={"split_fraction": "0.5"}),
         "split_fraction must be a real number, got '0.5'"),
    ], ids=["top-level-array", "synthetic-list", "scale-exponents-int", "n-datasets-float",
            "synthetic-seed-string", "frequency-int", "overrides-list",
            "withheld-string", "schemes-string", "models-string", "unknown-scheme",
            "unknown-model", "dataset-without-path", "dataset-misspelt-key",
            "trend-string", "trend-bool", "noise-null", "split-fraction-string"])
    def test_malformed_plan_file_exits_2_naming_the_field(self, tmp_path, capsys, plan, named):
        path = write_plan(tmp_path, plan)
        argv = ["run", "--plan", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("patch, named", [
        ({"step": 5}, "unknown plan keys ['step']"),
        ({"horizon_overrides": {"synth0": 12, "synth9": 12}},
         "horizon_overrides ['synth9'] not in corpus"),
    ], ids=["misspelt-key", "override-outside-corpus"])
    def test_ignored_plan_input_is_refused(self, tmp_path, capsys, patch, named):
        path = write_plan(tmp_path, dict(TINY_PLAN, **patch))
        argv = ["run", "--plan", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path):
        plan = dict(TINY_PLAN)
        plan["lr"] = 100.0  # way past the stability bound for raw MSE
        plan["schemes"] = ["raw"]
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()

    def test_divergence_in_worker_exits_3(self, tmp_path):
        plan = dict(TINY_PLAN)
        plan["lr"] = 100.0  # raw MSE diverges; the error crosses the process pool
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out), "--jobs", "2"]) == 3
        assert not (out / "report.json").exists()

    def test_missing_plan_file_exits_4(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--plan", str(tmp_path / "nope.json"), "--out", str(out)]) == 4

    def test_csv_datasets_plan(self, tmp_path):
        path = write_plan(tmp_path, csv_plan(tmp_path))
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("name", ["a/b", "c|d", "e\\f", "g\0h"],
                             ids=["slash", "bar", "backslash", "nul"])
    def test_dataset_name_unfit_for_keys_or_paths_exits_2_at_dry_run(self, tmp_path, capsys,
                                                                     name):
        plan = csv_plan(tmp_path)
        plan["datasets"][1]["name"] = name
        path = write_plan(tmp_path, plan)
        assert main(["run", "--plan", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert f"dataset name {name!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value, named", [
        ("seasonal_period", "24", "seasonal_period must be an integer"),
        ("frequency", 5, "frequency must be a string"),
        ("split_fraction", "x", "split_fraction must be a real number in (0, 1)"),
        ("name", 3, "name must be a string"),
        ("path", 3, "plan 'datasets' entry 0 path must be a string"),
    ], ids=["seasonal-period-string", "frequency-int", "split-fraction-string", "name-int",
            "path-int"])
    def test_mistyped_csv_entry_exits_2_naming_the_field(self, tmp_path, capsys,
                                                          field, value, named):
        plan = csv_plan(tmp_path)
        plan["datasets"][0][field] = value
        if field == "split_fraction":
            del plan["datasets"][0]["split_index"]
        path = write_plan(tmp_path, plan)
        argv = ["run", "--plan", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    def test_ragged_csv_row_exits_2_naming_the_file_and_row(self, tmp_path, capsys):
        plan = csv_plan(tmp_path)
        data = Path(plan["datasets"][1]["path"])
        lines = data.read_text().splitlines(keepends=True)
        lines[5] = lines[5].rstrip("\n") + ",1.0\n"
        data.write_text("".join(lines))
        path = write_plan(tmp_path, plan)
        argv = ["run", "--plan", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{data}: row 6 has" in err
        assert "Traceback" not in err

    def test_oversized_synthetic_corpus_exits_2_naming_the_fields(self, tmp_path, capsys):
        plan = copy.deepcopy(TINY_PLAN)
        plan["synthetic"]["channels"] = 10**20
        path = write_plan(tmp_path, plan)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_datasets x channels x length" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_dataset_statistics_exit_2_naming_dataset_and_method(
            self, tmp_path, capsys):
        # the minmax variants, first in plan order, would train; the dataset
        # step is fitted before any of them, so none is persisted
        plan = csv_plan(tmp_path)
        plan["schemes"] = ["minmax", "standardization"]
        data = Path(plan["datasets"][1]["path"])
        lines = data.read_text().splitlines()
        scaled = [",".join(repr(float(v) * 1e200) for v in line.split(",")) for line in lines[1:]]
        data.write_text("\n".join([lines[0], *scaled]) + "\n")
        path = write_plan(tmp_path, plan)
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", "--plan", str(path), "--out", str(out), "--jobs", jobs]) == 2
            err = capsys.readouterr().err
            assert "dataset 'synth1': standardization statistics of its train rows overflow" in err
            assert "Traceback" not in err
            assert list(out.glob("variants/*.json")) == []

    @pytest.mark.parametrize("scheme, which, cell, want", [
        ("revin", 1, lambda t, c, v: v * 1e200,
         "dataset 'synth1': revin statistics of its training windows overflow"),
        ("maxabs", 0, lambda t, c, v: 1.5e308 * np.sin(2 * np.pi * t / 24 + c),
         "dataset 'synth0': maxabs MASE of its test windows is not finite"),
    ], ids=["training-windows", "scores"])
    def test_overflow_in_a_variant_exits_2_naming_dataset_and_method(
            self, tmp_path, capsys, scheme, which, cell, want):
        # the first variant trains on synth1 and scores synth0 zero-shot first
        plan = csv_plan(tmp_path)
        plan["schemes"] = [scheme]
        data = Path(plan["datasets"][which]["path"])
        lines = data.read_text().splitlines()
        scaled = [",".join(repr(float(cell(t, c, float(v))))
                           for c, v in enumerate(line.split(",")))
                  for t, line in enumerate(lines[1:])]
        data.write_text("\n".join([lines[0], *scaled]) + "\n")
        path = write_plan(tmp_path, plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--plan", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert want in err
        assert "Traceback" not in err

    def test_non_integer_env_seed_exits_2_naming_the_variable(self, tmp_path, capsys,
                                                              monkeypatch):
        path = write_plan(tmp_path)
        monkeypatch.setenv("TSNORM_SEED", "seven")
        argv = ["run", "--plan", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert main(argv) == 2
        assert "TSNORM_SEED must be an integer, got 'seven'" in capsys.readouterr().err

    def test_readme_plan_example_parses(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("A plan is JSON"):]
        start = section.index("```json\n") + len("```json\n")
        example = section[start : section.index("```\n", start)]
        path = write_plan(tmp_path, json.loads(example))
        argv = ["run", "--plan", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("42 runs:")

    def test_readme_lists_each_plan_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        for f in dataclasses.fields(ExperimentPlan):
            if f.default is not dataclasses.MISSING:
                assert f"| `{f.name}` | `{json.dumps(f.default)}` |" in readme


class TestRunStore:
    def _plan(self, tmp_path):
        return cli._load_plan_file(write_plan(tmp_path), None)[0]

    def test_write_order_per_variant_then_report_and_manifest(self, tmp_path, monkeypatch):
        out, writes = tmp_path / "out", []

        def recording(fn, name_of):
            def wrapped(*args):
                writes.append(name_of(*args).relative_to(out).as_posix())
                return fn(*args)
            return wrapped

        monkeypatch.setattr(cli, "write_checkpoint_data", recording(
            cli.write_checkpoint_data, lambda path, model: path.with_suffix(".f64")))
        monkeypatch.setattr(cli, "_write_json", recording(
            cli._write_json, lambda path, payload: path))
        monkeypatch.setattr(TrainTrace, "to_csv", recording(
            TrainTrace.to_csv, lambda trace, path: path))
        path = write_plan(tmp_path, THREE_VARIANTS)
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        names = [k.replace("|", "__") for k in
                 ("point_mse|revin|synth0", "point_mse|revin|synth1", "point_mse|revin|synth2")]
        assert writes == [
            *(f for n in names for f in (f"checkpoints/{n}.f64", f"checkpoints/{n}.json",
                                         f"traces/{n}.csv", f"variants/{n}.json")),
            "report.json", "manifest.json"]

    def test_completed_on_a_fresh_tree_is_empty_and_silent(self, tmp_path, capsys):
        store = cli.RunStore(tmp_path / "out", self._plan(tmp_path))
        assert store.completed() == {}
        assert capsys.readouterr() == ("", "")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "checkpoints", "traces", "variants"]

    def test_persisted_variant_reads_back_its_rows(self, tmp_path, capsys):
        plan, key = self._plan(tmp_path), "point_mse|raw|synth2"
        rows = [EvalEntry("point_mse", "raw", name, setting, 0.25 * i, "synth2")
                for i, (name, setting) in enumerate([("synth0", Setting.ID),
                                                     ("synth2", Setting.ZS)])]
        trace = TrainTrace(losses=np.linspace(2.0, 1.0, plan.steps),
                           grad_norms=[np.ones(2)] * plan.steps,
                           rejected=1, pool_size=47, seed=5, lr=plan.lr)
        model = LinearForecaster.create(LossKind.MSE, plan.context_len, 6, seed=3)
        cli.RunStore(tmp_path / "out", plan).persist(key, model, trace, rows)
        assert capsys.readouterr().err == (
            f"[1/4] {key}: computed, pool 47, rejected 1, loss 2 -> 1\n")
        assert cli.RunStore(tmp_path / "out", plan).completed() == {key: rows}
        assert capsys.readouterr().err == f"[1/4] {key}: resumed\n"

    @staticmethod
    def _named_plan(tmp_path, prefix):
        """One variant, ``point_mse|revin|<prefix>0``: its longest file name,
        ``point_mse__revin__<prefix>0.json.tmp``, is 28 bytes plus the prefix's."""
        synthetic = dict(TINY_SYNTH, name_prefix=prefix)
        return write_plan(tmp_path, dict(TINY_PLAN, schemes=["revin"], withheld=[f"{prefix}0"],
                                         steps=5, synthetic=synthetic))

    def test_a_withheld_name_at_the_file_name_limit_runs(self, tmp_path):
        prefix = "x" * (cli.NAME_MAX - 28)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(self._named_plan(tmp_path, prefix)),
                     "--out", str(out)]) == 0
        (variant,) = (out / "variants").iterdir()
        assert len(variant.name) + len(".tmp") == cli.NAME_MAX

    @pytest.mark.parametrize("prefix", ["x" * (cli.NAME_MAX - 27), "é" * 114, "x" * 239],
                             ids=["one-byte-past", "two-byte-chars", "240-chars"])
    def test_a_withheld_name_past_the_file_name_limit_exits_2_at_dry_run(
            self, tmp_path, capsys, prefix):
        path, out = self._named_plan(tmp_path, prefix), tmp_path / "out"
        for extra in (["--dry-run"], []):
            assert main(["run", "--plan", str(path), "--out", str(out), *extra]) == 2
            captured = capsys.readouterr()
            assert f"withheld dataset '{prefix}0'" in captured.err
            assert f"past the {cli.NAME_MAX}-byte limit" in captured.err
            assert "runs:" not in captured.out
        assert not out.exists()


class TestReport:
    @pytest.fixture
    def report_path(self, tmp_path):
        path = write_plan(tmp_path)
        out = tmp_path / "out"
        main(["run", "--plan", str(path), "--out", str(out)])
        return out / "report.json"

    def test_markdown_layout(self, report_path, capsys):
        assert main(["report", "--in", str(report_path), "--format", "md"]) == 0
        text = capsys.readouterr().out
        header = text.splitlines()[0]
        assert header.startswith("| model | setting | revin |")
        assert header.rstrip().endswith("|  | raw |")  # raw separated at the end
        assert "**" in text  # best marked bold
        assert "Improvement" in text

    def test_csv_reparses_to_identical_aggregates(self, report_path, capsys):
        assert main(["report", "--in", str(report_path), "--format", "csv"]) == 0
        text = capsys.readouterr().out
        parsed = {}
        for row in csv.DictReader(io.StringIO(text)):
            parsed[(row["model"], row["method"], row["setting"])] = (
                float(row["mean"]), float(row["std"])
            )
        doc = json.loads(report_path.read_text())
        expected = {
            (model, method, setting): (agg["mean"], agg["std"])
            for model, by_m in doc["aggregates"].items()
            for method, by_s in by_m.items()
            for setting, agg in by_s.items()
        }
        assert parsed == expected

    def test_schema_version_mismatch(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "aggregates": {}}))
        assert main(["report", "--in", str(bad)]) == 2

    def test_write_to_file(self, report_path, tmp_path):
        out = tmp_path / "table.md"
        assert main(["report", "--in", str(report_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("| model |")

    def test_failed_write_to_file_leaves_previous_file(self, report_path, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "table.md"
        assert main(["report", "--in", str(report_path), "--out", str(out)]) == 0
        before = out.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails
        monkeypatch.setattr(cli, "_render_markdown", lambda doc: "| model |\n\ud800\n")
        assert main(["report", "--in", str(report_path), "--out", str(out)]) == 2
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.glob("table*")) == ["table.md"]


def _json_dump_bytes(payload) -> bytes:
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode()


EDGE_PAYLOAD = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1],
    "finite": [-0.0, 5e-324, 1e16, 1.5, -2.25e-300],
    "nan_only": [float("nan")],
    "text": ["ünïcödé", "☃ \U0001f600", 'quote " back \\ newline \n tab \t', ""],
    "non-ascii key ∑": {"z": 1, "a": [1.0, float("nan"), 2]},
    "flags": [True, False, None],
    "ints": [0, -3, 2**70],
    "mixed": [1, 2.5, "x", None, [], {}, [[]], {"a": {}}, [1.0, 2.0]],
    "empty_list": [],
    "empty_dict": {},
    "nested_empty": [[], [[]], {}, [{}], {"k": []}],
    "int_keys": {2: "b", 1: "a"},
    "tuple": (1.0, (2.0, 3.0)),
    "numpy_float": np.float64(0.1),
    "scalars": {"nan": float("nan"), "neg_zero": -0.0, "none": None, "yes": True},
}


class TestWriteJson:
    def _check(self, tmp_path, payload):
        path = tmp_path / "out.json"
        _write_json(path, payload)
        assert path.read_bytes() == _json_dump_bytes(payload)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_checkpoint_bytes_match_json_dump(self, tmp_path, kind):
        model = LinearForecaster.create(kind, 24, 6, seed=3)
        header = write_checkpoint_data(tmp_path / "m.json", model)
        (tmp_path / "header").mkdir()
        self._check(tmp_path / "header", header)

    def test_edge_leaves_match_json_dump(self, tmp_path):
        self._check(tmp_path, EDGE_PAYLOAD)
        for top in ({}, [], [[]], [1.0, float("inf")], "s", None, 0.5):
            self._check(tmp_path, top)

    def test_run_payloads_match_json_dump(self, tmp_path):
        path = write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--plan", str(path), "--out", str(out)]) == 0
        files = [out / "report.json", out / "manifest.json",
                 *sorted((out / "variants").glob("*.json")),
                 *sorted((out / "checkpoints").glob("*.json"))]
        for f in files:
            assert f.read_bytes() == _json_dump_bytes(json.loads(f.read_text())), f.name

    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        _write_json(path, {"a": [1.0]})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _write_json(path, {"a": [1.0], "b": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
