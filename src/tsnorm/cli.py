"""Command-line entry point: synthesize corpora, run benchmark plans, render reports.

Configuration is JSON (plans are unwieldy as flags); a handful of flags
override scalars.  Exit codes: 0 success, 2 validation error, 3 training
divergence, 4 I/O error.  The TSNORM_SEED environment variable overrides the
plan seed.  ``RunStore`` owns the ``--out`` tree of ``tsnorm run``: its
layout, its write order, and the read-back that decides on a rerun which
variants are reused.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .core import EvalEntry, Setting, TsnormError, atomic_open
from .data import SyntheticSpec, export_csv, generate_synthetic, load_csv
from .harness import (
    AVERAGE_ID,
    ExperimentPlan,
    run_plan,
    variant_key,
    variant_seed,
)
from .models import DivergedError, Scheme, read_checkpoint, write_checkpoint_data

SCHEMA_VERSION = 1
# The longest file name, in bytes, that common file systems take (NAME_MAX).
NAME_MAX = 255


class SchemaVersionMismatchError(TsnormError):
    """The report file was written by an incompatible schema version."""


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON plus a newline.

    The text goes to a temporary file beside ``path`` that replaces it only
    once complete, so a crash never leaves a half-written file at ``path``.
    """
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out_dir(out: Path, force: bool) -> None:
    if out.exists() and any(out.iterdir()) and not force:
        raise TsnormError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)


def cmd_synth(args) -> int:
    spec = SyntheticSpec.from_dict(_read_json(Path(args.spec))) if args.spec else SyntheticSpec()
    out = Path(args.out)
    _prepare_out_dir(out, args.force)
    datasets = generate_synthetic(spec)
    files = {}
    for d in datasets:
        filename = f"{d.name}.csv"
        export_csv(d, out / filename)
        files[d.name] = {
            "path": filename,
            "frequency": d.frequency,
            "seasonal_period": d.seasonal_period,
            "split_index": d.split_index,
        }
    _write_json(out / "manifest.json", {
        "kind": "synthetic-corpus",
        "spec": asdict(spec),
        "seed": spec.seed,
        "files": files,
        "version": __version__,
    })
    print(f"wrote {len(datasets)} datasets to {out}")
    return 0


def _load_plan_file(path: Path, seed_override: int | None):
    """Resolve a plan JSON file into (ExperimentPlan, datasets by name).

    The file's corpus key, ``synthetic`` or ``datasets``, gives the datasets;
    ``ExperimentPlan.from_dict`` reads the rest.  Raises TsnormError when the
    file is not a JSON object, and naming the key when a corpus value has the
    wrong shape.
    """
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise TsnormError(f"plan must be a JSON object, got {type(raw).__name__}")
    if seed_override is not None:
        raw["seed"] = seed_override
    if "synthetic" in raw:
        datasets = generate_synthetic(SyntheticSpec.from_dict(raw["synthetic"]))
    elif "datasets" in raw:
        entries = raw["datasets"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise TsnormError(f"plan 'datasets' must be a list of objects, got {entries!r}")
        datasets = []
        for i, entry in enumerate(entries):
            required = ["name", "path", "frequency", "seasonal_period"]
            missing = [k for k in required if k not in entry]
            if missing:
                raise TsnormError(f"plan 'datasets' entry {i} lacks {missing}")
            unknown = sorted(set(entry) - {*required, "split_fraction", "split_index"})
            if unknown:
                raise TsnormError(f"plan 'datasets' entry {i} has unknown keys {unknown}")
            if not isinstance(entry["path"], str):
                raise TsnormError(f"plan 'datasets' entry {i} path must be a string")
            named = {k: v for k, v in entry.items() if k != "path"}
            datasets.append(load_csv(path.parent / entry["path"], **named))
    else:
        raise TsnormError("plan must declare either 'synthetic' or 'datasets'")
    return ExperimentPlan.from_dict(raw, datasets), {d.name: d for d in datasets}


def _rows_to_json(entries) -> list:
    return [
        {
            "model": e.model_id,
            "method": e.method,
            "dataset": e.dataset,
            "setting": e.setting.value,
            "mase": e.mase,
            "withheld": e.withheld,
        }
        for e in entries
    ]


def _report_to_json(report, plan: ExperimentPlan) -> dict:
    aggregates: dict = {}
    for (model, method, setting), (mean, std) in sorted(report.aggregates.items()):
        aggregates.setdefault(model, {}).setdefault(method, {})[setting] = {
            "mean": mean,
            "std": std,
        }
    improvements: dict = {}
    for (setting, ref, method), delta in sorted(report.improvements.items()):
        improvements.setdefault(setting, {}).setdefault(ref, {})[method] = delta
    return {
        "schema_version": SCHEMA_VERSION,
        "plan": plan.to_dict(),
        "rows": _rows_to_json(report.entries),
        "aggregates": aggregates,
        "improvements": improvements,
        "metadata": {
            "id_weighting": "equal-per-dataset",
            "version": __version__,
        },
    }


class RunStore:
    """The ``--out`` tree of ``tsnorm run``: its layout, write order and resume read.

    A variant keyed ``<key>`` ("|" written as "__") leaves
    ``checkpoints/<key>.json`` with its data file ``<key>.f64``,
    ``traces/<key>.csv`` and, last, ``variants/<key>.json`` with its rows; the
    run ends with ``report.json`` and ``manifest.json``.  Each variant
    computed or reused prints a progress line ``[i/n] key: ...`` on stderr.
    Every file is written through ``<name>.tmp`` (see ``atomic_open``).
    """

    def __init__(self, out, plan: ExperimentPlan):
        self.out, self.plan, self._done = Path(out), plan, 0
        for sub in ("variants", "checkpoints", "traces"):
            (self.out / sub).mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _name(key: str, suffix: str = ".json") -> str:
        return key.replace("|", "__") + suffix

    @staticmethod
    def check_names(plan: ExperimentPlan) -> None:
        """Raise TsnormError naming the first withheld dataset whose variant
        files would get a name longer than ``NAME_MAX`` bytes, encoded as the
        file system takes it (UTF-8); the longest is ``<key>.json.tmp``.
        Nothing is written."""
        for mk, sc, wh in plan.variants():
            size = len(os.fsencode(RunStore._name(variant_key(mk, sc, wh), ".json.tmp")))
            if size > NAME_MAX:
                raise TsnormError(f"withheld dataset {wh!r} gives {size}-byte file names "
                                  f"under --out, past the {NAME_MAX}-byte limit")

    def _path(self, sub: str, key: str, suffix: str = ".json") -> Path:
        return self.out / sub / self._name(key, suffix)

    def _progress(self, key: str, what: str) -> None:
        self._done += 1
        print(f"[{self._done}/{len(self.plan.variants())}] {key}: {what}",
              file=sys.stderr, flush=True)

    def _read_back(self, key: str) -> list | None:
        """The rows of ``key`` if its variant file holds valid rows of that
        variant, ``read_checkpoint`` accepts its checkpoint and its trace has a
        line per step plus the header; else None, naming the first bad file."""
        what, path = "variant file", self._path("variants", key)
        if not path.exists():
            return None
        try:
            rows = [EvalEntry(r["model"], r["method"], r["dataset"], Setting(r["setting"]),
                              r["mase"], r["withheld"]) for r in _read_json(path)["rows"]]
            if rows and all(f"{r.model_id}|{r.method}|{r.withheld}" == key for r in rows):
                what, path = "checkpoint", self._path("checkpoints", key)
                read_checkpoint(path)
                what, path = "trace", self._path("traces", key, ".csv")
                if path.read_bytes().count(b"\n") == self.plan.steps + 1:
                    return rows
        except (TsnormError, OSError, ValueError, KeyError, TypeError):
            pass
        print(f"recomputing unreadable {what} {path}", file=sys.stderr)
        return None

    def completed(self) -> dict:
        """Rows by key of the variants that read back whole; the rest are recomputed."""
        keys = [variant_key(*v) for v in self.plan.variants()]
        completed = {k: rows for k in keys if (rows := self._read_back(k)) is not None}
        for key in completed:
            self._progress(key, "resumed")
        return completed

    def persist(self, key: str, model, trace, rows) -> None:
        """Write a trained variant's checkpoint data, header, trace and rows, in that order."""
        checkpoint = self._path("checkpoints", key)
        _write_json(checkpoint, write_checkpoint_data(checkpoint, model))
        trace.to_csv(self._path("traces", key, ".csv"))
        _write_json(self._path("variants", key), {"rows": _rows_to_json(rows)})
        losses = trace.losses
        loss = f"{losses[0]:.6g} -> {losses[-1]:.6g}" if len(losses) else "none"
        self._progress(key, f"computed, pool {trace.pool_size}, rejected {trace.rejected}, "
                            f"loss {loss}")

    def finish(self, report) -> Path:
        """Write ``report.json``, then ``manifest.json``; return the report's path."""
        _write_json(self.out / "report.json", _report_to_json(report, self.plan))
        _write_json(self.out / "manifest.json", {
            "kind": "benchmark-run",
            "plan": self.plan.to_dict(),
            "variant_seeds": {variant_key(*v): variant_seed(self.plan.seed, *v)
                              for v in self.plan.variants()},
            "version": __version__,
        })
        return self.out / "report.json"


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise TsnormError(f"--jobs must be at least 1, got {args.jobs}")
    seed_override = None
    env_seed = os.environ.get("TSNORM_SEED")
    if env_seed is not None:
        try:
            seed_override = int(env_seed)
        except ValueError:
            raise TsnormError(f"TSNORM_SEED must be an integer, got {env_seed!r}") from None
    if args.seed is not None:
        seed_override = args.seed
    plan, datasets = _load_plan_file(Path(args.plan), seed_override)

    problems = plan.validate_against(datasets)
    if problems:
        for p in problems:
            print(f"plan error: {p}", file=sys.stderr)
        return 2
    RunStore.check_names(plan)

    if args.dry_run:
        print(f"{len(plan.variants())} runs:")
        for mk, sc, wh in plan.variants():
            print(f"  {variant_key(mk, sc, wh)}")
        return 0

    store = RunStore(args.out, plan)
    completed = store.completed()
    result = run_plan(plan, datasets, jobs=args.jobs, completed=completed,
                      on_variant=store.persist)
    report_path = store.finish(result.report)
    skipped = len(completed)
    resumed = f" (resumed past {skipped})" if skipped else ""
    print(f"completed {len(plan.variants()) - skipped} runs{resumed}; report at {report_path}")
    return 0


def _format_mase(mean: float, std: float) -> str:
    return f"{mean:.3f} ± {std:.3f}"


def _render_markdown(doc: dict) -> str:
    aggregates = doc["aggregates"]
    methods = [s.value for s in Scheme if any(s.value in by_m for by_m in aggregates.values())]
    non_raw = [m for m in methods if m != "raw"]
    models = [m for m in sorted(aggregates) if m != AVERAGE_ID]
    if AVERAGE_ID in aggregates:
        models.append(AVERAGE_ID)

    lines = []
    header = ["model", "setting"] + non_raw
    if "raw" in methods:
        header += ["", "raw"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for model in models:
        for setting in ("zs", "id"):
            cells = {}
            for method in methods:
                agg = aggregates.get(model, {}).get(method, {}).get(setting)
                if agg is not None:
                    cells[method] = agg
            if not cells:
                continue
            ranked = sorted(cells, key=lambda m: cells[m]["mean"])
            row = [model, setting.upper()]
            for method in non_raw:
                row.append(_mark(cells, ranked, method))
            if "raw" in methods:
                row += ["", _mark(cells, ranked, "raw")]
            lines.append("| " + " | ".join(row) + " |")

    improvements = doc["improvements"]
    for setting in ("zs", "id"):
        if setting not in improvements:
            continue
        lines.append("")
        lines.append(f"Improvement Δ(reference → method), {setting.upper()}, % MASE drop:")
        lines.append("")
        lines.append("| reference \\ method | " + " | ".join(methods) + " |")
        lines.append("|" + "---|" * (len(methods) + 1))
        for ref in methods:
            deltas = improvements[setting].get(ref, {})
            row = [ref] + [
                f"{deltas[m]:.1f}" if m in deltas else "" for m in methods
            ]
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _mark(cells: dict, ranked: list, method: str) -> str:
    if method not in cells:
        return ""
    text = _format_mase(cells[method]["mean"], cells[method]["std"])
    if ranked and method == ranked[0]:
        return f"**{text}**"
    if len(ranked) > 1 and method == ranked[1]:
        return f"<u>{text}</u>"
    return text


def _render_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["model", "setting", "method", "mean", "std"])
    for model in sorted(doc["aggregates"]):
        by_method = doc["aggregates"][model]
        for method in sorted(by_method):
            for setting in sorted(by_method[method]):
                agg = by_method[method][setting]
                writer.writerow([model, setting, method, repr(agg["mean"]), repr(agg["std"])])
    return buf.getvalue()


def cmd_report(args) -> int:
    doc = _read_json(Path(args.infile))
    if not isinstance(doc, dict):
        raise TsnormError(f"report must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionMismatchError(
            f"report schema {doc.get('schema_version')!r} != supported {SCHEMA_VERSION}"
        )
    for key in ("aggregates", "improvements"):
        if not isinstance(doc.get(key), dict):
            raise TsnormError(f"report {key!r} must be an object, got {doc.get(key)!r}")
    rendered = _render_markdown(doc) if args.format == "md" else _render_csv(doc)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsnorm",
        description="Time-series normalization benchmark harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus as CSV files")
    p_synth.add_argument("--spec", help="synthetic spec JSON (defaults built in)")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--force", action="store_true", help="allow non-empty --out")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="execute a benchmark plan")
    p_run.add_argument("--plan", required=True, help="plan JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel variant processes (at least 1)")
    p_run.add_argument("--seed", type=int, default=None, help="override plan seed")
    p_run.add_argument("--dry-run", action="store_true", help="print the run matrix and exit")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="render a report.json")
    p_report.add_argument("--in", dest="infile", required=True, help="report.json path")
    p_report.add_argument("--format", choices=("md", "csv"), default="md")
    p_report.add_argument("--out", help="write to file instead of stdout")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TsnormError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
