"""tsnorm benchmark: drive `python -m tsnorm run` on seeded plans and check it.

    python3 perfbench/run.py --workload {acceptance,token,wide} --seed N \
        --seconds S --trace {0,1}

Run from a checkout's root; the CLI is imported from ``src/`` (nothing is
installed).  Work files go under ``.bench_work/`` and are removed at exit.

``--trace 0`` measures the end-to-end metrics with tracing off: repeated
``--dry-run`` calls give ``setup_s``, then full runs into fresh ``--out``
directories repeat while the next one still fits in ``--seconds`` (at least
one).  ``--trace 1`` runs the plan under ``traced_run.py``, untraced, and
traced again; it checks that the report and the exact counts repeat, and
reports the per-layer metrics.  Every run's output is checked.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
# Every subprocess is killed past this point so the benchmark ends within 180 s.
DEADLINE_S = 170.0
REFERENCE = json.loads((HERE / "reference.json").read_text())


def run_cli(argv: list, env: dict, log: Path, deadline: float) -> dict:
    """Run one subprocess; return its wall and CPU time, peak RSS and exit code.

    ``os.wait4`` reports CPU time and maximum RSS of the process together with
    its reaped children (the pool workers under ``--jobs``).
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "code": proc.returncode,
    }


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(out: Path, code: int, plan: dict, workload: str) -> list:
    """Problems with one `tsnorm run` output (empty when it is correct)."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    problems = []
    if report.get("schema_version") != 1:
        problems.append(f"schema_version {report.get('schema_version')!r} != 1")
    names = workloads.corpus(plan)
    rows = {}
    for r in report.get("rows", []):
        key = (r["model"], r["method"], r["withheld"], r["setting"], r["dataset"])
        rows[key] = rows.get(key, 0) + 1
        if not (isinstance(r["mase"], float) and math.isfinite(r["mase"]) and r["mase"] > 0):
            problems.append(f"row {key}: MASE {r['mase']!r} is not finite and positive")
    expected = {}
    for model, scheme, withheld in workloads.variants(plan):
        expected[(model, scheme, withheld, "zs", withheld)] = 1
        for name in names:
            if name != withheld:
                expected[(model, scheme, withheld, "id", name)] = 1
    if rows != expected:
        problems.append(
            f"report rows: {len(set(expected) - set(rows))} missing, "
            f"{len(set(rows) - set(expected))} unexpected, "
            f"{sum(1 for k, n in rows.items() if n > 1)} duplicated"
        )
    checkpoints = {p.name for p in (out / "checkpoints").glob("*.json")}
    wanted = {f"{m}__{s}__{w}.json" for m, s, w in workloads.variants(plan)}
    if checkpoints != wanted:
        problems.append(f"checkpoints: {len(wanted - checkpoints)} missing, "
                        f"{len(checkpoints - wanted)} unexpected")
    if plan["seed"] == workloads.DEFAULT_SEED:
        digest = sha256(out / "report.json")
        if digest != REFERENCE["report_sha256"][workload]:
            problems.append(f"report sha256 {digest} != reference at the default seed")
    if workload == "acceptance" and not problems:
        agg = report["aggregates"]["average"]
        zs = {method: agg[method]["zs"]["mean"] for method in agg}
        if zs["raw"] < 2.0 * zs["revin"]:
            problems.append(f"directional: raw ZS MASE {zs['raw']:.3f} < 2x revin {zs['revin']:.3f}")
        trio = [zs[m] for m in ("revin", "hybrid", "standardization")]
        if (max(trio) - min(trio)) / min(trio) > 0.10:
            problems.append(f"directional: revin/hybrid/standardization spread {trio} > 10%")
    return problems


def tail(values: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n >= 11:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.4f}"
    return text + f", n={n}"


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.plan, self.jobs = workloads.make_plan(workload, seed)
        self.work = work
        self.started = time.perf_counter()
        self.problems: list = []
        self.n_variants = len(workloads.variants(self.plan))
        self.plan_path = work / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan, indent=2))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.runs = 0

    def cli(self, *extra: str, out: Path, traced_spans: Path | None = None) -> dict:
        argv = [sys.executable]
        argv += [str(HERE / "traced_run.py"), str(traced_spans)] if traced_spans else ["-m", "tsnorm"]
        argv += ["run", "--plan", str(self.plan_path), "--out", str(out), "--jobs", str(self.jobs), *extra]
        log = self.work / f"log{self.runs}.txt"
        self.runs += 1
        r = run_cli(argv, self.env, log, self.started + DEADLINE_S)
        r["log"] = log
        return r

    def dry_runs(self, n: int) -> list:
        """Wall times of ``n`` `--dry-run` calls."""
        times = []
        for _ in range(n):
            r = self.cli("--dry-run", out=self.work / "dry")
            first = r["log"].read_text().splitlines()[:1]
            if r["code"] != 0 or first != [f"{self.n_variants} runs:"]:
                self.problems.append(f"dry run: exit {r['code']}, header {first}")
                break
            times.append(r["wall"])
        return times

    def full_run(self, name: str, traced_spans: Path | None = None) -> dict:
        out = self.work / name
        r = self.cli(out=out, traced_spans=traced_spans)
        r["problems"] = check_run(out, r["code"], self.plan, self.workload)
        if not r["problems"]:
            r["sha"] = sha256(out / "report.json")
            r["bytes"] = tree_bytes(out)
        self.problems += [f"{name}: {p}" for p in r["problems"]]
        shutil.rmtree(out, ignore_errors=True)
        return r

    def end_to_end(self, seconds: float) -> tuple[dict, list]:
        begin = time.perf_counter()
        self.dry_runs(1)  # warm-up: fills the bytecode and page caches
        # Half the set-up samples come before the full runs and half after,
        # so that they span the same stretch of machine time as wall_s.
        setup = self.dry_runs(SETUP_SAMPLES // 2)
        later = (SETUP_SAMPLES - len(setup)) * max(setup, default=1.0)
        runs = []
        while True:
            runs.append(self.full_run(f"out{len(runs)}"))
            now, last = time.perf_counter(), runs[-1]["wall"]
            if now - begin + last + later > seconds or now + last > self.started + DEADLINE_S:
                break
        setup += self.dry_runs(SETUP_SAMPLES - len(setup))
        good = [r for r in runs if not r["problems"]]
        if len({(r["sha"], r["bytes"]) for r in good}) > 1:
            self.problems.append("runs with one seed wrote different reports or artifact sizes")
        wall = statistics.median(r["wall"] for r in runs)
        steps = self.n_variants * self.plan["steps"]
        print(f"# wall_s: {tail([r['wall'] for r in runs])}")
        if setup:
            print(f"# setup_s: {tail(setup)}")
        metrics = {
            "wall_s": wall,
            "steps_per_s": steps / wall,
            "cpu_s": statistics.median(r["cpu"] for r in runs),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "artifact_mb": statistics.median(r.get("bytes", 0) for r in runs) / 1e6,
        }
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        return metrics, runs

    def traced(self) -> tuple[dict, list]:
        # The untraced run sits between the two traced ones, so that a drift
        # in machine speed cancels in trace.overhead_ratio.
        runs, derived = [], []
        for name in ("traced0", "untraced", "traced1"):
            spans_path = self.work / f"{name}.json" if name != "untraced" else None
            r = self.full_run(name, traced_spans=spans_path)
            runs.append(r)
            if spans_path is None or r["problems"]:
                continue
            spans = [tuple(s) for s in json.loads(spans_path.read_text())["spans"]]
            derived.append(layers.derive(spans))
            if len(derived) == 1:
                for group, share in layers.shares(spans).items():
                    print(f"# share of traced busy time: {group} {share:.3f}")
        base = runs[1]
        traced = [runs[0], runs[2]]
        if any(r.get("sha") != base.get("sha") for r in traced if not r["problems"]):
            self.problems.append("a traced report's sha256 differs from the untraced run's")
        if len(derived) < 2:
            return {}, runs
        for name in layers.EXACT_COUNTS:
            values = {d[name] for d in derived}
            if len(values) > 1:
                self.problems.append(f"{name} did not repeat between two runs: {sorted(values)}")
        first = derived[0]
        for name, want in workloads.protocol_counts(self.plan).items():
            if first[name] != want:
                self.problems.append(f"{name} = {first[name]}, the plan implies {want}")
        for name in ("models.forecast_calls", "metrics.mase_calls"):
            if first[name] != first["harness.eval_windows"]:
                self.problems.append(f"{name} = {first[name]} != harness.eval_windows")
        if first["models.pool_size"] + first["models.rejected"] != first["data.instances"]:
            self.problems.append("models.pool_size + models.rejected != data.instances")
        metrics = {
            name: first[name] if name in layers.EXACT_COUNTS else statistics.median(d[name] for d in derived)
            for name in first
        }
        metrics["trace.overhead_ratio"] = statistics.median(r["wall"] for r in traced) / base["wall"]
        return metrics, runs


def provenance(digests: set) -> str:
    loc = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return (
        f"# provenance: cores {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {metadata.version('numpy')}, src LOC {loc}, report sha256 {sorted(digests)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsnorm" / "cli.py").is_file():
        print(f"error: no tsnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            metrics, runs = bench.traced()
            wanted = layers.PER_LAYER
        else:
            metrics, runs = bench.end_to_end(args.seconds)
            wanted = layers.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(provenance({r["sha"] for r in runs if "sha" in r}))
    for problem in bench.problems:
        print(f"# FAIL {problem}")
    failed_runs = sum(1 for r in runs if r["problems"])
    print(f"# failed_ratio: {failed_runs / len(runs):.4g} ({failed_runs} of {len(runs)} runs)")
    for name, *_ in wanted:
        if name in metrics:
            value = metrics[name]
            print(f"# {name}: {value if isinstance(value, int) else f'{value:.6g}'} {layers.UNITS[name]}")
    result = {
        "correct": not bench.problems and len(metrics) == len(wanted),
        "attempted": bench.n_variants * len(runs),
        "failed": bench.n_variants * failed_runs,
        "metrics": {
            name: {"value": metrics[name], "unit": layers.UNITS[name]}
            for name, *_ in wanted if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
