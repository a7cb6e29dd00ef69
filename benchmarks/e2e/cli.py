"""Orchestrator: run each workload in its own fresh subprocess, report, compare.

``python -m benchmarks.e2e run --seed 0 --out DIR [--trace] [--smoke]``
runs the four workloads one after another, prints every metric by name
with its unit, writes ``DIR/result.json`` and exits nonzero if any
correctness check fails.  ``python -m benchmarks.e2e compare A/ B/``
judges two sets of such runs.  :func:`bench_main` is the one-workload,
one-JSON-line form used through ``benchmarks/e2e/bench.py``.

This module imports nothing from ``repro``: only the workload
subprocesses do, so each one times its own imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e.compare import compare
from benchmarks.e2e.metrics import E2E, HEADLINE, LAYER_METRICS, THROUGHPUT

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOADS = tuple(HEADLINE)
#: Fresh processes whose set-up time is measured, all with the same
#: inputs; ``setup_s`` is their median.
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170.0
STOP_GRACE_S = 20.0
#: Inside a directory the repository already ignores.
DEFAULT_OUT = ROOT / ".benchmarks" / "e2e"


def run_seconds() -> float:
    """The measured length of every workload run, as ``BENCHMARK.json``
    gives it to the one-workload form."""
    return float(json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["run_seconds"])


class WorkerError(RuntimeError):
    """A workload subprocess failed or timed out."""


def _missing_source() -> str | None:
    if not (ROOT / "src" / "repro").is_dir():
        return f"no program source at {ROOT / 'src' / 'repro'}; run from a full checkout"
    return None


def _stop(proc: subprocess.Popen) -> None:
    """Ask a workload process to stop (it then removes its scratch files),
    kill it if it does not, and wait until it has ended."""
    proc.terminate()
    try:
        proc.communicate(timeout=STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def spawn(
    workload: str, seed: int, seconds: float, out: Path, *,
    smoke: bool = False, trace: bool = False, setup_only: bool = False,
) -> dict[str, Any]:
    """Run one workload in a fresh interpreter and return its result."""
    result_file = out / f"worker-{workload}-{os.getpid()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # The load runs on at most two threads; keep native pools single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
        "--out", str(out), "--result", str(result_file),
    ]
    cmd += ["--smoke"] * smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        _stop(proc)
        raise WorkerError(f"{workload} worker timed out after {exc.timeout:.0f} s") from exc
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n{stderr[-4000:]}")
    try:
        return json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        result_file.unlink(missing_ok=True)


def run_workload(
    workload: str, seed: int, seconds: float, out: Path, *, smoke: bool, trace: bool
) -> dict[str, Any]:
    """The untraced run (plus set-up repeats and, with ``trace``, a traced run)."""
    measured = spawn(workload, seed, seconds, out, smoke=smoke)
    setups = [measured["metrics"]["setup_s"]["value"]]
    for _ in range(SETUP_REPEATS - 1):
        setups.append(spawn(workload, seed, seconds, out, smoke=smoke, setup_only=True)["setup_s"])
    measured["metrics"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "n": len(setups), "processes": setups
    }
    entry = {
        key: measured[key]
        for key in ("sizes", "metrics", "checks", "attempted", "failed", "errors")
        if key in measured
    }
    if trace:
        traced = spawn(workload, seed, seconds, out, smoke=smoke, trace=True)
        # Throughput is the same work over busy time, so this is traced over
        # untraced busy time.  A latency quantile can jump between modes
        # when tracing slows one kind of operation more than another.
        rate = THROUGHPUT[workload]
        layers = traced["layers"]
        layers["bench.trace_overhead"] = (
            measured["metrics"][rate]["value"] / traced["metrics"][rate]["value"]
        )
        entry["layers"] = layers
        entry["checks"] = dict(entry["checks"])
        entry["checks"].update({f"traced: {k}": v for k, v in traced["checks"].items()})
        if measured["digest"] is not None:
            entry["checks"]["traced_and_untraced_outputs_identical"] = (
                traced["digest"] == measured["digest"]
            )
    return entry


def _print_entry(workload: str, entry: dict[str, Any]) -> None:
    sizes = ", ".join(f"{k}={v}" for k, v in entry["sizes"].items())
    print(f"== {workload}  ({sizes})")
    for name in sorted(entry["metrics"]):
        m = entry["metrics"][name]
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<8} n={m['n']}")
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    for name, value in entry.get("layers", {}).items():
        print(f"  [layer] {name:<34} {value:>14.6g} {units[name]}")
    for name, ok in entry["checks"].items():
        print(f"  check {name}: {'PASS' if ok else 'FAIL'}")
    for error in entry.get("errors", []):
        print(f"  error: {error.strip().splitlines()[-1]}")


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    seconds = run_seconds()
    for workload in WORKLOADS:
        entry = run_workload(
            workload, args.seed, seconds, out, smoke=args.smoke, trace=args.trace
        )
        _print_entry(workload, entry)
        results[workload] = entry
    doc = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "host_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "workloads": results,
    }
    (out / "result.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    failed = [f"{w}: {c}" for w, e in results.items() for c, ok in e["checks"].items() if not ok]
    print(f"wrote {out / 'result.json'}")
    if failed:
        print("FAILED checks:\n  " + "\n  ".join(failed))
        return 1
    print("all checks passed")
    return 0


def _exit_on_sigterm() -> None:
    """Raise on SIGTERM, so :func:`spawn` stops the running workload
    process and waits for it before this one exits."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def main(argv: list[str] | None = None) -> int:
    _exit_on_sigterm()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=str(DEFAULT_OUT), help="result and trace directory")
    run.add_argument("--trace", action="store_true", help="also make a traced run per workload")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    cmp = sub.add_parser("compare", help="judge run set B against run set A")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b, BENCHMARK_JSON)
    problem = _missing_source()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        return cmd_run(args)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1


def bench_main(argv: list[str]) -> int:
    """One workload, printed as one JSON line: the end-to-end metrics under
    their generic names, or with ``--trace 1`` every per-layer metric."""
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/bench.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _missing_source()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    DEFAULT_OUT.mkdir(parents=True, exist_ok=True)
    try:
        entry = run_workload(
            args.workload, args.seed, args.seconds, DEFAULT_OUT, smoke=False,
            trace=bool(args.trace),
        )
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": entry["layers"][name], "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    else:
        own = {**HEADLINE[args.workload], "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
        metrics = {
            name: {"value": entry["metrics"][own[name]]["value"], "unit": unit}
            for name, (unit, _) in E2E.items()
        }
    correct = all(entry["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1
