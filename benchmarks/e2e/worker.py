"""One workload in this process: set up, measure, check, write the result.

Started by the orchestrator (``benchmarks.e2e.cli``) as a fresh
subprocess per workload run, so imports, caches and module patches of
one run never leak into the next.  ``setup_s`` counts from the first
line of this module, before anything from ``repro`` is imported.
"""

import time

_PROCESS_START = time.perf_counter()  # mpros: allow[lint.wall-clock]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from benchmarks.e2e import dc_scan, intake, serve, ship  # noqa: E402
from benchmarks.e2e.common import metric, wall  # noqa: E402
from benchmarks.e2e.metrics import layer_values  # noqa: E402
from benchmarks.e2e.spans import Tracer  # noqa: E402

WORKLOADS = {"ship": ship, "dc_scan": dc_scan, "intake": intake, "serve": serve}
#: Fewest samples behind a latency quantile, so that at least 50 lie
#: beyond p95.  ``write_p95_ms`` is exempt: ``serve`` writes once per ten queries.
MIN_LATENCY_SAMPLES = 1000
FEW_SAMPLES_ALLOWED = frozenset({"write_p95_ms"})


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes(args.seconds, args.smoke)
    tracer = Tracer() if args.trace else None
    out = Path(args.out)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=out) as tmp:
        state = workload.prepare(args.seed, sizes, tracer, Path(tmp))
        # Inputs and set-up state live for the whole run; keep the cyclic
        # collector from re-scanning them inside the measured window.
        gc.collect()
        gc.freeze()
        setup_s = wall() - _PROCESS_START - state.excluded_s
        if args.setup_only:
            return {"setup_s": setup_s}
        workload.measure(state)
        # Read before the post-run checks, which hold state of their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = workload.finish(state)
    metrics = result["metrics"]
    metrics["setup_s"] = metric(setup_s, "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    metrics["failed_ratio"] = metric(
        result["failed"] / result["attempted"], "ratio", result["attempted"]
    )
    if not args.smoke:
        result["checks"]["every_latency_quantile_has_1000_samples"] = all(
            m["n"] >= MIN_LATENCY_SAMPLES
            for name, m in metrics.items()
            if m["unit"] == "ms" and name not in FEW_SAMPLES_ALLOWED
        )
    result["sizes"] = sizes
    if tracer is not None:
        result["layers"] = layer_values(tracer.spans, result["counts"], result["busy_s"])
        tracer.dump(out / f"trace-{args.workload}.json")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="directory for traces and scratch files")
    parser.add_argument("--result", required=True, help="file to write the result JSON to")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop after set-up and report only setup_s (same inputs as a measured run)",
    )
    args = parser.parse_args(argv)
    # Turn a termination request into an exception so temporary files are
    # removed and the serve reader is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
