#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload align --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice for half the time each, untraced
and then with every layer's public entry points wrapped in span timers,
and reports the per-layer metrics of the traced pass together with the
tracing overhead (traced over untraced ``request_p50_ms``) and the
untraced pass's ``request_p99_ms``.  Metric
names and units come from ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 1 when any output check failed.  Progress notes go to
standard error.  Scratch files live in ``.perfbench-work/`` under the
repository root and are removed on exit.

Seed :data:`DEV_SEED` is for development; claims about a change are
made on :data:`HELD_OUT_SEED`, which tuning never looks at.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("align", "serve_read")
DEV_SEED = 1
HELD_OUT_SEED = 7919


def run_pass(workload: str, args, seconds: float, work: Path, tracer, first: bool):
    if workload == "align":
        from perfbench import align_bench

        return align_bench.run(
            args.seed, seconds, args.tiny, tracer, pinned=first and not args.tiny
        )
    from perfbench import serve_bench

    return serve_bench.run(
        workload, args.seed, seconds, args.tiny, tracer, work / ("traced" if tracer else "plain")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny worlds and short phases (the smoke test); skips the pinned Table 1",
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    os.environ["REPRO_WORLD_CACHE"] = str(work / "worlds")
    tempfile.tempdir = str(work)
    try:
        if args.trace:
            from perfbench.spans import SpanTracer

            plain = run_pass(args.workload, args, args.seconds / 2, work, None, True)
            with SpanTracer() as tracer:
                traced = run_pass(args.workload, args, args.seconds / 2, work, tracer, False)
            outcome = traced
            outcome.metrics["trace.overhead_ratio"] = (
                traced.metrics["request_p50_ms"] / plain.metrics["request_p50_ms"]
            )
            outcome.metrics["request_p99_ms"] = plain.metrics["request_p99_ms"]
            outcome.attempted += plain.attempted
            outcome.failed += plain.failed
            outcome.problems[:0] = plain.problems
            outcome.notes[:0] = plain.notes
        else:
            outcome = run_pass(args.workload, args, args.seconds, work, None, True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in outcome.notes + [f"MISMATCH: {p}" for p in outcome.problems]:
        print(line, file=sys.stderr)
    missing = [item["name"] for item in wanted if item["name"] not in outcome.metrics]
    if missing:
        raise SystemExit(f"workload {args.workload} did not measure {missing}")
    unmeasurable = [
        item["name"] for item in wanted if not math.isfinite(outcome.metrics[item["name"]])
    ]
    if unmeasurable:
        # A latency percentile lost to failed requests has no value.
        raise SystemExit(f"workload {args.workload}: {unmeasurable} not finite")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            item["name"]: {"value": outcome.metrics[item["name"]], "unit": item["unit"]}
            for item in wanted
        },
    }))
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    sys.exit(main())
