#!/usr/bin/env python3
"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload of ``BENCHMARK.json`` at tiny size, untraced and
traced, and checks that each run exits 0, passes its output check and
prints every declared metric by name with its declared unit and a
finite value.  Then runs the benchmark from a copy holding only
``BENCHMARK.json`` and the benchmark's own files, where it must exit
non-zero without printing a result.  Takes about a minute; exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds per tiny run: long enough for every phase to see requests.
SECONDS = {"align": "3", "serve_read": "4"}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", SECONDS[workload], "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def check_run(declared: dict, workload: str, trace: int) -> list:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(
            f"correct={result['correct']} failed={result['failed']} "
            f"attempted={result['attempted']}"
        )
    wanted = {item["name"]: item["unit"] for item in declared["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(wanted):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(wanted))}")
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    return problems


def check_without_program(declared: dict) -> list:
    """Only BENCHMARK.json and the benchmark's paths: exit non-zero, no result."""
    bare = ROOT / ".perfbench-work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in declared["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        done = run(bare, declared["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if done.returncode == 0 or done.stdout.strip():
        return [f"without the program: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    checks = [
        (f"{item['name']} --trace {trace}", lambda w=item["name"], t=trace: check_run(declared, w, t))
        for item in declared["workloads"]
        for trace in (0, 1)
    ]
    checks.append(("without the program", lambda: check_without_program(declared)))
    for label, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
