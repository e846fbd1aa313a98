"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload ``run.py`` offers once untraced and once traced on a
tiny input (2**10 vertices, 1 s of measurement) and checks that each run
exits 0 and prints, as its last line, a result with ``correct: true``, no
failures, and exactly the metrics BENCHMARK.json names for that mode,
each with its unit.  It also checks that the benchmark exits non-zero
without printing a result when the source tree is missing.  Takes about
15 s on 2 CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common
import run

SMOKE_BITS = 10


def invoke(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=300,
    )


def check_result(workload: str, trace: int, units: dict) -> list[str]:
    """Problems with one tiny run (empty when it is well formed)."""
    proc = invoke([
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--scale-bits", str(SMOKE_BITS),
    ], common.ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
        problems.append(f"{where}: failures {details['failures']}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(
            f"{where}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    for name, entry in metrics.items():
        if entry.get("unit") != units.get(name):
            problems.append(f"{where}: {name} unit {entry.get('unit')}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} value {entry.get('value')}")
    return problems


def check_refuses_without_source() -> list[str]:
    """Only BENCHMARK.json and perfbench/: must fail, printing no result."""
    common.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=common.WORK_ROOT))
    try:
        shutil.copy(common.BENCHMARK_JSON, bare / "BENCHMARK.json")
        shutil.copytree(
            common.HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = invoke(["--workload", "hep_tight", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    end_to_end, per_layer = common.metric_units()
    problems = check_refuses_without_source()
    for workload in run.WORKLOADS:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            found = check_result(workload, trace, units)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
