"""Quick self-check of the benchmark, run from the root of the checkout:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at the reduced "tiny" size, untraced
and traced, each in its own process, and checks that the last output line has
exactly the summary schema, that the run was correct, and that it reports
exactly the metric names and units BENCHMARK.json declares. It also checks
that the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_summary(line: str, declared: dict[str, str], nonzero: bool) -> list[str]:
    try:
        out = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"summary keys {sorted(out)}")
        return problems
    if out["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(out["attempted"], int) and out["attempted"] >= 1):
        problems.append(f"attempted {out['attempted']!r}")
    if out["failed"] != 0:
        problems.append(f"failed {out['failed']!r}")
    metrics = out["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: missing {sorted(set(declared) - set(metrics))}"
                        f", extra {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(entry)}")
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
        if name in declared and entry["unit"] != declared[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, declared {declared[name]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in kinds.items():
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace),
                   "--size", "tiny"]
            proc = run(cmd, ROOT)
            lines = proc.stdout.strip().splitlines()
            problems = ([f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
                        if proc.returncode != 0 or not lines
                        else check_summary(lines[-1], declared, nonzero=trace == 0))
            status = "ok" if not problems else "FAIL"
            print(f"{workload:7s} trace={trace}: {status}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([sys.executable, *spec["command"][1:], "--workload",
                spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                "--trace", "0"], bare)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory refused: {'ok' if refused else 'FAIL'}")
    failures += not refused
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
