"""Smoke test of the benchmark itself, at a tiny scale.

    python3 perfbench/smoke.py

Checks that the generator writes identical bytes for one seed and other
bytes for another, and that every workload, untraced and traced, finishes
with no failed operation and reports exactly the metrics BENCHMARK.json
names. Exits 0 when all of that holds; takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import datagen  # noqa: E402
from run import digests  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def main() -> int:
    problems = []
    scratch = ROOT / ".perfbench" / f"smoke-{os.getpid()}"
    try:
        trees = []
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            datagen.generate(scratch / name, seed, TINY)
            trees.append(digests(scratch / name))
        if trees[0] != trees[1]:
            problems.append("generator: one seed gave different bytes")
        if trees[0] == trees[2]:
            problems.append("generator: two seeds gave the same bytes")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json names other workloads than workloads.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0.2", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{label}: exit code {run.returncode}: {run.stderr[-500:]}")
                continue
            result = json.loads(run.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed: "
                                f"{run.stdout.splitlines()[-2][-800:]}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ wanted[trace])}")
            print(f"{label}: {result['attempted']} operations, {result['failed']} failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
