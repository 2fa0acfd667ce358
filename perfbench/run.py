"""medsql benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus_prep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/medsql`` and
``tests/reference.py``. The run generates its inputs from ``--seed``
(several times, to time set-up), starts one workload process that drives
every ``medsql`` subcommand through ``medsql.cli.cmd`` for ``--seconds``,
checks the outputs, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
rounds with ``--trace 1``. The line before it describes the inputs (sizes
and shares) and the environment. Scratch files live under ``.perfbench/``
in the checkout; traced spans are kept there as
``spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import datagen  # noqa: E402
import tracer  # noqa: E402
from probe import REFERENCE_S, Probe  # noqa: E402
from workloads import COMMANDS, THROUGHPUT, TINY, WORKLOADS, items  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170  # the whole run, set-up and checks included


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` on a host where the probe takes ``REFERENCE_S``, from
    the probe times measured just before and just after."""
    return seconds / ((before + after) / 2) * REFERENCE_S


def _setup(directory: Path, seed: int, scale, build_exec_db, load_schema):
    """Generate inputs and build the execution database; returns
    (truth, seconds in total, seconds in build_exec_db)."""
    start = time.perf_counter()
    truth = datagen.generate(directory, seed, scale)
    schema = load_schema(directory / "schema.json")
    tables = {t.name: directory / "tables" / f"{t.name}.csv" for t in schema.tables}
    db_start = time.perf_counter()
    build_exec_db(schema, tables, directory / "clinic.db")
    end = time.perf_counter()
    return truth, end - start, end - db_start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test scale instead of the workload's")
    args = ap.parse_args()
    started = time.perf_counter()

    for needed in (ROOT / "src" / "medsql" / "cli.py", ROOT / "tests" / "reference.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a medsql checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    from medsql.store import build_exec_db, load_schema

    scale = TINY if args.tiny else WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    gate = checks.Gate()
    probe = Probe()
    try:
        setups = []
        probes = [probe()]  # probes[k] before set-up k, probes[k + 1] after it
        for k in range(SETUPS):
            setups.append(_setup(work / f"setup{k}", args.seed, scale, build_exec_db, load_schema))
            probes.append(probe())
        data = work / "setup0"
        truth = setups[0][0]
        # The generator is deterministic: every set-up wrote the same bytes.
        reference = digests(data)
        for k in range(1, SETUPS):
            written = digests(work / f"setup{k}")
            for name, digest in reference.items():
                gate.check(written.get(name) == digest, f"set-up {k}: {name} differs from set-up 0")
            shutil.rmtree(work / f"setup{k}")

        out = work / "out"
        result_path = work / "rounds.json"
        spans = scratch / f"spans-{args.workload}-{args.seed}.json"
        # The hash seed follows the run seed: one seed, one hash ordering.
        env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 4294967295 + 1))
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        subprocess.run(
            [sys.executable, str(HERE / "passes.py"), "--root", str(ROOT), "--data", str(data),
             "--out", str(out), "--workload", args.workload, "--test-size", str(truth.test_size),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans),
             "--result", str(result_path)],
            env=env, check=True, timeout=budget, stdout=subprocess.DEVNULL,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        gate.attempted += result["commands_run"] + result["checks"]
        gate.failures += result["failures"]

        work_items = items(truth, scale)
        test_ids = checks.check_outputs(gate, ROOT, data, out, args.workload, truth, scale, args.seed,
                                        work_items["linearize"])
        rounds = result["rounds"]
        untraced = [r for r in rounds if not r["traced"]]

        def round_time(r, c):
            return normalized(r["times"][c], *r["probes"][c])

        # Each command's normalized time, median over the untraced rounds.
        per_command = {c: statistics.median(round_time(r, c) for r in untraced) for c in COMMANDS}
        wall = sum(per_command.values())
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "sizes": {**asdict(scale), "test_size": truth.test_size, "items": work_items},
            "shares": truth.shares,
            "rounds": len(rounds),
            "round_seconds": sorted(sum(r["times"].values()) for r in untraced),
            "command_seconds": {c: sorted(r["times"][c] for r in untraced) for c in COMMANDS},
            "probe_seconds": sorted(p[0] for r in untraced for p in r["probes"].values()),
            "setup_seconds": [s[1] for s in setups],
            "environment": {"python": sys.version.split()[0], "sqlite": sqlite3.sqlite_version,
                            "nproc": os.cpu_count()},
        }
        if args.trace:
            traced = [r for r in rounds if r["traced"]]
            expected = checks.expected_counts(truth, scale, args.workload, test_ids)
            for r in traced:
                checks.check_traced(gate, r["commands"], expected, work_items["linearize"])
            layers = [tracer.layer_metrics(r["commands"]) for r in traced]
            metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
            metrics["store.build_exec_db.s"] = statistics.median(s[2] for s in setups)
            metrics["trace.overhead_ratio"] = statistics.median(
                sum(round_time(r, c) for c in COMMANDS) for r in traced) / statistics.median(
                sum(round_time(r, c) for c in COMMANDS) for r in untraced)
            info["time_shares"] = {c: tracer.time_shares(traced[-1]["commands"][c]) for c in COMMANDS}
            units = {"calls": "count", "errors": "count", "rows": "count", "exact_hits": "count",
                     "bytes": "bytes", "self_s": "s", "s": "s"}
            report = {name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "ratio")}
                      for name, value in metrics.items()}
        else:
            setup_s = statistics.median(normalized(s[1], probes[k], probes[k + 1]) for k, s in enumerate(setups))
            report = {"setup_s": {"value": setup_s, "unit": "s"},
                      "wall_s": {"value": wall, "unit": "s"}}
            for command in COMMANDS:
                name, unit = THROUGHPUT[command]
                report[name] = {"value": work_items[command] / per_command[command], "unit": unit}
            report["peak_rss_mb"] = {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"}
        info["failures"] = gate.failures[:20]
        print(json.dumps(info, sort_keys=True))
        print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                          "failed": len(gate.failures), "metrics": report}))
        return 0
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
