"""One workload process: timed rounds of the command pipeline.

Started by run.py after set-up, so its peak RSS is that of the commands
alone. It runs one untimed warm-up round, then closed-loop rounds until
``--seconds`` have elapsed (at least ``MIN_ROUNDS``). A round runs every
command of the pipeline once, in order, one at a time, with the host-speed
probe (probe.py) timed before the first command and after each one, so
that every command sits between two probes. Every output file
and manifest is hashed after each command and compared with the warm-up
round. With ``--trace 1`` the rounds alternate between untraced and
traced, so the tracing overhead is measured in the same process. The result goes to
``--result`` as JSON; the commands' own stdout is discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import Probe  # noqa: E402
from workloads import pipeline  # noqa: E402

MIN_ROUNDS = 4
SELF_SUM_TOLERANCE = 1e-6  # seconds, float rounding over thousands of spans


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/medsql")
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--test-size", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced spans are written to")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from medsql.cli import cmd

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    probe = Probe()
    Path(args.out).mkdir(parents=True, exist_ok=True)
    steps = pipeline(Path(args.data), Path(args.out), args.workload, args.test_size)
    reference: dict[str, str | None] = {}
    failures: list[str] = []
    checks = 0
    commands_run = 0

    def run_round(index: int, traced: bool) -> dict:
        nonlocal checks, commands_run
        times: dict[str, float] = {}
        gc.collect()
        around: dict[str, list[float]] = {}  # command -> probe times before and after it
        last = probe()
        if traced:
            tracer.commands = {}
            tracer.install()
        try:
            for name, argv, outputs in steps:
                gc.collect()
                scope = tracer.command(name) if traced else contextlib.nullcontext()
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    start = time.perf_counter()
                    try:
                        with scope:
                            code = cmd(argv)
                    except Exception as exc:  # a crash is a failed command, not a failed run
                        code = f"{type(exc).__name__}: {exc}"
                    times[name] = time.perf_counter() - start
                gc.collect()
                around[name] = [last, probe()]
                last = around[name][1]
                commands_run += 1
                if code != 0:
                    failures.append(f"round {index}: {name} exited with {code}")
                for out in outputs:
                    for path in (out, out.with_name(out.name + ".manifest.json")):
                        digest = _digest(path)
                        if index == 0:
                            reference[str(path)] = digest
                        else:
                            checks += 1
                            if digest is None or digest != reference[str(path)]:
                                failures.append(f"round {index}: {path.name} differs from the warm-up round")
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "times": times, "probes": around}
        if traced:
            for name, command in tracer.commands.items():
                checks += 1
                covered = command["self"] + sum(f["self"] for f in command["fns"].values())
                if abs(covered - command["wall"]) > SELF_SUM_TOLERANCE or command["wall"] > times[name]:
                    failures.append(f"round {index}: self times of {name} add up to {covered:.6f} s, "
                                    f"not its traced wall time {command['wall']:.6f} s")
                if any(f["self"] < 0 for f in command["fns"].values()):
                    failures.append(f"round {index}: negative self time in {name}")
            record["commands"] = tracer.commands
        return record

    run_round(0, False)  # imports, page cache, reference hashes
    rounds = []
    deadline = time.perf_counter() + args.seconds
    index = 1
    while index <= MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(index, bool(tracer) and index % 2 == 0))
        index += 1

    if tracer is not None and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": tracer.spans}, fh)
    result = {
        "rounds": rounds,
        "commands_run": commands_run,
        "checks": checks,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    probe.close()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
