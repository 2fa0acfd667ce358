"""Per-layer attribution of medsql commands, measured from outside.

The tracer wraps public functions of medsql's modules in the benchmark
process. Modules import these names directly (``from .query import
parse_sql``), so a wrapper replaces every attribute of every medsql module
that refers to the function, and :meth:`Tracer.uninstall` puts the
originals back. Each call records a span (name, start, end, parent); the
spans stay in memory until the run writes them out. Frequent leaves are
kept only as counts and times. A function's self time is its duration
minus the time of the wrapped calls made inside it, so the self times of
one command add up to that command's wall time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, keep one span per call). Frequent leaves keep counts only.
LAYER_FUNCTIONS = (
    ("query", "parse_sql", False),
    ("query", "tokenize_sql", False),
    ("query", "serialize_sql", False),
    ("store", "run_select", False),
    ("store", "open_exec_db", True),
    ("store", "load_corpus", True),
    ("store", "build_value_lookup", True),
    ("metrics", "logic_form_match", False),
    ("metrics", "execution_match", True),
    ("metrics", "results_equal", False),
    ("metrics", "component_breakdown", False),
    ("rerank", "rerank", True),
    ("recovery", "recover_query", True),
    ("recovery", "recover_value", True),
    ("recovery", "similarity", False),
    ("records", "file_sha256", True),
    ("records", "write_jsonl", True),
    ("records", "write_json", True),
    ("records", "atomic_write_text", True),
    ("predictions", "load_predictions", True),
    ("predictions", "save_predictions", True),
    ("splits", "assign_splits", True),
    ("splits", "verify_split", True),
    ("linearize", "build_model_input", False),
    ("augment", "back_translate", False),
)


class Stat:
    __slots__ = ("calls", "total", "self", "errors", "rows", "bytes", "exact_hits", "strings", "in_rerank")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0
        self.rows = 0
        self.bytes = 0
        self.exact_hits = 0
        self.strings: set[str] = set()
        self.in_rerank = 0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls, "total": self.total, "self": self.self, "errors": self.errors,
            "rows": self.rows, "bytes": self.bytes, "exact_hits": self.exact_hits,
            "distinct": len(self.strings), "in_rerank": self.in_rerank,
        }


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_extra(name, stat, parent, args, kwargs, result, error):
    if name == "query.parse_sql":
        stat.strings.add(_arg(args, kwargs, 0, "text"))
    elif name == "store.run_select":
        if parent == "rerank.rerank":
            stat.in_rerank += 1
        if not error:
            stat.rows += len(result)
    elif name == "records.file_sha256":
        stat.bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif name == "records.atomic_write_text":
        stat.bytes += len(_arg(args, kwargs, 1, "text").encode("utf-8"))
    elif name == "recovery.recover_value" and not error:
        stat.exact_hits += result[0] == _arg(args, kwargs, 0, "predicted")


class Tracer:
    """Spans and per-command statistics of wrapped medsql functions."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent id
        self.commands: dict[str, dict] = {}  # command -> {"wall", "self", "fns": {name: Stat}}
        self._stack: list[list] = []  # frames: [name, child time, span id for children]
        self._stats: dict[str, Stat] = defaultdict(Stat)
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 1

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "medsql" or n.startswith("medsql.")]
        for module_name, func_name, keep in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"medsql.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, keep)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, keep):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._new_id() if keep else (parent[2] if parent else 0)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, start, clock(), keep, parent, args, kwargs, None, True)
                raise
            self._exit(frame, start, clock(), keep, parent, args, kwargs, result, False)
            return result

        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _exit(self, frame, start, end, keep, parent, args, kwargs, result, error):
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        name = frame[0]
        stat = self._stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self += duration - frame[1]
        stat.errors += error
        _count_extra(name, stat, parent[0] if parent else None, args, kwargs, result, error)
        if keep:
            parent_id = parent[2] if parent else 0
            self.spans.append((frame[2], name, start - self.origin, end - self.origin, parent_id))

    @contextmanager
    def command(self, command: str):
        """Root span of one command; its statistics go under its name."""
        if self._stack:
            raise RuntimeError("a command span must be the outermost span")
        self._stats = defaultdict(Stat)
        frame = [f"cli.{command}", 0.0, self._new_id()]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                raise RuntimeError(f"{len(self._stack)} span(s) left open in {command}")
            self.spans.append((frame[2], frame[0], start - self.origin, end - self.origin, 0))
            self.commands[command] = {
                "wall": end - start,
                "self": end - start - frame[1],
                "fns": {name: stat.to_dict() for name, stat in self._stats.items()},
            }


def _sum(commands: dict, fn: str, key: str) -> float:
    return sum(c["fns"].get(fn, {}).get(key, 0) for c in commands.values())


def layer_metrics(commands: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (``Tracer.commands``)."""
    m: dict[str, float] = {}
    for fn in ("query.parse_sql", "query.tokenize_sql", "query.serialize_sql", "store.run_select",
               "metrics.results_equal", "rerank.rerank", "recovery.recover_query", "recovery.similarity",
               "records.file_sha256", "linearize.build_model_input", "augment.back_translate"):
        m[f"{fn}.calls"] = _sum(commands, fn, "calls")
    for fn in ("query.parse_sql", "query.tokenize_sql", "query.serialize_sql", "store.run_select",
               "store.load_corpus", "metrics.logic_form_match", "metrics.execution_match",
               "metrics.results_equal", "metrics.component_breakdown", "rerank.rerank",
               "recovery.recover_query", "recovery.similarity", "records.file_sha256",
               "records.write_jsonl", "records.write_json", "predictions.load_predictions",
               "predictions.save_predictions", "splits.assign_splits", "splits.verify_split",
               "linearize.build_model_input", "augment.back_translate"):
        m[f"{fn}.self_s"] = _sum(commands, fn, "self")
    distinct = _sum(commands, "query.parse_sql", "distinct")
    m["query.parses_per_sql_string"] = m["query.parse_sql.calls"] / distinct if distinct else 0.0
    m["store.run_select.errors"] = _sum(commands, "store.run_select", "errors")
    m["store.run_select.rows"] = _sum(commands, "store.run_select", "rows")
    m["store.open_exec_db.calls"] = _sum(commands, "store.open_exec_db", "calls")
    m["store.build_value_lookup.s"] = _sum(commands, "store.build_value_lookup", "total")
    beams = m["rerank.rerank.calls"]
    m["rerank.executions_per_beam"] = _sum(commands, "store.run_select", "in_rerank") / beams if beams else 0.0
    m["recovery.recover_value.calls"] = _sum(commands, "recovery.recover_value", "calls")
    m["recovery.recover_value.exact_hits"] = _sum(commands, "recovery.recover_value", "exact_hits")
    misses = m["recovery.recover_value.calls"] - m["recovery.recover_value.exact_hits"]
    m["recovery.pairs_per_miss"] = m["recovery.similarity.calls"] / misses if misses else 0.0
    m["records.file_sha256.bytes"] = _sum(commands, "records.file_sha256", "bytes")
    m["records.atomic_write_text.bytes"] = _sum(commands, "records.atomic_write_text", "bytes")
    for command, c in commands.items():
        m[f"cli.{command}.self_s"] = c["self"]
    return m


def time_shares(command: dict) -> dict[str, float]:
    """Share of one traced command's wall time per wrapped function (self
    time) and for the command itself (``cli.<command>``), largest first."""
    shares = {fn: stat["self"] / command["wall"] for fn, stat in command["fns"].items()}
    shares["cli"] = command["self"] / command["wall"]
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
