"""Correctness gate: the program's outputs against the generator's truth
and against the independent oracle in tests/reference.py.

Every comparison is one attempted operation; a disagreement is one failed
operation. The oracle is slow, so it checks a seeded subset; the counts
known by construction are checked in full.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sqlite3
from pathlib import Path

from datagen import DESIGNATED, RECOVERY_TEMPLATES, Scale, Truth, render_sql

ORACLE_SAMPLES = 40  # eval samples and beams checked against the oracle
PIVOTS = 2  # augment --stub uses the default pivots (fr, de)


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def load_oracle(root: Path):
    path = Path(root) / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("medsql_reference_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _expected_rerank(kinds: list[str]) -> tuple[int | None, int, int]:
    """(chosen 0-based rank or None, candidates executed, errors) under
    --require-nonempty."""
    for rank, kind in enumerate(kinds):
        if kind == "nonempty":
            return rank, rank + 1, kinds[:rank].count("non_exec")
    return None, len(kinds), kinds.count("non_exec")


def expected_counts(truth: Truth, scale: Scale, workload: str, test_ids: set[str]) -> dict[str, int]:
    """Counters of one round that follow from the inputs by construction."""
    executed = errors = 0
    chosen_error = {}
    for sid, kinds in truth.beam_kinds.items():
        rank, tried, errs = _expected_rerank(kinds)
        executed += tried
        errors += errs
        chosen_error[sid] = rank is None and kinds[0] == "non_exec"
    if workload == "exec_heavy":
        # Samples without a beam have no prediction to score.
        scored = [sid for sid in test_ids if sid in truth.beam_kinds]
        eval_errors = sum(1 for sid in scored if chosen_error[sid])
    else:
        scored = list(test_ids)
        eval_errors = sum(1 for sid in scored if truth.top1_kind[sid] in ("non_exec", "unparsed"))
    kinds = [it["kind"] for it in truth.recover_items]
    return {
        "rerank.calls": len(truth.beam_kinds),
        "rerank.executions": executed,
        "rerank.errors": errors,
        "eval.errors": eval_errors,
        "eval.missing": len(test_ids) - len(scored),
        "eval.execution_match.calls": len(scored),
        "recover.recover_query.calls": len(kinds),
        "recover.recover_value.calls": len(kinds) - kinds.count("unparsed"),
        "recover.exact_hits": kinds.count("hit"),
        "augment.back_translate.calls": scale.samples * PIVOTS,
    }


def check_traced(gate: Gate, commands: dict, expected: dict[str, int], linearize_records: int) -> None:
    """Traced counters against the counts known by construction."""
    def fn(command, name, key="calls"):
        return commands[command]["fns"].get(name, {}).get(key, 0)

    pairs = [
        ("rerank.rerank.calls", fn("rerank", "rerank.rerank"), expected["rerank.calls"]),
        ("run_select calls under rerank", fn("rerank", "store.run_select"), expected["rerank.executions"]),
        ("store.run_select.errors in rerank", fn("rerank", "store.run_select", "errors"), expected["rerank.errors"]),
        ("store.run_select.errors in eval", fn("eval", "store.run_select", "errors"), expected["eval.errors"]),
        ("metrics.execution_match.calls", fn("eval", "metrics.execution_match"), expected["eval.execution_match.calls"]),
        ("recovery.recover_query.calls", fn("recover", "recovery.recover_query"), expected["recover.recover_query.calls"]),
        ("recovery.recover_value.calls", fn("recover", "recovery.recover_value"), expected["recover.recover_value.calls"]),
        ("recovery.recover_value.exact_hits", fn("recover", "recovery.recover_value", "exact_hits"),
         expected["recover.exact_hits"]),
        ("augment.back_translate.calls", fn("augment", "augment.back_translate"), expected["augment.back_translate.calls"]),
        ("linearize.build_model_input.calls", fn("linearize", "linearize.build_model_input"), linearize_records),
    ]
    for name, got, want in pairs:
        gate.check(got == want, f"traced {name} = {got}, expected {want} by construction")


def check_outputs(gate: Gate, root: Path, data: Path, out: Path, workload: str, truth: Truth,
                  scale: Scale, seed: int, linearize_records: int) -> set[str]:
    """Check the last round's outputs; returns the TEST ids."""
    oracle = load_oracle(root)
    rng = random.Random(f"medsql-bench-check:{seed}")

    # ingest: canonical SQL, singular table names normalized.
    corpus = {r["id"]: r for r in _jsonl(out / "corpus.jsonl")}
    gate.check(corpus.keys() == truth.gold.keys(), "ingested ids differ from the raw corpus")
    for sid, gold in truth.gold.items():
        gate.check(corpus.get(sid, {}).get("sql") == gold, f"ingest: {sid} is not the canonical SQL")

    # split: leakage by the oracle's main-table regex, TEST size.
    assignment = dict(line.rstrip("\n").split("\t") for line in open(out / "assignment.tsv", encoding="utf-8"))
    for sid, gold in truth.gold.items():
        split = assignment.get(sid)
        main = oracle.ref_main_table(gold)
        if split == "TRAIN":
            ok = main not in DESIGNATED
        else:
            ok = split in ("DEV", "TEST") and main in DESIGNATED and not oracle.ref_join_tables(gold) & set(DESIGNATED)
        gate.check(ok, f"split: {sid} in {split} with main table {main}")
    test_ids = {sid for sid, split in assignment.items() if split == "TEST"}
    gate.check(len(test_ids) == truth.test_size, f"split: {len(test_ids)} TEST samples, asked {truth.test_size}")

    # linearize and augment: record counts.
    gate.check(len(_jsonl(out / "train.jsonl")) == linearize_records, "linearize: record count")
    report = json.loads((out / "augment_report.json").read_text(encoding="utf-8"))
    gate.check(report["added"] + report["dropped_degenerate"] == scale.samples * PIVOTS and not report["errors"],
               "augment: round trips do not add up to samples x pivots")

    conn = sqlite3.connect(f"file:{data / 'clinic.db'}?mode=ro", uri=True)
    try:
        # rerank: every beam by construction, a subset by the oracle.
        reranked = {r["id"]: r for r in _jsonl(out / "reranked.jsonl")}
        gate.check(reranked.keys() == truth.beam_kinds.keys(), "rerank: ids differ from the beams")
        for sid, kinds in truth.beam_kinds.items():
            rank, _, _ = _expected_rerank(kinds)
            want = (truth.beam_sql[sid][rank or 0], (rank or 0) + 1, rank is None)
            got = reranked.get(sid, {})
            gate.check((got.get("sql"), got.get("chosen_rank"), got.get("all_failed")) == want,
                       f"rerank: {sid} chose {got.get('chosen_rank')}, expected {want[1]}")
        for sid in rng.sample(sorted(truth.beam_kinds), min(ORACLE_SAMPLES, len(truth.beam_kinds))):
            ref_choice = next((sql for sql in truth.beam_sql[sid]
                               if (r := oracle.ref_execute(conn, sql))[0] == "ok" and r[1]), truth.beam_sql[sid][0])
            gate.check(reranked.get(sid, {}).get("sql") == ref_choice, f"rerank: {sid} disagrees with ref_execute")

        # eval: n and error count by construction, LF and EX by the oracle.
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        per_sample = {e["id"]: e for e in report["per_sample"]}
        gate.check(report["n"] == truth.test_size, f"eval: n = {report['n']}, expected {truth.test_size}")
        expected = expected_counts(truth, scale, workload, test_ids)
        errors = sum(e["pred_error"] for e in report["per_sample"])
        want = expected["eval.errors"] + expected["eval.missing"]
        gate.check(errors == want, f"eval: {errors} pred errors, expected {want}")
        preds = {r["id"]: r["sql"] for r in
                 _jsonl(out / "reranked.jsonl" if workload == "exec_heavy" else data / "top1.jsonl")}
        scored = sorted(test_ids & preds.keys())
        for sid in rng.sample(scored, min(ORACLE_SAMPLES, len(scored))):
            gold, pred = truth.gold[sid], preds[sid]
            lf = oracle.ref_tokenize(gold) == oracle.ref_tokenize(pred)
            ex = oracle.ref_execution_match(conn, gold, pred)
            got = per_sample.get(sid, {})
            gate.check((got.get("lf_match"), got.get("ex_match")) == (lf, ex),
                       f"eval: {sid} lf/ex {got.get('lf_match')}/{got.get('ex_match')}, oracle {lf}/{ex}")
    finally:
        conn.close()

    # recover: hits and unparsed unchanged, each unique miss by the
    # brute-force argmax, each repeated miss as its earlier twin.
    recovered = {r["id"]: r["sql"] for r in _jsonl(out / "recovered.jsonl")}
    templates = {t.name: t for t in RECOVERY_TEMPLATES}
    answers: dict[tuple[str, str], str | None] = {}
    for item in truth.recover_items:
        got = recovered.get(item["id"])
        key = (item["column"], item["value"])
        if item["kind"] == "unique_miss":
            best, _ = oracle.ref_best_value(item["value"], truth.column_values[tuple(item["column"].split("."))])
            t = templates[item["template"]]
            gate.check(got == render_sql(t, {t.slots[0][0]: best}), f"recover: {item['id']} disagrees with ref_best_value")
            answers[key] = got
        elif item["kind"] == "repeated_miss":
            gate.check(got == answers.get(key), f"recover: {item['id']} differs from the same miss earlier in the file")
        else:
            gate.check(got == item["sql"], f"recover: {item['id']} ({item['kind']}) was changed")
    report = json.loads((out / "recover_report.json").read_text(encoding="utf-8"))
    kinds = [it["kind"] for it in truth.recover_items]
    misses = kinds.count("unique_miss") + kinds.count("repeated_miss")
    gate.check(report["unparsed"] == kinds.count("unparsed") and report["replaced"] == misses,
               f"recover report {report} does not match the input shares")
    return test_ids

