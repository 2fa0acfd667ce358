"""End-to-end acceptance suite.

Each test covers one release criterion and records a single PASS/FAIL
line, printed in the terminal summary. Timing budgets are asserted
inside the tests that carry them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import shutil
import sqlite3
import time
from pathlib import Path

from medsql.augment import StubTranslator, augment_corpus
from medsql.cli import cmd
from medsql.linearize import QuestionSource, export_training_file, linearize_schema
from medsql.metrics import evaluate, logic_form_match
from medsql.predictions import Candidate, CandidateSet
from medsql.query import parse_sql, serialize_sql
from medsql.recovery import lcs_len, recover_value
from medsql.rerank import rerank
from medsql.splits import Split, SplitSpec, assign_splits, verify_split
from medsql.store import ColumnDef, SchemaDef, TableDef

from ._acceptance_log import criterion
from .reference import (
    ref_best_value,
    ref_execution_match,
    ref_join_tables,
    ref_lcs,
    ref_main_table,
    ref_tokenize,
)

SEED = 20240915


def test_criterion_1_split_leakage(clinic):
    with criterion(1, "split leakage"):
        start = time.perf_counter()
        assert len(clinic.corpus) == 1000
        spec = SplitSpec(test_size=400, seed=11)
        assignment = assign_splits(clinic.corpus, spec)
        assert verify_split(clinic.corpus, assignment, spec) == []

        designated = set(spec.designated_tables)
        seen = set()
        for sample in clinic.corpus:
            split = assignment.by_id[sample.id]
            assert sample.id not in seen
            seen.add(sample.id)
            main = ref_main_table(sample.gold_sql)
            joins = ref_join_tables(sample.gold_sql)
            if split is Split.TRAIN:
                assert main not in designated
            else:
                assert main in designated
                assert not (joins & designated)
        assert seen == set(assignment.by_id)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_reference_split_sizes(clinic, tmp_path, monkeypatch):
    with criterion(2, "reference split sizes"):
        shutil.copy(clinic.corpus_path, tmp_path / "corpus.jsonl")
        monkeypatch.chdir(tmp_path)
        assert cmd(["split", "--corpus", "corpus.jsonl", "--test-size", "400"]) == 0
        report = json.loads(Path("split_report.json").read_text(encoding="utf-8"))
        reference = report["reference"]
        assert reference["sizes"] == {"TRAIN": 8346, "DEV": 796, "TEST": 1000}
        assert reference["diff"] == {
            name: report["sizes"][name] - expected
            for name, expected in reference["sizes"].items()
        }
        assert reference["matches"] == all(v == 0 for v in reference["diff"].values())
        assert "1796" in reference["note"]

        # Informational only: with a real release on disk, report the diff
        # against the published sizes without gating on it.
        release = os.environ.get("MEDSQL_MIMICSQL_DIR")
        if release:
            src = Path(release)
            corpus_file = src if src.is_file() else src / "corpus.jsonl"
            assert cmd(["split", "--corpus", str(corpus_file), "--out",
                        str(tmp_path / "release.tsv"), "--report",
                        str(tmp_path / "release_report.json")]) == 0
            payload = json.loads((tmp_path / "release_report.json").read_text(encoding="utf-8"))
            assert set(payload["reference"]["diff"]) == {"TRAIN", "DEV", "TEST"}


def _reordered_select(sql: str) -> str:
    head, tail = sql.split(" FROM ", 1)
    items = head[len("SELECT "):].split(", ")
    assert len(items) == 2, sql
    return f"SELECT {items[1]}, {items[0]} FROM {tail}"


def test_criterion_3_metrics_oracle_equivalence(clinic):
    with criterion(3, "metrics oracle equivalence"):
        start = time.perf_counter()
        quoted = [s for s in clinic.corpus if '"' in s.gold_sql]
        two_col = [s for s in clinic.corpus if s.gold_sql.count(", ") == 1]
        lab = [s for s in clinic.corpus if ref_main_table(s.gold_sql) == "LAB"]
        assert len(quoted) >= 50 and len(two_col) >= 50 and len(lab) >= 50

        pairs = []
        pairs += [(s.gold_sql, s.gold_sql) for s in clinic.corpus[:50]]
        pairs += [
            (s.gold_sql, re.sub(r'"[^"]*"', '"ZZZ unseen"', s.gold_sql, count=1))
            for s in quoted[:50]
        ]
        pairs += [(s.gold_sql, _reordered_select(s.gold_sql)) for s in two_col[:50]]
        pairs += [
            (s.gold_sql, re.sub(r"\bLAB\b", "DEMOGRAPHIC", s.gold_sql))
            for s in lab[:50]
        ]
        assert len(pairs) == 200

        conn = sqlite3.connect(clinic.db_path)
        try:
            lf_matches = sum(
                ref_tokenize(gold) == ref_tokenize(pred) for gold, pred in pairs
            )
            ex_matches = sum(
                ref_execution_match(conn, gold, pred) for gold, pred in pairs
            )
        finally:
            conn.close()

        samples = [
            dataclasses.replace(clinic.corpus[0], id=f"pair-{i:03d}", gold_sql=gold)
            for i, (gold, _) in enumerate(pairs)
        ]
        preds = {f"pair-{i:03d}": pred for i, (_, pred) in enumerate(pairs)}
        report = evaluate(samples, preds, clinic.db_path)
        assert report.n == 200
        assert report.acc_lf == lf_matches / 200
        assert report.acc_ex == ex_matches / 200

        # 96 exact predictions out of 100 must come out as exactly 0.96.
        counting = [s for s in lab if "COUNT" in s.gold_sql][:100]
        assert len(counting) == 100
        block = [
            dataclasses.replace(s, id=f"block-{i:03d}") for i, s in enumerate(counting)
        ]
        block_preds = {s.id: s.gold_sql for s in block}
        for i in range(4):
            spoiled = re.sub(r'"[^"]*"', '"ZZZ unseen"', block[i].gold_sql, count=1)
            assert spoiled != block[i].gold_sql
            block_preds[block[i].id] = spoiled
        block_report = evaluate(block, block_preds, clinic.db_path)
        assert block_report.acc_ex == 0.96
        assert block_report.acc_lf == 0.96
        assert time.perf_counter() - start < 10.0


def test_criterion_4_logic_form_strictness():
    with criterion(4, "logic form strictness"):
        gold = "SELECT A,B from TABLE"
        assert logic_form_match(gold, gold) is True
        assert logic_form_match(gold, "SELECT B,A from TABLE") is False
        assert logic_form_match(gold, "select a , b FROM table") is True


def test_criterion_5_rerank_contract(clinic):
    with criterion(5, "rerank contract"):
        start = time.perf_counter()
        good = "SELECT COUNT(*) FROM LAB"
        bad = "SELECT NOPE FROM NOWHERE"
        for rank in range(1, 11):
            sqls = [bad] * (rank - 1) + [good] * (11 - rank)
            beam = CandidateSet(
                "q", tuple(Candidate(sql, (10 - i) / 10) for i, sql in enumerate(sqls))
            )
            choice = rerank(beam, clinic.db_path)
            assert choice.chosen_rank == rank
            assert choice.sql == good
            assert not choice.all_failed
        all_bad = CandidateSet(
            "q", tuple(Candidate(bad, (10 - i) / 10) for i in range(10))
        )
        choice = rerank(all_bad, clinic.db_path)
        assert choice.chosen_rank == 1
        assert choice.all_failed
        assert time.perf_counter() - start < 5.0


def test_criterion_6_recovery_correctness():
    with criterion(6, "recovery correctness"):
        start = time.perf_counter()
        value, score = recover_value("hait", ["ENGLISH", "SPANISH", "HAITIAN", "FRENCH"])
        assert value == "HAITIAN"
        assert abs(score - 4 / 11) <= 1e-12

        rng = random.Random(SEED)
        alphabet = "abcdefg "
        words = ["ENGL", "HAITIAN", "Self Pay", "white", "7", "25.0", "aspirin 81mg"]

        def fuzz_text() -> str:
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))).strip() or "a"

        for _ in range(1000):
            values = {fuzz_text() for _ in range(rng.randint(1, 20))}
            values |= set(rng.sample(words, rng.randint(0, 3)))
            pred = rng.choice([fuzz_text(), rng.choice(sorted(values))])
            got = recover_value(pred, sorted(values))
            assert got == ref_best_value(pred, values)

        for _ in range(10_000):
            a = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 12)))
            assert lcs_len(a, b) == ref_lcs(a, b)
        assert time.perf_counter() - start < 30.0


def test_criterion_7_linearization_golden():
    with criterion(7, "linearization golden"):
        schema = SchemaDef((
            TableDef("DEMOGRAPHIC", (
                ColumnDef("NAME", "text"),
                ColumnDef("AGE", "number"),
            )),
            TableDef("DIAGNOSIS", (ColumnDef("ICD_CODE", "text"),)),
        ))
        expected = "* DEMOGRAPHIC NAME text AGE number DIAGNOSIS ICD_CODE text"
        assert linearize_schema(schema).encode() == expected.encode()


def _stage_inputs(clinic, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    shutil.copy(clinic.corpus_path, directory / "corpus.jsonl")
    shutil.copy(clinic.schema_path, directory / "schema.json")
    shutil.copy(clinic.db_path, directory / "clinic.db")


def _write_jsonl(path: Path, records) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )


def test_criterion_8_round_trip_and_determinism(clinic, tmp_path, monkeypatch):
    with criterion(8, "round trip and determinism"):
        for sample in clinic.corpus:
            query = parse_sql(sample.gold_sql)
            assert parse_sql(serialize_sql(query)) == query

        spec = SplitSpec(test_size=400, seed=7)
        assignment = assign_splits(clinic.corpus, spec)
        test_samples = [
            s for s in clinic.corpus if assignment.by_id[s.id] is Split.TEST
        ]
        preds = [{"id": s.id, "sql": s.gold_sql} for s in test_samples]
        beams = [
            {"id": s.id, "candidates": [
                {"sql": "SELECT NOPE FROM NOWHERE", "score": 0.9},
                {"sql": s.gold_sql, "score": 0.5},
            ]}
            for s in clinic.corpus[:60]
        ]
        typos = [
            {"id": s.id, "sql": s.gold_sql.replace("ASSAY", "assay")}
            for s in clinic.corpus[:60]
        ]
        assert all("ASSAY" in s.gold_sql for s in clinic.corpus[:60])

        commands = [
            ["split", "--corpus", "corpus.jsonl", "--test-size", "400", "--seed", "7"],
            ["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
             "--preds", "preds.jsonl", "--db", "clinic.db"],
            ["rerank", "--preds", "beams.jsonl", "--db", "clinic.db"],
            ["recover", "--preds", "typos.jsonl", "--db", "clinic.db",
             "--schema", "schema.json"],
            ["augment", "--corpus", "corpus.jsonl", "--stub"],
        ]
        inputs = {"corpus.jsonl", "schema.json", "clinic.db", "preds.jsonl",
                  "beams.jsonl", "typos.jsonl"}

        def run_all(directory: Path) -> dict[str, bytes]:
            _stage_inputs(clinic, directory)
            _write_jsonl(directory / "preds.jsonl", preds)
            _write_jsonl(directory / "beams.jsonl", beams)
            _write_jsonl(directory / "typos.jsonl", typos)
            monkeypatch.chdir(directory)
            for argv in commands:
                assert cmd(argv) == 0
            return {
                p.name: p.read_bytes()
                for p in sorted(directory.iterdir())
                if p.name not in inputs
            }

        first = run_all(tmp_path / "one")
        second = run_all(tmp_path / "two")
        assert first.keys() == second.keys()
        assert first == second

        # The split command is hash-driven and has no parallel path; augment,
        # the one command that takes --jobs, must not let the worker count
        # leak into its data outputs.
        jobs_dir = tmp_path / "jobs"
        _stage_inputs(clinic, jobs_dir)
        monkeypatch.chdir(jobs_dir)
        argv = ["augment", "--corpus", "corpus.jsonl", "--stub"]
        assert cmd(argv + ["--out", "augmented_serial.jsonl", "--jobs", "1"]) == 0
        assert cmd(argv + ["--out", "augmented_parallel.jsonl", "--jobs", "8"]) == 0
        assert Path("augmented_serial.jsonl").read_bytes() == Path("augmented_parallel.jsonl").read_bytes()


def test_criterion_9_augmentation_contract(clinic):
    with criterion(9, "augmentation contract"):
        base = clinic.corpus[:100]
        questions = []
        for i in range(100):
            if i < 30:
                questions.append(f"count the lab records in group {i}")
            elif i < 50:
                questions.append(f"Total{i}")
            elif i < 60:
                questions.append(f"tally{i}")
            else:
                questions.append(f"How many events of kind {i}")
        corpus = [
            dataclasses.replace(s, template_question=q)
            for s, q in zip(base, questions)
        ]
        # fr lowercases: degenerate for the 40 all-lowercase questions.
        # de swaps the first two words: degenerate for the 30 single-word
        # questions. 200 round trips minus 70 degenerates leaves 130.
        result = augment_corpus(corpus, ("fr", "de"), StubTranslator())
        assert result.report.added == 130
        assert result.report.dropped_degenerate == 70
        assert result.report.errors == ()
        assert sum(len(s.synthetic_paraphrases) for s in result.samples) == 130
        assert [s.id for s in result.samples] == [s.id for s in corpus]
        assert [s.gold_sql for s in result.samples] == [s.gold_sql for s in corpus]
        for sample in result.samples:
            for paraphrase in sample.synthetic_paraphrases:
                assert paraphrase.text != sample.template_question
                assert paraphrase.pivot in ("fr", "de")

        spec = SplitSpec(test_size=40, seed=3)
        assignment = assign_splits(result.samples, spec)
        assert verify_split(result.samples, assignment, spec) == []
        test_samples = [
            s for s in result.samples if assignment.by_id[s.id] is Split.TEST
        ]
        out = Path(clinic.root) / "augmented_training.jsonl"
        export = export_training_file(
            result.samples, assignment, Split.TEST, clinic.schema,
            QuestionSource.ALL, out,
        )
        records = [
            json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert export.n_records == len(records)
        assert {r["target"] for r in records} == {s.gold_sql for s in test_samples}
        preds = {s.id: s.gold_sql for s in test_samples}
        report = evaluate(test_samples, preds, clinic.db_path)
        assert report.acc_lf == 1.0
        assert report.acc_ex == 1.0
