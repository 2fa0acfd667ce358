from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import shutil
import socket
import sqlite3
import subprocess
import sys
import threading
from contextlib import closing
from dataclasses import asdict
from pathlib import Path

import pytest

import medsql
from medsql import cli, errors, query, records, store
from medsql.cli import build_parser, cmd
from medsql.query import parse_sql
from medsql.splits import Split, SplitAssignment, SplitSpec, assign_splits
from medsql.store import load_corpus, save_corpus


def _stage(clinic, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    shutil.copy(clinic.corpus_path, directory / "corpus.jsonl")
    shutil.copy(clinic.schema_path, directory / "schema.json")
    shutil.copy(clinic.db_path, directory / "clinic.db")


@pytest.fixture()
def workdir(clinic, tmp_path, monkeypatch) -> Path:
    _stage(clinic, tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_jsonl(path: str | Path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def write_jsonl(path: str | Path, records) -> None:
    Path(path).write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )


SPLIT_ARGS = ["split", "--corpus", "corpus.jsonl", "--test-size", "400", "--seed", "7"]


def _test_samples(clinic):
    assignment = assign_splits(clinic.corpus, SplitSpec(test_size=400, seed=7))
    return [s for s in clinic.corpus if assignment.by_id[s.id] is Split.TEST]


class TestTopLevel:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert cmd([]) == 1

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert cmd(["frobnicate"]) == 1

    def test_version_exits_zero(self, capsys):
        assert cmd(["--version"]) == 0
        assert "medsql" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert cmd(["--help"]) == 0

    def test_missing_required_options_exit_one(self, workdir, capsys):
        assert cmd(["stats"]) == 1
        assert "--corpus" in capsys.readouterr().err


class TestEntryPoint:
    """``python -m medsql.cli`` runs ``main``, which the console script calls."""

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        src = str(Path(medsql.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "medsql.cli", *args], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_version_exits_zero(self):
        done = self._run("--version")
        assert (done.returncode, done.stdout) == (0, f"medsql {medsql.__version__}\n")

    def test_no_subcommand_exits_one(self):
        done = self._run()
        assert done.returncode == 1
        assert done.stderr.startswith("usage: medsql")

    def test_data_error_exits_two_with_the_message_on_stderr(self, workdir):
        Path("broken.jsonl").write_text("{not json}\n", encoding="utf-8")
        done = self._run("stats", "--corpus", "broken.jsonl", "--schema", "schema.json")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("medsql stats: data error: record 1: invalid JSON")
        assert not Path("corpus_stats.json").exists()


class TestIngest:
    def test_canonical_corpus_passes_through(self, workdir, capsys):
        assert cmd(["ingest", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--out", "ingested.jsonl"]) == 0
        assert load_corpus("ingested.jsonl") == load_corpus("corpus.jsonl")
        assert Path("ingested.jsonl.manifest.json").is_file()

    def test_field_map_renames_source_fields(self, workdir):
        write_jsonl("raw.jsonl", [
            {"qid": "r1", "text": "how many labs", "query": "SELECT COUNT(*) FROM LAB"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json",
                    "--field-map", "id=qid,question_template=text,sql=query",
                    "--out", "mapped.jsonl"]) == 0
        sample = load_corpus("mapped.jsonl")[0]
        assert sample.id == "r1"
        assert sample.template_question == "how many labs"
        assert sample.gold_sql == "SELECT COUNT(*) FROM LAB"

    @pytest.mark.parametrize("field_map, message", [
        ("bogus", "--field-map entries must be canonical=source, got 'bogus'"),
        ("nope=x", "unknown canonical field 'nope' in --field-map"),
    ], ids=["no-equals", "unknown-field"])
    def test_a_malformed_field_map_is_a_usage_error(self, workdir, capsys, field_map, message):
        assert cmd(["ingest", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--field-map", field_map,
                    "--out", "out.jsonl"]) == 1
        assert capsys.readouterr().err == f"medsql ingest: error: {message}\n"
        assert not Path("out.jsonl").exists()

    def test_records_without_id_are_numbered(self, workdir):
        write_jsonl("raw.jsonl", [
            {"question_template": "q one", "sql": "SELECT COUNT(*) FROM LAB"},
            {"question_template": "q two", "sql": "SELECT COUNT(*) FROM DEMOGRAPHIC"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json",
                    "--out", "numbered.jsonl"]) == 0
        assert [s.id for s in load_corpus("numbered.jsonl")] == ["1", "2"]

    def test_json_array_corpus_is_accepted(self, workdir):
        Path("raw.json").write_text(json.dumps([
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
        ]), encoding="utf-8")
        assert cmd(["ingest", "--corpus", "raw.json", "--schema", "schema.json",
                    "--out", "from_array.jsonl"]) == 0
        assert len(load_corpus("from_array.jsonl")) == 1

    @pytest.mark.parametrize("prefix", [b" " * 64, b"\xef\xbb\xbf" + b"\r\n\t " * 40], ids=["spaces", "bom-mixed"])
    def test_json_array_after_long_leading_whitespace_is_accepted(self, workdir, prefix):
        # Only the first 64 bytes were sniffed, so this array was read as JSON Lines and exited 2.
        records = [{"id": k, "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"} for k in ("a", "b")]
        Path("raw.json").write_bytes(prefix + json.dumps(records, indent=2).encode("utf-8"))
        assert cmd(["ingest", "--corpus", "raw.json", "--schema", "schema.json", "--out", "indented.jsonl"]) == 0
        assert [s.id for s in load_corpus("indented.jsonl")] == ["a", "b"]

    def test_jsonl_after_long_leading_whitespace_stays_jsonl(self, workdir):
        record = {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"}
        Path("raw.jsonl").write_text("\n" * 100 + json.dumps(record) + "\n", encoding="utf-8")
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "n.jsonl"]) == 0
        assert [s.id for s in load_corpus("n.jsonl")] == ["a"]

    def test_singular_table_names_are_normalized(self, workdir, capsys):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q",
             "sql": 'SELECT COUNT(*) FROM PROCEDURE WHERE PROCEDURE.SHORT_TITLE = "X"'},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json",
                    "--out", "fixed.jsonl"]) == 0
        sample = load_corpus("fixed.jsonl")[0]
        assert sample.gold_sql == 'SELECT COUNT(*) FROM PROCEDURES WHERE PROCEDURES.SHORT_TITLE = "X"'
        assert "1 with normalized table names" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "on",
        ["PROCEDURE.HADM_ID = LAB.HADM_ID", "LAB.HADM_ID = PROCEDURE.HADM_ID"],
        ids=["left", "right"],
    )
    def test_a_table_named_only_in_a_join_condition_is_renamed(self, on):
        # Only FROM/JOIN tables, conditions and select items were searched, so this mapped nothing.
        q = parse_sql(f"SELECT LAB.FLAG FROM LAB INNER JOIN PROCEDURES ON {on}")
        assert cli._table_renames(1, q, {"LAB", "PROCEDURES"}) == {"PROCEDURE": "PROCEDURES"}

    def test_a_singular_join_condition_qualifier_is_normalized(self, workdir, capsys):
        # ingest wrote this query unchanged, naming a table the schema does not have, and exited 0.
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q",
             "sql": "SELECT LAB.FLAG FROM LAB INNER JOIN PROCEDURES ON PROCEDURE.HADM_ID = LAB.HADM_ID"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "fixed.jsonl"]) == 0
        sample = load_corpus("fixed.jsonl")[0]
        assert sample.gold_sql == "SELECT LAB.FLAG FROM LAB INNER JOIN PROCEDURES ON PROCEDURES.HADM_ID = LAB.HADM_ID"
        assert "1 with normalized table names" in capsys.readouterr().out

    def test_normalization_can_be_disabled(self, workdir):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM PROCEDURE"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json",
                    "--no-normalize-tables", "--out", "kept.jsonl"]) == 0
        assert load_corpus("kept.jsonl")[0].gold_sql == "SELECT COUNT(*) FROM PROCEDURE"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM LAB INNER JOIN LABS ON LAB.X = LABS.X",
            "SELECT COUNT(*) FROM DEMOGRAPHIC INNER JOIN LAB ON DEMOGRAPHIC.X = LAB.X "
            "INNER JOIN LABS ON DEMOGRAPHIC.X = LABS.X",
            "SELECT LABS.FLAG FROM LAB INNER JOIN LABS ON LAB.X = LABS.X",
        ],
        ids=["onto-main-table", "onto-joined-table", "with-a-qualified-column"],
    )
    def test_normalization_that_merges_two_tables_exits_two(self, workdir, capsys, sql):
        # This crashed with an uncaught ValueError from the renamed query.
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "b", "question_template": "q", "sql": sql},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "merged.jsonl"]) == 2
        assert "data error: record 2: tables LAB and LABS would both be normalized to LAB" in capsys.readouterr().err
        assert not Path("merged.jsonl").exists()
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--no-normalize-tables",
                    "--out", "kept.jsonl"]) == 0

    def test_duplicate_id_exits_two(self, workdir, capsys):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json"]) == 2

    def test_out_of_dialect_sql_exits_two(self, workdir):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT A FROM LAB GROUP BY A"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json"]) == 2


    @pytest.mark.parametrize("value", [None, 5, ""])
    def test_non_string_or_empty_question_exits_two(self, workdir, capsys, value):
        # ingest used to accept null and 5, writing a corpus every later command rejects or crashes on.
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "b", "question_template": value, "sql": "SELECT COUNT(*) FROM LAB"},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "bad.jsonl"]) == 2
        assert "record 2: question_template" in capsys.readouterr().err
        assert not Path("bad.jsonl").exists()

    def test_non_string_sql_exits_two(self, workdir, capsys):
        Path("raw.json").write_text(json.dumps([{"id": "a", "question_template": "q", "sql": 5}]), encoding="utf-8")
        assert cmd(["ingest", "--corpus", "raw.json", "--schema", "schema.json"]) == 2
        assert "record 1: sql must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("synthetic", [{"x": 1}]), ("synthetic", 5), ("question_paraphrase", 3)],
    )
    def test_malformed_optional_field_exits_two(self, workdir, capsys, field, value):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB", field: value},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "bad.jsonl"]) == 2
        assert f"record 1: {field} must be" in capsys.readouterr().err
        assert not Path("bad.jsonl").exists()

    @pytest.mark.parametrize("name", ["raw.jsonl", "raw.json"])
    def test_byte_order_mark_is_accepted(self, workdir, name):
        records = [{"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"}]
        body = json.dumps(records) if name.endswith(".json") else json.dumps(records[0]) + "\n"
        Path(name).write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        assert cmd(["ingest", "--corpus", name, "--schema", "schema.json", "--out", "bom.jsonl"]) == 0
        assert [s.id for s in load_corpus("bom.jsonl")] == ["a"]

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"id": "b", "question_template": 5, "sql": "SELECT COUNT(*) FROM LAB"},
             "record 2: question_template must be a string, not int"),
            ({"id": "b", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB INNER JOIN LABS ON LAB.X = LABS.X"},
             "record 2: tables LAB and LABS would both be normalized to LAB"),
        ],
        ids=["question", "rename"],
    )
    def test_record_numbers_are_line_numbers(self, workdir, capsys, record, message):
        # A blank first line used to make the record on line 2 "record 1" here.
        Path("raw.jsonl").write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "bad.jsonl"]) == 2
        assert f"medsql ingest: data error: {message}" in capsys.readouterr().err
        if record["question_template"] == 5:
            assert cmd(["stats", "--corpus", "raw.jsonl", "--schema", "schema.json"]) == 2
            assert f"medsql stats: data error: {message}" in capsys.readouterr().err

    def test_ids_follow_record_order_across_blank_lines(self, workdir):
        Path("raw.jsonl").write_text(
            json.dumps({"question_template": "q one", "sql": "SELECT COUNT(*) FROM LAB"}) + "\n\n"
            + json.dumps({"question_template": "q two", "sql": "SELECT COUNT(*) FROM LAB"}) + "\n",
            encoding="utf-8",
        )
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "n.jsonl"]) == 0
        assert [s.id for s in load_corpus("n.jsonl")] == ["1", "2"]


class TestCommandsInOneProcess:
    def test_commands_give_the_same_bytes_from_a_cold_and_a_warm_column_cache(self, workdir):
        # query._column_node outlives a command; no output may depend on what it holds.
        write_jsonl("raw.jsonl", read_jsonl("corpus.jsonl") + [
            {"id": "singular", "question_template": "q",
             "sql": 'SELECT COUNT(*) FROM PROCEDURE WHERE PROCEDURE.SHORT_TITLE = "X"'},
        ])
        argvs = [
            ["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "ingested.jsonl"],
            ["stats", "--corpus", "ingested.jsonl", "--schema", "schema.json", "--out", "stats.json"],
            ["split", "--corpus", "ingested.jsonl", "--test-size", "400", "--seed", "7", "--out", "split.tsv"],
        ]
        query._column_node.cache_clear()
        runs = []
        for _ in range(2):
            for argv in argvs:
                assert cmd(argv) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()})
        assert runs[0] == runs[1]
        assert {"ingested.jsonl.manifest.json", "stats.json.manifest.json", "split.tsv.manifest.json"} <= runs[0].keys()
        assert b"PROCEDURES.SHORT_TITLE" in runs[0]["ingested.jsonl"]


class TestStats:
    def test_values_match_the_library(self, workdir, clinic):
        from medsql.store import corpus_stats

        assert cmd(["stats", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--out", "stats.json"]) == 0
        payload = read_json("stats.json")
        # The file holds the tuple columns_per_table as a JSON array.
        expected = json.loads(json.dumps(asdict(corpus_stats(clinic.corpus, clinic.schema))))
        assert payload == {"format_version": 1, **expected}

    def test_missing_corpus_file_exits_three(self, workdir):
        assert cmd(["stats", "--corpus", "absent.jsonl", "--schema", "schema.json"]) == 3

    def test_each_gold_query_is_lexed_once(self, workdir, clinic, lexed):
        # The token count used to lex every gold query a second time.
        assert cmd(["stats", "--corpus", "corpus.jsonl", "--schema", "schema.json"]) == 0
        assert sorted(lexed) == sorted(s.gold_sql for s in clinic.corpus)

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "a", "question_template": 5, "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "a", "question_template": "q", "sql": 5},
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB", "synthetic": [{"x": 1}]},
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB", "synthetic": 5},
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB", "question_paraphrase": 3},
            {"id": None, "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": [1], "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "a\tb", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "a\nb", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "a\rb", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
        ],
    )
    def test_bad_field_types_exit_two(self, workdir, capsys, record):
        # These crashed with an uncaught AttributeError or TypeError.
        write_jsonl("bad.jsonl", [record])
        assert cmd(["stats", "--corpus", "bad.jsonl", "--schema", "schema.json"]) == 2
        assert "data error: record 1:" in capsys.readouterr().err

    def test_byte_order_mark_in_schema_and_config(self, workdir):
        Path("schema.json").write_bytes(b"\xef\xbb\xbf" + Path("schema.json").read_bytes())
        Path("cfg.json").write_bytes(b"\xef\xbb\xbf" + json.dumps({"out": "from_config.json"}).encode("utf-8"))
        assert cmd(["stats", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--config", "cfg.json"]) == 0
        assert read_json("from_config.json")["n_samples"] == 1000


class TestSplit:
    def test_sizes_and_report(self, workdir, capsys):
        assert cmd(SPLIT_ARGS) == 0
        report = read_json("split_report.json")
        assert report["sizes"]["TEST"] == 400
        assert report["violations"] == []
        assert report["reference"]["sizes"] == {"TRAIN": 8346, "DEV": 796, "TEST": 1000}
        out = capsys.readouterr().out
        assert "TEST=400" in out and "violations=0" in out
        assignment = SplitAssignment.load("split_assignment.tsv")
        assert len(assignment.by_id) == 1000

    def test_schema_validates_designated_tables(self, workdir):
        assert cmd(["split", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--test-size", "5", "--designated", "NO_SUCH_TABLE"]) == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("designated", [",", "", " , "])
    def test_designated_naming_no_table_exits_two_before_any_input_is_read(
        self, workdir, capsys, designated, source
    ):
        # It used to be checked only once the corpus was read, in words that named no option.
        if source == "flag":
            option = ["--designated", designated]
        else:
            Path("cfg.json").write_text(json.dumps({"designated": designated}), encoding="utf-8")
            option = ["--config", "cfg.json"]
        # absent.jsonl does not exist: reading it would exit 3.
        assert cmd(["split", "--corpus", "absent.jsonl", "--test-size", "5", *option]) == 2
        assert capsys.readouterr().err == (
            f"medsql split: data error: --designated must name at least one table, not {designated!r}\n")
        assert not Path("split_assignment.tsv").exists() and not Path("split_report.json").exists()

    def test_test_size_larger_than_pool_exits_two(self, workdir):
        assert cmd(["split", "--corpus", "corpus.jsonl", "--test-size", "999999"]) == 2

    def test_config_file_supplies_defaults_and_flags_override(self, workdir):
        Path("cfg.json").write_text(json.dumps({"test_size": 5, "seed": 3}), encoding="utf-8")
        assert cmd(["split", "--corpus", "corpus.jsonl", "--config", "cfg.json"]) == 0
        assert read_json("split_report.json")["sizes"]["TEST"] == 5
        assert read_json("split_report.json")["seed"] == 3
        assert cmd(["split", "--corpus", "corpus.jsonl", "--config", "cfg.json",
                    "--test-size", "7"]) == 0
        assert read_json("split_report.json")["sizes"]["TEST"] == 7

    def test_each_gold_query_is_lexed_once(self, workdir, lexed):
        assert cmd(SPLIT_ARGS) == 0
        assert len(lexed) == 1000

    def test_rerun_is_byte_identical(self, clinic, tmp_path, monkeypatch):
        outputs = {}
        for name in ("one", "two"):
            directory = tmp_path / name
            _stage(clinic, directory)
            monkeypatch.chdir(directory)
            assert cmd(SPLIT_ARGS) == 0
            outputs[name] = {
                p: (directory / p).read_bytes()
                for p in ("split_assignment.tsv", "split_assignment.tsv.manifest.json",
                          "split_report.json", "split_report.json.manifest.json")
            }
        assert outputs["one"] == outputs["two"]


class TestByteOrderMarkId:
    @pytest.mark.parametrize("argv", [
        ["ingest", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--out", "ingested.jsonl"],
        ["split", "--corpus", "corpus.jsonl", "--test-size", "10"],
    ], ids=["ingest", "split"])
    def test_exit_two_naming_record_one(self, workdir, clinic, capsys, argv):
        # split wrote the id at the very start of the assignment, where reading strips a
        # byte order mark, and linearize then found the sample missing from it.
        rows = read_jsonl("corpus.jsonl")
        rows[0]["id"] = "\ufeff" + str(rows[0]["id"])
        write_jsonl("corpus.jsonl", rows)
        before = sorted(os.listdir())
        assert cmd(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"medsql {argv[0]}: data error: record 1: id must not begin with a byte order mark (U+FEFF)")
        assert sorted(os.listdir()) == before


class TestLinearize:
    def test_default_output_name_and_content(self, workdir, clinic, capsys):
        assert cmd(SPLIT_ARGS) == 0
        assert cmd(["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--assignment", "split_assignment.tsv", "--split", "TEST",
                    "--question-source", "template"]) == 0
        records = read_jsonl("test_template.jsonl")
        assert len(records) == 400
        golds = {s.id: s.gold_sql for s in _test_samples(clinic)}
        assert {r["target"] for r in records} == set(golds.values())
        assert all(r["input"].count("[SEP]") == 1 for r in records)

    def test_byte_order_mark_in_assignment_keeps_the_first_sample(self, workdir):
        # A BOM used to stick to the first id, so that sample was left out.
        assert cmd(SPLIT_ARGS) == 0
        tsv = Path("split_assignment.tsv")
        split = tsv.read_text(encoding="utf-8").split("\n", 1)[0].split("\t")[1]
        base = ["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--split", split]
        assert cmd(base + ["--assignment", str(tsv), "--out", "plain.jsonl"]) == 0
        Path("bom.tsv").write_bytes(b"\xef\xbb\xbf" + tsv.read_bytes())
        assert cmd(base + ["--assignment", "bom.tsv", "--out", "bom.jsonl"]) == 0
        assert read_jsonl("bom.jsonl") == read_jsonl("plain.jsonl")

    @pytest.mark.parametrize("body, code, err", [
        ("a\tTEST\n\nb\tTEST\n", 0, ""),
        ("a\tTEST\nb\tTEST\na\tDEV\n", 2, "medsql linearize: data error: own.tsv: line 3: duplicate id 'a'\n"),
    ], ids=["blank-line", "duplicate-id"])
    def test_an_assignment_file_skips_blank_lines_and_names_a_repeated_id(self, workdir, capsys, body, code, err):
        write_jsonl("own.jsonl", [{"id": k, "question_template": f"question {k}", "sql": "SELECT COUNT(*) FROM LAB"}
                                  for k in ("a", "b")])
        Path("own.tsv").write_text(body, encoding="utf-8")
        assert cmd(["linearize", "--corpus", "own.jsonl", "--schema", "schema.json", "--assignment", "own.tsv",
                    "--split", "TEST", "--out", "own_test.jsonl"]) == code
        assert capsys.readouterr().err == err
        assert Path("own_test.jsonl").exists() == (code == 0)
        if code == 0:
            assert [r["input"].rsplit(" [SEP] ", 1)[1] for r in read_jsonl("own_test.jsonl")] == [
                "question a", "question b"]

    def test_bad_split_name_is_a_usage_error(self, workdir):
        assert cmd(SPLIT_ARGS) == 0
        assert cmd(["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--assignment", "split_assignment.tsv", "--split", "VALIDATION"]) == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("sep", ["", " ", "\t "])
    def test_a_blank_separator_exits_two_before_any_input_is_read(self, workdir, capsys, sep, source):
        # It used to fail on the first record, blaming the question for holding the separator.
        if source == "flag":
            option = ["--sep", sep]
        else:
            Path("cfg.json").write_text(json.dumps({"sep": sep}), encoding="utf-8")
            option = ["--config", "cfg.json"]
        # The input files are never read: absent.jsonl and a.tsv do not exist.
        assert cmd(["linearize", "--corpus", "absent.jsonl", "--schema", "schema.json", "--assignment", "a.tsv",
                    "--out", "out.jsonl", *option]) == 2
        assert f"data error: --sep must hold a character other than whitespace, not {sep!r}" in capsys.readouterr().err
        assert not Path("out.jsonl").exists()

    def test_a_record_carrying_its_own_schema_is_linearized_against_it(self, workdir):
        own = {"tables": [{"name": "FLIGHT", "columns": [
            {"name": "DEST", "attr": "text"}, {"name": "DELAY", "attr": "number"}, {"name": "DAY", "attr": "datetime"},
        ]}]}
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "how many patients are there", "sql": "SELECT COUNT(*) FROM DEMOGRAPHIC"},
            {"id": "b", "question_template": "list destinations", "sql": "SELECT DEST FROM FLIGHT", "schema": own},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "own.jsonl"]) == 0
        assert [r.get("schema") for r in read_jsonl("own.jsonl")] == [None, own]
        Path("own.tsv").write_text("a\tTEST\nb\tTEST\n", encoding="utf-8")
        assert cmd(["linearize", "--corpus", "own.jsonl", "--schema", "schema.json", "--assignment", "own.tsv",
                    "--split", "TEST", "--out", "own_test.jsonl"]) == 0
        inputs = [r["input"] for r in read_jsonl("own_test.jsonl")]
        assert inputs[0].startswith("* DEMOGRAPHIC SUBJECT_ID number")
        assert inputs[1] == "* FLIGHT DEST text DELAY number DAY datetime [SEP] list destinations"


    @pytest.mark.parametrize("record, message", [
        ({"id": "t1", "question_template": "why is [SEP] here", "sql": "SELECT COUNT(*) FROM DEMOGRAPHIC"},
         "sample 't1', template question: question contains the separator token '[SEP]'"),
        ({"id": "s1", "question_template": "how many patients are there", "synthetic": [{"text": " ", "pivot": "fr"}],
          "sql": "SELECT COUNT(*) FROM DEMOGRAPHIC"},
         "sample 's1', synthetic question: question is empty"),
    ], ids=["separator-in-template", "blank-synthetic"])
    def test_a_rejected_question_names_its_sample_and_source(self, workdir, capsys, record, message):
        # Both used to exit 2 without saying which sample was at fault.
        write_jsonl("bad.jsonl", [{"id": "ok", "question_template": "how many", "sql": "SELECT COUNT(*) FROM LAB"},
                                  record])
        Path("bad.tsv").write_text(f"ok\tTRAIN\n{record['id']}\tTRAIN\n", encoding="utf-8")
        assert cmd(["linearize", "--corpus", "bad.jsonl", "--schema", "schema.json", "--assignment", "bad.tsv",
                    "--question-source", "all", "--out", "bad_train.jsonl"]) == 2
        assert capsys.readouterr().err == f"medsql linearize: data error: {message}\n"
        assert not Path("bad_train.jsonl").exists()


class TestAugment:
    def test_stub_run_is_deterministic(self, clinic, tmp_path, monkeypatch):
        outputs = {}
        for name in ("one", "two"):
            directory = tmp_path / name
            _stage(clinic, directory)
            monkeypatch.chdir(directory)
            assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub"]) == 0
            outputs[name] = {
                p: (directory / p).read_bytes()
                for p in ("augmented_corpus.jsonl", "augmented_corpus.jsonl.manifest.json",
                          "augment_report.json")
            }
        assert outputs["one"] == outputs["two"]

    def test_augmented_corpus_keeps_ids_and_gold(self, workdir, clinic):
        assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub"]) == 0
        augmented = load_corpus("augmented_corpus.jsonl")
        assert [s.id for s in augmented] == [s.id for s in clinic.corpus]
        assert [s.gold_sql for s in augmented] == [s.gold_sql for s in clinic.corpus]
        report = read_json("augment_report.json")
        assert report["added"] == sum(len(s.synthetic_paraphrases) for s in augmented)

    def test_needs_stub_or_endpoint(self, workdir, monkeypatch):
        monkeypatch.delenv("MEDSQL_TRANSLATE_URL", raising=False)
        assert cmd(["augment", "--corpus", "corpus.jsonl"]) == 1

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize("url", ["not-a-url", "ftp://127.0.0.1/x", "http://", "http://[::1"])
    def test_malformed_translate_url_exits_two(self, workdir, monkeypatch, capsys, url, source):
        # urllib used to fail on it with a ValueError traceback (exit 1).
        monkeypatch.delenv("MEDSQL_TRANSLATE_URL", raising=False)
        argv = ["augment", "--corpus", "corpus.jsonl", "--out", "aug.jsonl"]
        if source == "flag":
            argv += ["--translate-url", url]
        elif source == "config":
            Path("cfg.json").write_text(json.dumps({"translate_url": url}), encoding="utf-8")
            argv += ["--config", "cfg.json"]
        else:
            monkeypatch.setenv("MEDSQL_TRANSLATE_URL", url)
        assert cmd(argv) == 2
        assert (f"medsql augment: data error: --translate-url must be an http or https URL with a host, not {url!r}"
                in capsys.readouterr().err)
        assert not Path("aug.jsonl").exists()

    def test_env_var_overrides_flag_and_config(self, workdir, monkeypatch, translate_server):
        base_url, handler = translate_server("echo")
        Path("cfg.json").write_text(
            json.dumps({"translate_url": "http://127.0.0.1:1/config"}), encoding="utf-8"
        )
        monkeypatch.setenv("MEDSQL_TRANSLATE_URL", base_url)
        small = load_corpus("corpus.jsonl")[:2]
        save_corpus(small, "small.jsonl")
        assert cmd(["augment", "--corpus", "small.jsonl", "--config", "cfg.json",
                    "--translate-url", "http://127.0.0.1:1/flag"]) == 0
        manifest = read_json("augmented_corpus.jsonl.manifest.json")
        assert manifest["config"]["translate_url"] == base_url
        assert handler.hits == 8  # 2 samples x 2 pivots x 2 legs

    def test_live_endpoint_matches_stub(self, workdir, monkeypatch, translate_server):
        base_url, _ = translate_server("echo")
        monkeypatch.delenv("MEDSQL_TRANSLATE_URL", raising=False)
        small = load_corpus("corpus.jsonl")[:3]
        save_corpus(small, "small.jsonl")
        assert cmd(["augment", "--corpus", "small.jsonl", "--out", "via_http.jsonl",
                    "--report", "http_report.json", "--translate-url", base_url]) == 0
        assert cmd(["augment", "--corpus", "small.jsonl", "--out", "via_stub.jsonl",
                    "--report", "stub_report.json", "--stub"]) == 0
        assert load_corpus("via_http.jsonl") == load_corpus("via_stub.jsonl")


    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("pivots", ["fr,fr", "de, fr,de", "", " , "])
    def test_pivots_naming_none_or_one_twice_exit_two_before_any_input_is_read(
        self, workdir, capsys, pivots, source
    ):
        # "fr,fr" used to add every fr paraphrase twice; "" used to add nothing and exit 0.
        if source == "flag":
            option = ["--pivots", pivots]
        else:
            Path("cfg.json").write_text(json.dumps({"pivots": pivots}), encoding="utf-8")
            option = ["--config", "cfg.json"]
        # absent.jsonl does not exist: reading it would exit 3.
        assert cmd(["augment", "--corpus", "absent.jsonl", "--stub", "--out", "aug.jsonl", *option]) == 2
        assert capsys.readouterr().err == (
            f"medsql augment: data error: --pivots must name at least one pivot, each once, not {pivots!r}\n")
        assert not Path("aug.jsonl").exists() and not Path("augment_report.json").exists()

    def test_pivots_are_trimmed_and_blank_entries_skipped(self, workdir):
        assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub", "--out", "a.jsonl", "--report", "a.json"]) == 0
        assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub", "--out", "b.jsonl", "--report", "b.json",
                    "--pivots", " fr,, de "]) == 0
        assert Path("a.jsonl").read_bytes() == Path("b.jsonl").read_bytes()


class TestRerank:
    def _write_beams(self, clinic, n=25):
        samples = clinic.corpus[:n]
        write_jsonl("beams.jsonl", [
            {"id": s.id, "candidates": [
                {"sql": "SELECT NOPE FROM LAB", "score": 0.9},
                {"sql": s.gold_sql, "score": 0.5},
            ]}
            for s in samples
        ])
        return samples

    def test_chooses_the_executable_candidate(self, workdir, clinic, capsys):
        self._write_beams(clinic)
        assert cmd(["rerank", "--preds", "beams.jsonl", "--db", "clinic.db",
                    "--out", "reranked.jsonl"]) == 0
        records = read_jsonl("reranked.jsonl")
        assert all(r["chosen_rank"] == 2 and not r["all_failed"] for r in records)
        assert "all_failed=0" in capsys.readouterr().out

    def test_attach_and_pragma_candidates_never_win(self, workdir, capsys):
        good = "SELECT COUNT(*) FROM LAB"
        write_jsonl("beams.jsonl", [
            {"id": "attach", "candidates": [{"sql": f"ATTACH DATABASE '{workdir / 'planted.db'}' AS x", "score": 0.9},
                                            {"sql": good, "score": 0.5}]},
            {"id": "pragma", "candidates": [{"sql": "PRAGMA table_info(LAB)", "score": 0.9},
                                            {"sql": good, "score": 0.5}]},
        ])
        for flag in ("--no-require-nonempty", "--require-nonempty"):
            assert cmd(["rerank", "--preds", "beams.jsonl", "--db", "clinic.db", "--out", "r.jsonl", flag]) == 0
            assert [(r["id"], r["chosen_rank"], r["sql"]) for r in read_jsonl("r.jsonl")] == [
                ("attach", 2, good), ("pragma", 2, good)
            ]
        assert not (workdir / "planted.db").exists()

    def test_single_sql_records_exit_two(self, workdir):
        write_jsonl("flat.jsonl", [{"id": "a", "sql": "SELECT COUNT(*) FROM LAB"}])
        assert cmd(["rerank", "--preds", "flat.jsonl", "--db", "clinic.db"]) == 2

    def test_missing_db_exits_three(self, workdir, clinic):
        self._write_beams(clinic, n=2)
        assert cmd(["rerank", "--preds", "beams.jsonl", "--db", "absent.db"]) == 3


class TestRecover:
    def test_misspelled_values_are_recovered(self, workdir, clinic):
        samples = clinic.corpus[:10]
        write_jsonl("preds.jsonl", [
            {"id": s.id, "sql": s.gold_sql.replace("ASSAY", "assay")} for s in samples
        ])
        assert cmd(["recover", "--preds", "preds.jsonl", "--db", "clinic.db",
                    "--schema", "schema.json", "--out", "recovered.jsonl"]) == 0
        records = read_jsonl("recovered.jsonl")
        assert [r["sql"] for r in records] == [s.gold_sql for s in samples]
        report = read_json("recover_report.json")
        assert report["replaced"] == 10
        assert report["unparsed"] == 0

    def test_repeated_misses_are_recovered_alike(self, workdir, clinic):
        samples = clinic.corpus[:12]
        write_jsonl("preds.jsonl", [
            {"id": f"{s.id}-{k}", "sql": s.gold_sql.replace("ASSAY", "asay")}
            for k in range(3) for s in samples
        ])
        assert cmd(["recover", "--preds", "preds.jsonl", "--db", "clinic.db", "--schema", "schema.json"]) == 0
        records = read_jsonl("recovered_predictions.jsonl")
        assert [r["sql"] for r in records] == [s.gold_sql for _ in range(3) for s in samples]

    @pytest.mark.parametrize(
        "table, column, sql",
        [
            ("EXTRA", "NOTE", 'SELECT NOTE FROM EXTRA WHERE NOTE = "x"'),
            ("DEMOGRAPHIC", "NOTE", 'SELECT NAME FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.NOTE = "x"'),
        ],
        ids=["table", "column"],
    )
    def test_schema_pair_missing_from_the_db_exits_two(self, workdir, capsys, table, column, sql):
        schema = read_json("schema.json")
        tables = {t["name"]: t for t in schema["tables"]}
        tables.setdefault(table, {"name": table, "columns": []})["columns"].append({"name": column, "attr": "text"})
        schema["tables"] = list(tables.values())
        Path("extra_schema.json").write_text(json.dumps(schema), encoding="utf-8")
        write_jsonl("preds.jsonl", [{"id": "a", "sql": sql}])
        assert cmd(["recover", "--preds", "preds.jsonl", "--db", "clinic.db", "--schema", "extra_schema.json",
                    "--out", "out.jsonl"]) == 2
        reason = "no such table: EXTRA" if table == "EXTRA" else f"no such column: {table}.{column}"
        assert capsys.readouterr().err == (
            f"medsql recover: data error: cannot read the values of {table}.{column} from the database: {reason}\n"
        )
        assert not Path("out.jsonl").exists()

    def test_an_undecodable_cell_exits_two_only_when_a_miss_needs_its_column(self, workdir, capsys):
        # Every recovery on such a column used to exit 2, even when each predicted value was a hit.
        with closing(sqlite3.connect("t.db")) as conn:
            conn.execute("CREATE TABLE T (C TEXT)")
            conn.execute("INSERT INTO T VALUES ('a'), ('b'), (CAST(x'ff' AS TEXT))")
            conn.execute("CREATE INDEX ix_1_T_C ON T (C)")
            conn.commit()
        Path("t.json").write_text(json.dumps({"tables": [{"name": "T", "columns": [{"name": "C", "attr": "text"}]}]}),
                                  encoding="utf-8")
        argv = ["recover", "--preds", "preds.jsonl", "--db", "t.db", "--schema", "t.json"]
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT C FROM T WHERE T.C = "a"'}])
        assert cmd(argv) == 0
        assert read_jsonl("recovered_predictions.jsonl") == [{"id": "a", "sql": 'SELECT C FROM T WHERE T.C = "a"'}]
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT C FROM T WHERE T.C = "c"'}])
        assert cmd(argv + ["--out", "out.jsonl"]) == 2
        assert "data error: cannot read the values of T.C from the database: Could not decode" in capsys.readouterr().err
        assert not Path("out.jsonl").exists()

    def test_missing_db_exits_three_when_no_column_is_needed(self, workdir):
        write_jsonl("preds.jsonl", [{"id": "a", "sql": "SELECT NAME FROM DEMOGRAPHIC GROUP BY NAME"}])
        assert cmd(["recover", "--preds", "preds.jsonl", "--db", "absent.db", "--schema", "schema.json"]) == 3

    def test_a_db_that_is_not_sqlite_exits_three_when_no_column_is_needed(self, workdir, capsys):
        # absent.db fails as its digest is taken; this file is hashed and fails when the run opens it.
        Path("notes.db").write_text("not an SQLite database\n" * 10, encoding="utf-8")
        write_jsonl("preds.jsonl", [{"id": "a", "sql": "SELECT NAME FROM DEMOGRAPHIC GROUP BY NAME"}])
        assert cmd(["recover", "--preds", "preds.jsonl", "--db", "notes.db", "--schema", "schema.json"]) == 3
        assert "environment error: cannot open database notes.db: file is not a database" in capsys.readouterr().err
        assert not Path("recovered_predictions.jsonl").exists()

    def test_beam_predictions_are_recovered_per_candidate(self, workdir, clinic):
        sample = clinic.corpus[0]
        write_jsonl("beams.jsonl", [
            {"id": sample.id, "candidates": [
                {"sql": sample.gold_sql.replace("ASSAY", "assay"), "score": 0.9},
                {"sql": "SELECT NOPE FROM LAB GROUP BY X", "score": 0.1},
            ]},
        ])
        assert cmd(["recover", "--preds", "beams.jsonl", "--db", "clinic.db",
                    "--schema", "schema.json", "--out", "rec_beams.jsonl"]) == 0
        record = read_jsonl("rec_beams.jsonl")[0]
        assert record["candidates"][0]["sql"] == sample.gold_sql
        assert record["candidates"][0]["score"] == 0.9
        assert read_json("recover_report.json")["unparsed"] == 1

    def test_missing_schema_option_exits_one(self, workdir):
        write_jsonl("preds.jsonl", [{"id": "a", "sql": "SELECT COUNT(*) FROM LAB"}])
        assert cmd(["recover", "--preds", "preds.jsonl", "--db", "clinic.db"]) == 1


class TestEval:
    def _write_gold_preds(self, clinic, path="preds.jsonl"):
        samples = _test_samples(clinic)
        write_jsonl(path, [{"id": s.id, "sql": s.gold_sql} for s in samples])
        return samples

    def test_perfect_predictions_score_one(self, workdir, clinic, capsys):
        assert cmd(SPLIT_ARGS) == 0
        self._write_gold_preds(clinic)
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "preds.jsonl", "--db", "clinic.db", "--out", "report.json"]) == 0
        report = read_json("report.json")
        assert report["acc_lf"] == 1.0
        assert report["acc_ex"] == 1.0
        assert report["n"] == 400
        assert report["breakdown"]["cond_val"] == 1.0
        assert "acc_lf=1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("runs", [1, 2])
    def test_each_prediction_is_lexed_once(self, workdir, clinic, lexed, runs):
        # Each prediction was lexed for logic form and again for the breakdown.
        # A second run in the same process lexes afresh: no tokens outlive a command.
        assert cmd(SPLIT_ARGS) == 0
        preds = {s.id: s.gold_sql + " " for s in _test_samples(clinic)}
        write_jsonl("preds.jsonl", [{"id": sid, "sql": sql} for sid, sql in preds.items()])
        lexed.clear()
        for _ in range(runs):
            assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                        "--preds", "preds.jsonl", "--db", "clinic.db"]) == 0
        # A test gold query is lexed for its parse and again for logic form; no other is lexed.
        golds = [s.gold_sql for s in _test_samples(clinic)] * 2
        assert sorted(lexed) == sorted((golds + list(preds.values())) * runs)
        assert read_json("eval_report.json")["acc_lf"] == 1.0

    def test_strict_with_missing_predictions_exits_two(self, workdir, clinic):
        assert cmd(SPLIT_ARGS) == 0
        samples = self._write_gold_preds(clinic)
        write_jsonl("partial.jsonl", [
            {"id": s.id, "sql": s.gold_sql} for s in samples[: len(samples) // 2]
        ])
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "partial.jsonl", "--db", "clinic.db", "--strict"]) == 2

    def test_samples_missing_from_the_assignment_exit_two(self, workdir, clinic, capsys):
        # eval used to score the assigned part of the split and exit 0.
        assert cmd(SPLIT_ARGS) == 0
        self._write_gold_preds(clinic)
        lines = Path("split_assignment.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        Path("partial.tsv").write_text("".join(lines[:250]), encoding="utf-8")
        message = f"data error: {len(lines) - 250} sample(s) missing from the assignment"
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "partial.tsv",
                    "--preds", "preds.jsonl", "--db", "clinic.db", "--out", "partial.json"]) == 2
        assert f"medsql eval: {message}" in capsys.readouterr().err
        assert not Path("partial.json").exists()
        assert cmd(["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--assignment", "partial.tsv", "--split", "TEST"]) == 2
        assert f"medsql linearize: {message}" in capsys.readouterr().err

    def test_bad_split_name_is_the_usage_error_of_linearize(self, workdir, clinic, capsys):
        assert cmd(SPLIT_ARGS) == 0
        self._write_gold_preds(clinic)
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "preds.jsonl", "--db", "clinic.db", "--split", "validation"]) == 1
        assert "medsql eval: error: --split must be one of TRAIN, DEV, TEST, not 'validation'" in capsys.readouterr().err
        assert cmd(["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--assignment", "split_assignment.tsv", "--split", "validation"]) == 1
        assert ("medsql linearize: error: --split must be one of TRAIN, DEV, TEST, not 'validation'"
                in capsys.readouterr().err)

    def test_malformed_predictions_exit_two(self, workdir):
        assert cmd(SPLIT_ARGS) == 0
        Path("broken.jsonl").write_text("{not json}\n", encoding="utf-8")
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "broken.jsonl", "--db", "clinic.db"]) == 2

    def test_missing_db_exits_three(self, workdir, clinic):
        assert cmd(SPLIT_ARGS) == 0
        self._write_gold_preds(clinic)
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "preds.jsonl", "--db", "absent.db"]) == 3

    def test_missing_preds_file_exits_three(self, workdir):
        assert cmd(SPLIT_ARGS) == 0
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "absent.jsonl", "--db", "clinic.db"]) == 3


class TestGoldParsing:
    """ingest, stats and split parse every gold query; eval parses its
    split's, and linearize and augment none."""

    BAD_SQL = "SELECT COUNT(*) FROM LAB WHERE"

    def _corpus_with_bad_gold(self, clinic, split: Split) -> str:
        """Writes the assignment, TEST's gold queries as ``preds.jsonl``,
        and the corpus as ``bad.jsonl`` with the gold query of its first
        ``split`` record outside the dialect. Returns that record's error
        as the CLI prints it: ``record N: <parse message>``."""
        assert cmd(SPLIT_ARGS) == 0
        write_jsonl("preds.jsonl", [{"id": s.id, "sql": s.gold_sql} for s in _test_samples(clinic)])
        assignment = SplitAssignment.load("split_assignment.tsv")
        records = [s.to_record() for s in clinic.corpus]
        index = next(k for k, s in enumerate(clinic.corpus) if assignment.by_id[s.id] is split)
        records[index]["sql"] = self.BAD_SQL
        write_jsonl("bad.jsonl", records)
        with pytest.raises(errors.ParseError) as parse_error:
            parse_sql(self.BAD_SQL)
        return f"record {index + 1}: {parse_error.value}"

    def test_linearize_and_augment_lex_no_gold_query(self, workdir, lexed):
        # Both used to lex every gold query to validate the corpus.
        assert cmd(SPLIT_ARGS) == 0
        lexed.clear()
        assert cmd(["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--assignment", "split_assignment.tsv"]) == 0
        assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub"]) == 0
        assert lexed == []

    def test_eval_lexes_only_its_splits_gold_queries(self, workdir, clinic, lexed):
        # It used to lex every gold query in the corpus to validate it.
        assert cmd(SPLIT_ARGS) == 0
        # The one prediction is for a sample outside TEST, so no prediction is lexed.
        test_ids = {s.id for s in _test_samples(clinic)}
        other = next(s for s in clinic.corpus if s.id not in test_ids)
        write_jsonl("preds.jsonl", [{"id": other.id, "sql": other.gold_sql}])
        lexed.clear()
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "preds.jsonl", "--db", "clinic.db", "--split", "TEST"]) == 0
        assert lexed == [s.gold_sql for s in _test_samples(clinic)]

    def test_a_bad_gold_query_in_train_fails_only_the_commands_that_parse_every_one(self, workdir, clinic, capsys):
        # linearize, augment and eval used to exit 2 on it too.
        line = self._corpus_with_bad_gold(clinic, Split.TRAIN)
        capsys.readouterr()
        for argv in (
            ["linearize", "--corpus", "bad.jsonl", "--schema", "schema.json", "--assignment", "split_assignment.tsv"],
            ["augment", "--corpus", "bad.jsonl", "--stub"],
            ["eval", "--corpus", "bad.jsonl", "--assignment", "split_assignment.tsv",
             "--preds", "preds.jsonl", "--db", "clinic.db"],
        ):
            assert cmd(argv) == 0, argv
        assert capsys.readouterr().err == ""
        for argv in (
            ["ingest", "--corpus", "bad.jsonl", "--schema", "schema.json", "--out", "ingested.jsonl"],
            ["stats", "--corpus", "bad.jsonl", "--schema", "schema.json"],
            ["split", "--corpus", "bad.jsonl", "--test-size", "400", "--seed", "7", "--out", "again.tsv"],
        ):
            assert cmd(argv) == 2, argv
            assert capsys.readouterr().err == f"medsql {argv[0]}: data error: {line}\n"

    def test_a_bad_gold_query_in_the_scored_split_fails_eval_as_it_fails_stats(self, workdir, clinic, capsys):
        line = self._corpus_with_bad_gold(clinic, Split.TEST)
        assert cmd(["stats", "--corpus", "bad.jsonl", "--schema", "schema.json"]) == 2
        stats_err = capsys.readouterr().err
        assert cmd(["eval", "--corpus", "bad.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "preds.jsonl", "--db", "clinic.db", "--out", "report.json"]) == 2
        assert capsys.readouterr().err.removeprefix("medsql eval: ") == stats_err.removeprefix("medsql stats: ")
        assert stats_err == f"medsql stats: data error: {line}\n"
        assert not Path("report.json").exists()


class TestDatabasePathCharacters:
    @pytest.mark.parametrize("db", ["a?b.db", "h#1.db", "x%41.db"])
    def test_rerank_recover_and_eval_open_the_named_file(self, clinic, tmp_path, monkeypatch, capsys, db):
        # SQLite read a "?" or "#" in the path as the start of the URI's query or fragment and
        # decoded "%41": a?b.db opened a new, empty file "a" read-write, every candidate failed,
        # and rerank exited 0; x%41.db asked for xA.db and exited 3.
        runs = []
        for name in ("clinic.db", db):
            directory = tmp_path / str(len(runs))
            _stage(clinic, directory)
            (directory / "clinic.db").rename(directory / name)
            monkeypatch.chdir(directory)
            codes = [cmd([name if arg == "clinic.db" else arg for arg in argv]) for argv in _pipeline(clinic)]
            outputs = {("clinic.db" if p.name == name else p.name): p.read_bytes()
                       for p in sorted(directory.iterdir()) if not p.name.endswith(".manifest.json")}
            manifests = sorted(p.name for p in directory.iterdir() if p.name.endswith(".manifest.json"))
            runs.append((codes, capsys.readouterr(), outputs, manifests))
        (codes, out, outputs, manifests), (codes1, out1, outputs1, manifests1) = runs
        assert codes == codes1 == [0] * 8
        assert (out.out, out.err) == (out1.out, out1.err)
        assert outputs == outputs1
        assert manifests == manifests1


class TestPipeline:
    def test_rerank_then_recover_then_eval(self, workdir, clinic):
        assert cmd(SPLIT_ARGS) == 0
        samples = _test_samples(clinic)
        write_jsonl("beams.jsonl", [
            {"id": s.id, "candidates": [
                {"sql": "SELECT NOPE FROM NOWHERE", "score": 0.9},
                {"sql": s.gold_sql.replace("ASSAY", "assay"), "score": 0.5},
            ]}
            for s in samples
        ])
        assert cmd(["rerank", "--preds", "beams.jsonl", "--db", "clinic.db",
                    "--out", "reranked.jsonl"]) == 0
        assert cmd(["recover", "--preds", "reranked.jsonl", "--db", "clinic.db",
                    "--schema", "schema.json", "--out", "final.jsonl"]) == 0
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "final.jsonl", "--db", "clinic.db", "--out", "report.json"]) == 0
        assert read_json("report.json")["acc_lf"] == 1.0
        assert read_json("report.json")["acc_ex"] == 1.0

    def test_rerank_recover_and_eval_each_open_the_database_once(self, workdir, clinic, monkeypatch):
        # recover used to open it once to check it and once more for each column it loaded.
        assert cmd(SPLIT_ARGS) == 0
        samples = _test_samples(clinic)
        write_jsonl("beams.jsonl", [
            {"id": s.id, "candidates": [{"sql": "SELECT NOPE FROM NOWHERE", "score": 0.9},
                                        {"sql": s.gold_sql.replace("ASSAY", "assay"), "score": 0.5}]}
            for s in samples
        ])
        opened = []
        open_exec_db = store.open_exec_db
        monkeypatch.setattr(store, "open_exec_db", lambda path: opened.append(open_exec_db(path)) or opened[-1])
        runs = [
            ["rerank", "--preds", "beams.jsonl", "--db", "clinic.db", "--out", "reranked.jsonl"],
            ["recover", "--preds", "reranked.jsonl", "--db", "clinic.db", "--schema", "schema.json"],
            ["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
             "--preds", "recovered_predictions.jsonl", "--db", "clinic.db"],
        ]
        for argv in runs:
            opened.clear()
            assert cmd(argv) == 0
            assert len(opened) == 1, argv[0]
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                opened[0].execute("SELECT 1")
        assert read_json("recover_report.json")["replaced"] > 0

    def test_each_input_is_hashed_once(self, workdir, monkeypatch):
        hashed = []
        file_sha256 = records.file_sha256
        monkeypatch.setattr(records, "file_sha256", lambda path: hashed.append(path) or file_sha256(path))
        assert cmd(SPLIT_ARGS + ["--schema", "schema.json"]) == 0
        assert sorted(hashed) == ["corpus.jsonl", "schema.json"]
        manifests = [read_json(f"{out}.manifest.json") for out in ("split_assignment.tsv", "split_report.json")]
        assert manifests[0]["inputs"] == manifests[1]["inputs"]

    def test_an_in_place_run_records_the_digest_of_what_it_read(self, workdir, hash_log):
        # The digest used to be taken after the stage, i.e. of its own output.
        lines = Path("corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        Path("c.jsonl").write_text("".join(lines[:20]), encoding="utf-8")
        read = hashlib.sha256(Path("c.jsonl").read_bytes()).hexdigest()
        assert cmd(["augment", "--corpus", "c.jsonl", "--stub", "--out", "c.jsonl"]) == 0
        assert [event[:2] for event in hash_log] == [("hash", "c.jsonl"), ("run", "augment")]
        assert read_json("c.jsonl.manifest.json")["inputs"]["corpus"] == {"path": "c.jsonl", "sha256": read}
        assert hashlib.sha256(Path("c.jsonl").read_bytes()).hexdigest() != read

    def test_manifests_record_input_digests(self, workdir):
        assert cmd(SPLIT_ARGS) == 0
        manifest = read_json("split_assignment.tsv.manifest.json")
        assert manifest["command"] == "split"
        assert manifest["seed"] == 7
        assert manifest["inputs"]["corpus"]["path"] == "corpus.jsonl"
        assert len(manifest["inputs"]["corpus"]["sha256"]) == 64
        assert "config_hash" in manifest
        assert "timestamp" not in json.dumps(manifest)


def _pipeline(clinic) -> list[list[str]]:
    """The eight commands, in pipeline order, on the staged clinic files;
    writes the beam file that rerank reads."""
    write_jsonl("beams.jsonl", [
        {"id": s.id, "candidates": [{"sql": "SELECT NOPE FROM NOWHERE", "score": 0.9},
                                    {"sql": s.gold_sql.replace("ASSAY", "assay"), "score": 0.5}]}
        for s in _test_samples(clinic)
    ])
    return [
        ["ingest", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--out", "ingested.jsonl"],
        ["stats", "--corpus", "ingested.jsonl", "--schema", "schema.json"],
        ["split", "--corpus", "ingested.jsonl", "--test-size", "400", "--seed", "7", "--schema", "schema.json"],
        ["linearize", "--corpus", "ingested.jsonl", "--schema", "schema.json",
         "--assignment", "split_assignment.tsv"],
        ["augment", "--corpus", "ingested.jsonl", "--stub"],
        ["rerank", "--preds", "beams.jsonl", "--db", "clinic.db"],
        ["recover", "--preds", "reranked_predictions.jsonl", "--db", "clinic.db", "--schema", "schema.json"],
        ["eval", "--corpus", "ingested.jsonl", "--assignment", "split_assignment.tsv",
         "--preds", "recovered_predictions.jsonl", "--db", "clinic.db"],
    ]


def _pad(path: str, size: int) -> bytes:
    """Append a whitespace-only line to a JSON Lines file until it holds
    more than ``size`` bytes; readers skip the line. Returns the bytes."""
    data = Path(path).read_bytes()
    data += b" " * (size + 1 - len(data)) + b"\n"
    Path(path).write_bytes(data)
    return data


def _inputs(argv: list[str]) -> list[str]:
    """The input files a command line names, in option name order."""
    named = dict(zip(argv[1::2], argv[2::2]))
    return [named[f"--{dest}"] for dest in sorted(cli._INPUTS) if f"--{dest}" in named]


def _files() -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path().iterdir() if p.is_file()}


@pytest.fixture()
def hash_log(monkeypatch) -> list[tuple]:
    """("hash", file name, thread id) for each file hashed and ("run",
    command) for each stage started, in the order they happen."""
    log: list[tuple] = []
    file_sha256 = records.file_sha256
    monkeypatch.setattr(records, "file_sha256",
                        lambda path: log.append(("hash", path, threading.get_ident())) or file_sha256(path))
    for name, (help_text, handler, options) in list(cli._COMMANDS.items()):
        def spy(resolved, name=name, handler=handler):
            log.append(("run", name))
            return handler(resolved)

        monkeypatch.setitem(cli._COMMANDS, name, (help_text, spy, options))
    return log


class TestInlineHashing:
    # Inputs over 1 MiB used to be hashed on a second thread while the stage ran.
    LARGE = 1 << 20

    def test_every_input_is_hashed_once_on_the_calling_thread_before_its_stage(self, workdir, clinic, hash_log):
        runs = _pipeline(clinic)
        _pad("corpus.jsonl", self.LARGE)
        expected = []
        for argv in runs:
            assert cmd(argv) == 0, argv
            expected += [("hash", path, threading.get_ident()) for path in _inputs(argv)] + [("run", argv[0])]
        assert hash_log == expected
        assert sum(event[0] == "hash" for event in hash_log) == 19

    def test_no_command_of_the_pipeline_starts_a_thread(self, workdir, clinic, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name) or start(thread))
        runs = _pipeline(clinic)
        _pad("corpus.jsonl", self.LARGE)
        assert [cmd(argv) for argv in runs] == [0] * 8
        assert started == []

    def test_a_read_error_on_any_input_exits_three_and_changes_no_file(self, workdir, clinic, monkeypatch, capsys):
        # A large input's read error used to surface only after the stage had written its outputs.
        runs = _pipeline(clinic)
        _pad("corpus.jsonl", self.LARGE)
        file_sha256 = records.file_sha256
        for argv in runs:
            for unreadable in _inputs(argv):
                def failing(path, unreadable=unreadable):
                    if path == unreadable:
                        raise OSError(errno.EIO, "Input/output error")
                    return file_sha256(path)

                monkeypatch.setattr(records, "file_sha256", failing)
                before = _files()
                assert cmd(argv) == 3, (argv, unreadable)
                err = capsys.readouterr().err
                assert err == f"medsql {argv[0]}: environment error: [Errno 5] Input/output error\n"
                assert _files() == before, (argv, unreadable)
            monkeypatch.setattr(records, "file_sha256", file_sha256)
            assert cmd(argv) == 0, argv

    def test_a_read_error_wins_over_the_stages_data_error_and_the_stage_never_runs(self, workdir, monkeypatch,
                                                                                   capsys, hash_log):
        # The stage's data error used to win over a large input's read error on the thread.
        Path("broken.jsonl").write_text("{not json}\n", encoding="utf-8")

        def failing(path):
            hash_log.append(("hash", path, threading.get_ident()))
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(records, "file_sha256", failing)
        assert cmd(["stats", "--corpus", "broken.jsonl", "--schema", "schema.json"]) == 3
        assert capsys.readouterr().err == "medsql stats: environment error: [Errno 5] Input/output error\n"
        assert hash_log == [("hash", "broken.jsonl", threading.get_ident())]

    @pytest.fixture()
    def opened(self, monkeypatch) -> list:
        """Every file the hashing loop opens, in order."""
        files: list = []

        def spy(*args, **kwargs):
            files.append(open(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(records, "open", spy, raising=False)
        return files

    def test_a_stage_that_exits_two_leaves_every_hashed_input_closed(self, workdir, clinic, opened, capsys):
        assert cmd(SPLIT_ARGS) == 0
        write_jsonl("partial.jsonl", [{"id": s.id, "sql": s.gold_sql} for s in _test_samples(clinic)[:10]])
        opened.clear()
        before = _files()
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                    "--preds", "partial.jsonl", "--db", "clinic.db", "--strict"]) == 2
        assert "medsql eval: data error:" in capsys.readouterr().err
        # Hashed first, in name order; the stage's own readers follow.
        assert [Path(fh.name).name for fh in opened[:4]] == [
            "split_assignment.tsv", "corpus.jsonl", "clinic.db", "partial.jsonl"]
        assert all(fh.closed for fh in opened)
        assert _files() == before

    def test_an_input_that_fails_to_open_leaves_the_one_hashed_before_it_closed(self, workdir, opened, capsys):
        _pad("corpus.jsonl", self.LARGE)
        Path("adir").mkdir()
        assert cmd(["stats", "--corpus", "corpus.jsonl", "--schema", "adir", "--out", "out.json"]) == 3
        assert capsys.readouterr().err == "medsql stats: environment error: [Errno 21] Is a directory: 'adir'\n"
        assert [Path(fh.name).name for fh in opened] == ["corpus.jsonl"]
        assert opened[0].closed
        assert not Path("out.json").exists()


def _a_pipe() -> str:
    """The read end of a pipe holding the first bytes of the corpus, as a path."""
    read_end, write_end = os.pipe()
    os.write(write_end, Path("corpus.jsonl").read_bytes()[:4096])
    os.close(write_end)
    return f"/dev/fd/{read_end}"


def _a_socket() -> str:
    with socket.socket(socket.AF_UNIX) as server:
        server.bind("s.sock")
    return "s.sock"


class TestSpecialInputFiles:
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("make", [_a_pipe, _a_socket, lambda: os.devnull], ids=["pipe", "socket", "device"])
    def test_exit_two_naming_the_option_before_any_input_is_read(self, workdir, monkeypatch, capsys, make):
        # The hash used to drain a pipe before the stage read it: "ingested 0 samples", exit 0.
        path = make()
        hashed = []
        file_sha256 = records.file_sha256
        monkeypatch.setattr(records, "file_sha256", lambda p: hashed.append(p) or file_sha256(p))
        before = sorted(os.listdir())
        assert cmd(["ingest", "--corpus", path, "--schema", "schema.json", "--out", "out.jsonl"]) == 2
        err = capsys.readouterr().err
        assert f"medsql ingest: data error: --corpus must name a file, not a pipe, socket or device: {path}" in err
        assert hashed == []
        assert sorted(os.listdir()) == before
        if path.startswith("/dev/fd/"):
            fd = int(path.rsplit("/", 1)[1])
            assert os.read(fd, 10) == Path("corpus.jsonl").read_bytes()[:10]
            os.close(fd)

    def test_a_directory_still_exits_three(self, workdir, capsys):
        Path("adir").mkdir()
        assert cmd(["ingest", "--corpus", "adir", "--schema", "schema.json", "--out", "out.jsonl"]) == 3
        assert capsys.readouterr().err == "medsql ingest: environment error: [Errno 21] Is a directory: 'adir'\n"
        assert not Path("out.jsonl").exists()


# Each names an absent corpus: reading any input would exit 3.
_ABSENT_EVAL = ["eval", "--corpus", "absent.jsonl", "--assignment", "absent.tsv", "--preds", "absent.jsonl",
                "--db", "absent.db"]
_ABSENT_LINEARIZE = ["linearize", "--corpus", "absent.jsonl", "--schema", "absent.json", "--assignment", "absent.tsv"]
_ABSENT_INGEST = ["ingest", "--corpus", "absent.jsonl", "--schema", "schema.json"]
# The longest wait the platform takes: 9,223,372,036,000 ms on 64-bit Linux.
_LONGEST_TIMEOUT_MS = int(threading.TIMEOUT_MAX) * 1000
_NO_HTTP_URL = "data error: --translate-url must be an http or https URL with a host, not 'ftp://x'"


class TestOptionValuesBeforeAnyInput:
    @pytest.mark.parametrize("argv, env, code, message", [
        ([*_ABSENT_EVAL, "--split", "bogus"], None, 1, "error: --split must be one of TRAIN, DEV, TEST, not 'bogus'"),
        ([*_ABSENT_EVAL, "--split", "dev "], None, 1, "error: --split must be one of TRAIN, DEV, TEST, not 'dev '"),
        ([*_ABSENT_LINEARIZE, "--split", "Dev "], None, 1,
         "error: --split must be one of TRAIN, DEV, TEST, not 'Dev '"),
        ([*_ABSENT_LINEARIZE, "--question-source", "Templates"], None, 1,
         "error: --question-source must be one of template, paraphrase, synthetic, all, not 'Templates'"),
        ([*_ABSENT_INGEST, "--field-map", "bogus"], None, 1,
         "error: --field-map entries must be canonical=source, got 'bogus'"),
        ([*_ABSENT_INGEST, "--field-map", "id=qid,id=alt"], None, 1,
         "error: --field-map must name each canonical field once, not 'id' twice"),
        ([*_ABSENT_INGEST, "--field-map", "sql=query,id=id,sql=sql"], None, 1,
         "error: --field-map must name each canonical field once, not 'sql' twice"),
        (["augment", "--corpus", "absent.jsonl", "--translate-url", "ftp://x"], None, 2, _NO_HTTP_URL),
        (["augment", "--corpus", "absent.jsonl", "--config", "cfg.json"], None, 2, _NO_HTTP_URL),
        (["augment", "--corpus", "absent.jsonl"], "ftp://x", 2, _NO_HTTP_URL),
        (["augment", "--corpus", "absent.jsonl"], None, 1,
         "error: augment needs --stub or a translation endpoint (--translate-url or MEDSQL_TRANSLATE_URL)"),
    ], ids=["eval-split", "eval-split-as-given", "linearize-split", "linearize-question-source", "ingest-field-map",
            "ingest-field-map-twice", "ingest-field-map-twice-apart", "url-flag", "url-config", "url-env",
            "no-translator"])
    def test_a_bad_value_is_reported_and_no_input_is_read(self, workdir, monkeypatch, capsys, argv, env, code,
                                                          message):
        # Each was checked by the stage, after the inputs were opened: exit 3, "No such file or directory".
        Path("cfg.json").write_text(json.dumps({"translate_url": "ftp://x"}), encoding="utf-8")
        if env is None:
            monkeypatch.delenv("MEDSQL_TRANSLATE_URL", raising=False)
        else:
            monkeypatch.setenv("MEDSQL_TRANSLATE_URL", env)
        hashed = []
        file_sha256 = records.file_sha256
        monkeypatch.setattr(records, "file_sha256", lambda p: hashed.append(p) or file_sha256(p))
        before = sorted(os.listdir())
        assert cmd(argv) == code
        assert capsys.readouterr().err == f"medsql {argv[0]}: {message}\n"
        assert hashed == []
        assert sorted(os.listdir()) == before

    def test_the_stub_ignores_a_bad_endpoint(self, workdir, monkeypatch):
        monkeypatch.setenv("MEDSQL_TRANSLATE_URL", "ftp://x")
        assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub"]) == 0


class TestCollidingOutputs:
    @pytest.mark.parametrize(
        "out, report, message",
        [
            ("same.out", "same.out", "--out and --report name the same file"),
            ("same.out", "sub/../same.out", "--out and --report name the same file"),
            ("a.tsv", "a.tsv.manifest.json", "the manifest of --out and --report name the same file"),
            ("a.tsv.manifest.json", "a.tsv", "--out and the manifest of --report name the same file"),
        ],
        ids=["same", "same-after-resolve", "report-is-the-manifest-of-out", "out-is-the-manifest-of-report"],
    )
    @pytest.mark.parametrize("name", ["split", "augment", "recover"])
    def test_exit_one_and_leave_every_file_as_it_was(self, workdir, capsys, name, out, report, message):
        # The later output used to replace the earlier one, and the run exited 0.
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "engl"'}])
        Path("sub").mkdir()
        for path in (out, report):
            Path(path).write_text("kept\n", encoding="utf-8")
        argv = {
            "split": SPLIT_ARGS,
            "augment": ["augment", "--corpus", "corpus.jsonl", "--stub"],
            "recover": ["recover", "--preds", "preds.jsonl", "--db", "clinic.db", "--schema", "schema.json"],
        }[name]
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        assert cmd(argv + ["--out", out, "--report", report]) == 1
        assert f"medsql {name}: error: {message} " in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before
        assert list(Path("sub").iterdir()) == []


class TestOutputDirectories:
    # Each command that writes two outputs: a first run, and the options that make a second run differ.
    RUNS = {
        "split": (["split", "--corpus", "corpus.jsonl", "--test-size", "10", "--seed", "0"], ["--seed", "7"]),
        "augment": (["augment", "--corpus", "corpus.jsonl", "--stub"], ["--pivots", "de"]),
        "recover": (["recover", "--preds", "preds.jsonl", "--db", "clinic.db", "--schema", "schema.json"],
                    ["--preds", "more.jsonl"]),
    }

    @pytest.mark.parametrize("dest", ["out", "report"])
    @pytest.mark.parametrize("name", ["split", "augment", "recover"])
    def test_exit_three_naming_the_option_and_leave_every_file_as_it_was(self, workdir, capsys, name, dest):
        # split --seed 7 --report nodir/r.json used to replace the seed-0 assignment, keep
        # its seed-0 manifest beside it, and then exit 3.
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "engl"'}])
        first, again = self.RUNS[name]
        assert cmd(first) == 0
        write_jsonl("more.jsonl", [{"id": "b", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "port"'}])
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        capsys.readouterr()
        assert cmd(first + again + [f"--{dest}", "nodir/r.json"]) == 3
        assert capsys.readouterr().err == (
            f"medsql {name}: environment error: --{dest} nodir/r.json: nodir is not an existing directory\n"
        )
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before
        assert not Path("nodir").exists()

    @pytest.mark.parametrize(
        "out, report, directory",
        [
            ("o.out", "adir", "adir"),
            ("adir", "r.json", "adir"),
            ("o.out", "r2.json", "r2.json.manifest.json"),
            ("o2.out", "r.json", "o2.out.manifest.json"),
        ],
        ids=["report", "out", "manifest-of-report", "manifest-of-out"],
    )
    @pytest.mark.parametrize("name", ["split", "augment", "recover"])
    def test_an_output_that_is_a_directory_exits_three_and_leaves_every_file_as_it_was(
        self, workdir, capsys, name, out, report, directory
    ):
        # split --seed 7 --out o.out --report adir used to replace the seed-0 assignment, keep its
        # seed-0 manifest beside it, and then exit 3.
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "engl"'}])
        first, again = self.RUNS[name]
        assert cmd(first + ["--out", "o.out", "--report", "r.json"]) == 0
        write_jsonl("more.jsonl", [{"id": "b", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "port"'}])
        Path(directory).mkdir()
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        capsys.readouterr()
        assert cmd(first + again + ["--out", out, "--report", report]) == 3
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before
        assert list(Path(directory).iterdir()) == []
        dest, named = ("out", out) if directory.startswith(out) else ("report", report)
        assert capsys.readouterr().err == (
            f"medsql {name}: environment error: --{dest} {named}: {directory} is a directory\n"
        )

    @pytest.mark.parametrize("name", ["split", "augment", "recover"])
    def test_an_output_whose_manifest_name_has_the_longest_length_is_written(self, workdir, name):
        # split --seed 7 with this report used to exit 3 (File name too long, for the temporary file of
        # the report's manifest), leaving the seed-7 assignment and the new report without its manifest.
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "engl"'}])
        first, again = self.RUNS[name]
        assert cmd(first + ["--out", "asg.tsv", "--report", "r.json"]) == 0
        write_jsonl("more.jsonl", [{"id": "b", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "port"'}])
        report = "r" * 236 + ".json"
        assert len(f"{report}.manifest.json") == 255
        assert cmd(first + again + ["--out", "asg.tsv", "--report", report]) == 0
        names = {p.name for p in workdir.iterdir()}
        assert {"asg.tsv", "asg.tsv.manifest.json", report, f"{report}.manifest.json"} <= names
        assert not [n for n in names if n.endswith(".tmp")]
        assert read_json(f"{report}.manifest.json")["output"] == report

    def test_the_default_output_of_linearize_is_checked_too(self, workdir, capsys):
        # Without --out, train_template.jsonl used to be replaced before its manifest path, a directory,
        # failed the run with exit 3.
        assert cmd(SPLIT_ARGS) == 0
        argv = ["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--assignment",
                "split_assignment.tsv"]
        assert cmd(argv) == 0
        Path("train_template.jsonl.manifest.json").unlink()
        Path("train_template.jsonl.manifest.json").mkdir()
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        capsys.readouterr()
        assert cmd(argv + ["--sep", "@@"]) == 3
        assert capsys.readouterr().err == (
            "medsql linearize: environment error: --out train_template.jsonl: "
            "train_template.jsonl.manifest.json is a directory\n"
        )
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before

    def test_a_file_is_not_a_directory(self, workdir, capsys):
        Path("afile").write_text("kept\n", encoding="utf-8")
        assert cmd(SPLIT_ARGS + ["--out", "afile/a.tsv"]) == 3
        assert "environment error: --out afile/a.tsv: afile is not an existing directory" in capsys.readouterr().err
        assert not Path("split_report.json").exists()


class TestOutputFileMode:
    @pytest.fixture(autouse=True)
    def kept_umask(self):
        kept = os.umask(0o022)
        yield
        os.umask(kept)

    @pytest.mark.parametrize(("mask", "mode"), [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_outputs_and_manifests_get_the_mode_of_a_new_file_under_the_umask(self, workdir, mask, mode):
        # Every output and manifest used to be 0600, the mode of tempfile.mkstemp, whatever the umask.
        os.umask(mask)
        names = ["split_assignment.tsv", "split_report.json"]
        for _ in range(2):  # a rewrite gives the same mode as a first write
            assert cmd(SPLIT_ARGS) == 0
            for name in names + [f"{n}.manifest.json" for n in names]:
                assert oct(Path(name).stat().st_mode & 0o777) == oct(mode), name

    def test_the_umask_is_left_as_it_was(self, workdir):
        os.umask(0o027)
        assert cmd(SPLIT_ARGS) == 0
        assert os.umask(0o027) == 0o027


class TestEmptyOutputs:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("dest", ["out", "report"])
    @pytest.mark.parametrize("name", ["split", "augment", "recover"])
    def test_exit_one_naming_the_option_before_any_input_is_read(self, workdir, monkeypatch, capsys, name, dest,
                                                                 source):
        # split --seed 7 --report "" used to replace the seed-0 assignment, keep its seed-0
        # manifest beside it, and then exit 3 on renaming the report onto ".".
        write_jsonl("preds.jsonl", [{"id": "a", "sql": 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "engl"'}])
        first, again = {
            "split": (["split", "--corpus", "corpus.jsonl", "--test-size", "10", "--seed", "0"], ["--seed", "7"]),
            "augment": (["augment", "--corpus", "corpus.jsonl", "--stub"], ["--pivots", "de"]),
            "recover": (["recover", "--preds", "preds.jsonl", "--db", "clinic.db", "--schema", "schema.json"], []),
        }[name]
        assert cmd(first) == 0
        if source == "flag":
            option = [f"--{dest}", ""]
        else:
            Path("cfg.json").write_text(json.dumps({dest: ""}), encoding="utf-8")
            option = ["--config", "cfg.json"]
        hashed = []
        file_sha256 = records.file_sha256
        monkeypatch.setattr(records, "file_sha256", lambda p: hashed.append(p) or file_sha256(p))
        before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
        capsys.readouterr()
        assert cmd(first + again + option) == 1
        assert capsys.readouterr().err == f"medsql {name}: error: --{dest} must name a file, not ''\n"
        assert hashed == []
        assert {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()} == before

    def test_an_empty_linearize_out_still_names_the_default_output(self, workdir):
        assert cmd(SPLIT_ARGS) == 0
        assert cmd(["linearize", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                    "--assignment", "split_assignment.tsv", "--out", ""]) == 0
        assert Path("train_template.jsonl.manifest.json").exists()


class TestMalformedInputFiles:
    @pytest.mark.parametrize(
        "argv, name, body",
        [
            (["ingest", "--corpus", "raw.json", "--schema", "schema.json"],
             "raw.json", b'[{"id": "a", "question_template": "q"'),
            (["stats", "--corpus", "raw.jsonl", "--schema", "schema.json"],
             "raw.jsonl", b'{"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"}\n\xff\n'),
            (["stats", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--config", "cfg.json"],
             "cfg.json", b'{"out": "\xff"}'),
            (["stats", "--corpus", "corpus.jsonl", "--schema", "bad_schema.json"],
             "bad_schema.json", b'{"tables": [{"name": 5, "columns": []}]}'),
            (["stats", "--corpus", "corpus.jsonl", "--schema", "bad_schema.json"],
             "bad_schema.json", b'{"tables": [{"name": "T", "columns": [{"name": 5, "attr": "text"}]}]}'),
            (["ingest", "--corpus", "raw.json", "--schema", "schema.json"], "raw.json", b"[" * 100_000),
            (["stats", "--corpus", "raw.jsonl", "--schema", "schema.json"], "raw.jsonl", b'{"id": ' + b"[" * 100_000),
        ],
        ids=["truncated-array-corpus", "undecodable-corpus", "undecodable-config", "table-name", "column-name",
             "deep-array-corpus", "deep-jsonl-record"],
    )
    def test_exits_two(self, workdir, capsys, argv, name, body):
        # Each of these used to escape as a raw exception with a traceback.
        Path(name).write_bytes(body)
        assert cmd(argv + ["--out", "out.json"]) == 2
        assert "data error:" in capsys.readouterr().err
        assert not Path("out.json").exists()


class TestSchemaErrors:
    @pytest.mark.parametrize("body, detail", [
        (b"{", "the document is not valid JSON: "),
        (b"[]", "the document must hold a JSON object"),
        (b"{}", "missing key 'tables'"),
        (b'{"tables": "LAB"}', "'tables' must be a list of objects"),
        (b'{"tables": 1.5}', "'tables' must be a list of objects"),
        (b'{"tables": ["LAB"]}', "'tables' must be a list of objects"),
        (b'{"tables": [{"columns": []}]}', "missing key 'name'"),
        (b'{"tables": [{"name": "T"}]}', "missing key 'columns'"),
        (b'{"tables": [{"name": "T", "columns": {"A": "text"}}]}', "'columns' must be a list of objects"),
        (b'{"tables": [{"name": "T", "columns": [null]}]}', "'columns' must be a list of objects"),
        (b'{"tables": [{"name": "T", "columns": [{"name": "A"}]}]}', "missing key 'attr'"),
        (b'{"tables": [{"name": "T", "columns": [{"attr": "text"}]}]}', "missing key 'name'"),
        (b'{"tables": [{"name": 5, "columns": []}]}', "table name must be a string, not int"),
        (b'{"tables": [{"name": "T", "columns": [{"name": "A", "attr": ["text"]}]}]}',
         "column A: unknown attribute ['text']"),
        (b'{"tables": [{"name": "T", "columns": [{"name": "A", "attr": "text"}, {"name": "a", "attr": "number"}]}]}',
         "table T: duplicate column names"),
    ])
    @pytest.mark.parametrize("argv", [
        ["ingest", "--corpus", "corpus.jsonl"],
        ["stats", "--corpus", "corpus.jsonl"],
        ["recover", "--preds", "preds.jsonl", "--db", "clinic.db", "--report", "r.json"],
    ], ids=["ingest", "stats", "recover"])
    def test_name_the_file_in_the_terms_of_the_schema_format(self, workdir, capsys, argv, body, detail):
        # These used to name no file, and several carried Python's own text
        # ("'tables'", "string indices must be integers, not 'str'").
        write_jsonl("preds.jsonl", [{"id": "a", "sql": "SELECT COUNT(*) FROM LAB"}])
        Path("bad_schema.json").write_bytes(body)
        assert cmd(argv + ["--schema", "bad_schema.json", "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"medsql {argv[0]}: data error: schema file bad_schema.json: {detail}")
        assert err.count("\n") == 1
        assert not Path("out.json").exists()

    def test_a_record_schema_keeps_its_record_prefix(self, workdir, capsys):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "b", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB", "schema": {"tables": [{}]}},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "out.jsonl"]) == 2
        assert capsys.readouterr().err == "medsql ingest: data error: record 2: missing key 'name'\n"

    def test_a_record_schema_that_is_not_an_object_exits_two(self, workdir, capsys):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB"},
            {"id": "b", "question_template": "q", "sql": "SELECT COUNT(*) FROM LAB", "schema": ["LAB"]},
        ])
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "out.jsonl"]) == 2
        assert capsys.readouterr().err == "medsql ingest: data error: record 2: a schema must be a JSON object\n"
        assert not Path("out.jsonl").exists()


class TestLoneSurrogate:
    """JSON may escape a lone surrogate, which neither a UTF-8 file nor SQLite
    can take: each of these used to die with a UnicodeEncodeError traceback."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json"],
             r'{"id": "a", "question_template": "q \ud800", "sql": "SELECT COUNT(*) FROM LAB"}'),
            (["stats", "--corpus", "raw.jsonl", "--schema", "schema.json"],
             r'{"id": "a", "question_template": "q \ud800", "sql": "SELECT COUNT(*) FROM LAB"}'),
            (["rerank", "--preds", "raw.jsonl", "--db", "clinic.db"],
             r'{"id": "a", "candidates": [{"sql": "SELECT LABEL FROM LAB WHERE LABEL = \"\ud800\"", "score": 1}]}'),
            (["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv", "--preds", "raw.jsonl",
              "--db", "clinic.db"], r'{"id": "%s", "sql": "SELECT LABEL FROM LAB WHERE LABEL = \"\ud800\""}'),
            (["recover", "--preds", "raw.jsonl", "--db", "clinic.db", "--schema", "schema.json"],
             r'{"id": "a", "sql": "SELEC \uDFFF"}'),
        ],
        ids=["ingest", "stats", "rerank", "eval", "recover"],
    )
    def test_is_a_data_error_of_its_record(self, workdir, clinic, capsys, argv, line):
        assert cmd(SPLIT_ARGS) == 0
        # eval scores only the predictions of TEST samples.
        Path("raw.jsonl").write_text("\n" + line.replace("%s", _test_samples(clinic)[0].id) + "\n", encoding="ascii")
        assert cmd(argv + ["--out", "out.jsonl"]) == 2
        assert "data error: record 2: invalid JSON: lone surrogate" in capsys.readouterr().err
        assert not Path("out.jsonl").exists()

    def test_in_a_json_document_is_a_data_error_of_the_file(self, workdir, capsys):
        Path("raw.json").write_text(
            r'[{"id": "a", "question_template": "q \ud800", "sql": "SELECT COUNT(*) FROM LAB"}]', encoding="ascii"
        )
        assert cmd(["ingest", "--corpus", "raw.json", "--schema", "schema.json", "--out", "out.jsonl"]) == 2
        assert ("data error: corpus file is not valid JSON: lone surrogate '\\ud800' is not text"
                in capsys.readouterr().err)

    def test_an_escaped_pair_ingests_as_its_character(self, workdir):
        record = '{"id": "a", "question_template": "q %s", "sql": "SELECT COUNT(*) FROM LAB"}\n'
        Path("escaped.jsonl").write_text(record % "\\ud83d\\ude00", encoding="ascii")
        Path("plain.jsonl").write_text(record % "\N{GRINNING FACE}", encoding="utf-8")
        for name in ("escaped", "plain"):
            assert cmd(["ingest", "--corpus", f"{name}.jsonl", "--schema", "schema.json",
                        "--out", f"{name}_out.jsonl"]) == 0
        assert Path("escaped_out.jsonl").read_bytes() == Path("plain_out.jsonl").read_bytes()
        assert load_corpus("escaped_out.jsonl")[0].template_question == "q \N{GRINNING FACE}"


class TestConfigTypes:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["split", "--corpus", "corpus.jsonl"], {"test_size": "x"}),
            (["split", "--corpus", "corpus.jsonl"], {"seed": True}),
            (["augment", "--corpus", "corpus.jsonl", "--stub"], {"jobs": "abc"}),
            (["ingest", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--out", "i.jsonl"],
             {"normalize_tables": "false"}),
            (["stats", "--corpus", "corpus.jsonl", "--schema", "schema.json"], {"out": None}),
            (["rerank", "--preds", "p.jsonl", "--db", "clinic.db"], {"timeout_ms": 1.5}),
        ],
    )
    def test_mistyped_value_exits_two(self, workdir, capsys, argv, config):
        Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
        assert cmd(argv + ["--config", "cfg.json"]) == 2
        key = next(iter(config))
        assert f"data error: config key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["rerank", "--preds", "beams.jsonl", "--db", "clinic.db"], "timeout_ms", 0),
            (["rerank", "--preds", "beams.jsonl", "--db", "clinic.db"], "timeout_ms", -1),
            (["eval", "--corpus", "corpus.jsonl", "--assignment", "a.tsv", "--preds", "beams.jsonl",
              "--db", "clinic.db"], "timeout_ms", 0),
            (["augment", "--corpus", "corpus.jsonl", "--stub"], "retries", -1),
            (["augment", "--corpus", "corpus.jsonl", "--stub"], "timeout_ms", 0),
            (["augment", "--corpus", "corpus.jsonl", "--stub"], "jobs", -3),
            (["split", "--corpus", "absent.jsonl"], "test_size", -1),
        ],
        ids=["rerank-timeout-0", "rerank-timeout-negative", "eval-timeout", "augment-retries", "augment-timeout",
             "augment-jobs", "split-test-size"],
    )
    def test_value_below_its_minimum_exits_two(self, workdir, capsys, argv, dest, value, source):
        option = "--" + dest.replace("_", "-")
        if source == "flag":
            argv = argv + [option, str(value)]
        else:
            Path("cfg.json").write_text(json.dumps({dest: value}), encoding="utf-8")
            argv = argv + ["--config", "cfg.json"]
        # The input files are never read: beams.jsonl, a.tsv and absent.jsonl do not exist.
        assert cmd(argv + ["--out", "out.json"]) == 2
        least = {"jobs": 1, "timeout_ms": 1, "retries": 0, "test_size": 0}[dest]
        assert f"data error: {option} must be at least {least}, not {value}" in capsys.readouterr().err
        assert not Path("out.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", [_LONGEST_TIMEOUT_MS + 1, 10**400], ids=["one-ms-more", "huge"])
    @pytest.mark.parametrize("argv", [
        ["rerank", "--preds", "absent.jsonl", "--db", "absent.db"],
        [*_ABSENT_EVAL],
        ["augment", "--corpus", "absent.jsonl", "--translate-url", "http://127.0.0.1:1"],
    ], ids=["rerank", "eval", "augment"])
    def test_timeout_above_its_maximum_exits_two_before_any_input_is_read(self, workdir, monkeypatch, capsys,
                                                                           argv, value, source):
        # A huge value used to escape cmd as an OverflowError, from converting it to float in rerank and
        # eval; in augment, so did one second past the bound, from the socket timeout.
        if source == "flag":
            argv = argv + ["--timeout-ms", str(value)]
        else:
            Path("cfg.json").write_text(json.dumps({"timeout_ms": value}), encoding="utf-8")
            argv = argv + ["--config", "cfg.json"]
        hashed = []
        file_sha256 = records.file_sha256
        monkeypatch.setattr(records, "file_sha256", lambda p: hashed.append(p) or file_sha256(p))
        before = sorted(os.listdir())
        assert cmd(argv + ["--out", "out.json"]) == 2
        assert capsys.readouterr().err == (
            f"medsql {argv[0]}: data error: --timeout-ms must be at most {_LONGEST_TIMEOUT_MS}, not {value}\n"
        )
        assert hashed == []
        assert sorted(os.listdir()) == before

    def test_the_largest_timeout_is_accepted(self, workdir, clinic, monkeypatch, translate_server):
        largest = ["--timeout-ms", str(_LONGEST_TIMEOUT_MS)]
        base_url, _ = translate_server("echo")
        monkeypatch.delenv("MEDSQL_TRANSLATE_URL", raising=False)
        save_corpus(clinic.corpus[:2], "few.jsonl")
        assert cmd(["augment", "--corpus", "few.jsonl", "--translate-url", base_url, "--pivots", "fr",
                    "--out", "aug.jsonl", *largest]) == 0
        assert cmd(SPLIT_ARGS) == 0
        write_jsonl("preds.jsonl", [{"id": s.id, "sql": s.gold_sql} for s in _test_samples(clinic)])
        write_jsonl("beams.jsonl", [{"id": "a", "candidates": [{"sql": "SELECT COUNT(*) FROM LAB", "score": 0.5}]}])
        assert cmd(["rerank", "--preds", "beams.jsonl", "--db", "clinic.db", "--out", "r.jsonl", *largest]) == 0
        assert cmd(["eval", "--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv", "--preds",
                    "preds.jsonl", "--db", "clinic.db", "--out", "e.json", *largest]) == 0

    @pytest.mark.parametrize("name", ["eval", "rerank"])
    def test_jobs_is_a_usage_error_where_undeclared(self, workdir, capsys, name):
        # Only augment takes --jobs; eval and rerank run one loop on one connection.
        argv = [name, "--corpus", "corpus.jsonl", "--assignment", "a.tsv"] if name == "eval" else [name]
        assert cmd(argv + ["--preds", "p.jsonl", "--db", "clinic.db", "--out", "out.json", "--jobs", "2"]) == 1
        assert capsys.readouterr().err.endswith("medsql: error: unrecognized arguments: --jobs 2\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["clinic.db", "corpus.jsonl", "schema.json"]

    def test_minimum_values_are_accepted(self, workdir):
        assert cmd(["augment", "--corpus", "corpus.jsonl", "--stub", "--retries", "0", "--timeout-ms", "1",
                    "--jobs", "1"]) == 0

    def test_typed_values_and_null_defaults_are_accepted(self, workdir):
        write_jsonl("raw.jsonl", [
            {"id": "a", "question_template": "q", "sql": "SELECT COUNT(*) FROM PROCEDURE"},
        ])
        Path("cfg.json").write_text(json.dumps({"normalize_tables": False, "field_map": None}), encoding="utf-8")
        assert cmd(["ingest", "--corpus", "raw.jsonl", "--schema", "schema.json", "--out", "kept.jsonl",
                    "--config", "cfg.json"]) == 0
        assert load_corpus("kept.jsonl")[0].gold_sql == "SELECT COUNT(*) FROM PROCEDURE"


def _option_strings(only: str | None = None) -> dict[str, set[str]]:
    parser = build_parser(only)
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sub._actions for s in a.option_strings} for name, sub in subs.choices.items()}


def _switch(name: str) -> set[str]:
    return {f"--{name}", f"--no-{name}"}


COMMON_OPTIONS = {"-h", "--help", "--config"}

# The option strings of every subcommand and the config its manifest
# records when run with only the options the run below gives.
CLI_SURFACE = {
    "ingest": (
        {"--corpus", "--schema", "--out", "--field-map"} | _switch("normalize-tables"),
        {"corpus": "../corpus.jsonl", "schema": "../schema.json", "out": "corpus.jsonl", "field_map": None,
         "normalize_tables": True},
    ),
    "stats": (
        {"--corpus", "--schema", "--out"},
        {"corpus": "corpus.jsonl", "schema": "../schema.json", "out": "corpus_stats.json"},
    ),
    "split": (
        {"--corpus", "--schema", "--out", "--report", "--test-size", "--seed", "--designated"},
        {"corpus": "corpus.jsonl", "schema": None, "out": "split_assignment.tsv", "report": "split_report.json",
         "test_size": 400, "seed": 0, "designated": "LAB,PRESCRIPTIONS,PROCEDURES"},
    ),
    "linearize": (
        {"--corpus", "--schema", "--assignment", "--split", "--question-source", "--sep", "--out"},
        {"corpus": "corpus.jsonl", "schema": "../schema.json", "assignment": "split_assignment.tsv",
         "split": "TRAIN", "question_source": "template", "sep": "[SEP]", "out": None},
    ),
    "augment": (
        {"--corpus", "--out", "--report", "--pivots", "--translate-url", "--timeout-ms", "--retries", "--jobs"}
        | _switch("stub"),
        {"corpus": "corpus.jsonl", "out": "augmented_corpus.jsonl", "report": "augment_report.json",
         "pivots": "fr,de", "stub": True, "translate_url": "http://127.0.0.1:9/from-env", "timeout_ms": 10000,
         "retries": 2, "jobs": 1},
    ),
    "rerank": (
        {"--preds", "--db", "--out", "--timeout-ms"} | _switch("require-nonempty"),
        {"preds": "beams.jsonl", "db": "../clinic.db", "out": "reranked_predictions.jsonl",
         "require_nonempty": False, "timeout_ms": 5000},
    ),
    "recover": (
        {"--preds", "--db", "--schema", "--out", "--report"},
        {"preds": "reranked_predictions.jsonl", "db": "../clinic.db", "schema": "../schema.json",
         "out": "recovered_predictions.jsonl", "report": "recover_report.json"},
    ),
    "eval": (
        {"--corpus", "--assignment", "--split", "--preds", "--db", "--out", "--timeout-ms"}
        | _switch("strict") | _switch("breakdown"),
        {"corpus": "corpus.jsonl", "assignment": "split_assignment.tsv", "split": "TEST",
         "preds": "recovered_predictions.jsonl", "db": "../clinic.db", "out": "eval_report.json",
         "strict": False, "breakdown": True, "timeout_ms": 5000},
    ),
}

# The input options each manifest of the run below records (sorted, as
# written), and every input option a subcommand requires, in the order
# its missing-option message names them.
MANIFEST_INPUTS = {
    "ingest": ["corpus", "schema"],
    "stats": ["corpus", "schema"],
    "split": ["corpus"],
    "linearize": ["assignment", "corpus", "schema"],
    "augment": ["corpus"],
    "rerank": ["db", "preds"],
    "recover": ["db", "preds", "schema"],
    "eval": ["assignment", "corpus", "db", "preds"],
}
MISSING = {
    "ingest": "--corpus, --schema",
    "stats": "--corpus, --schema",
    "split": "--corpus",
    "linearize": "--corpus, --schema, --assignment",
    "augment": "--corpus",
    "rerank": "--preds, --db",
    "recover": "--preds, --db, --schema",
    "eval": "--corpus, --assignment, --preds, --db",
}


class TestSurface:
    def test_option_strings(self):
        expected = {name: options | COMMON_OPTIONS for name, (options, _) in CLI_SURFACE.items()}
        assert _option_strings() == expected
        assert sum(len(options) for options in expected.values()) == 79

    def test_manifests_record_every_option(self, workdir, clinic, monkeypatch):
        monkeypatch.setenv("MEDSQL_TRANSLATE_URL", "http://127.0.0.1:9/from-env")  # --stub wins
        (workdir / "run").mkdir()
        monkeypatch.chdir(workdir / "run")
        write_jsonl("beams.jsonl", [
            {"id": s.id, "candidates": [{"sql": s.gold_sql, "score": 0.5}]} for s in clinic.corpus[:3]
        ])
        runs = {
            "ingest": (["--corpus", "../corpus.jsonl", "--schema", "../schema.json"], "corpus.jsonl"),
            "stats": (["--corpus", "corpus.jsonl", "--schema", "../schema.json"], "corpus_stats.json"),
            "split": (["--corpus", "corpus.jsonl", "--test-size", "400"], "split_assignment.tsv"),
            "linearize": (["--corpus", "corpus.jsonl", "--schema", "../schema.json",
                           "--assignment", "split_assignment.tsv"], "train_template.jsonl"),
            "augment": (["--corpus", "corpus.jsonl", "--stub"], "augmented_corpus.jsonl"),
            "rerank": (["--preds", "beams.jsonl", "--db", "../clinic.db"], "reranked_predictions.jsonl"),
            "recover": (["--preds", "reranked_predictions.jsonl", "--db", "../clinic.db",
                         "--schema", "../schema.json"], "recovered_predictions.jsonl"),
            "eval": (["--corpus", "corpus.jsonl", "--assignment", "split_assignment.tsv",
                      "--preds", "recovered_predictions.jsonl", "--db", "../clinic.db"], "eval_report.json"),
        }
        assert list(runs) == list(CLI_SURFACE)
        for name, (argv, out) in runs.items():
            assert cmd([name, *argv]) == 0, name
            assert read_json(f"{out}.manifest.json")["config"] == CLI_SURFACE[name][1], name
            manifest = read_json(f"{out}.manifest.json")
            assert manifest["command"] == name
            assert manifest["seed"] == (0 if name == "split" else None), name
            assert list(manifest["inputs"]) == MANIFEST_INPUTS[name], name
        keys = set().union(*(config for _, config in CLI_SURFACE.values()))
        assert len(keys) == 24

    @pytest.mark.parametrize("name", list(CLI_SURFACE))
    def test_missing_inputs_are_named_in_declaration_order(self, workdir, capsys, name):
        assert cmd([name]) == 1
        assert capsys.readouterr() == ("", f"medsql {name}: error: missing required option(s): {MISSING[name]}\n")
        assert not list(workdir.glob("*.manifest.json"))


# What `import medsql` offers, submodules aside: a name joins or leaves on purpose.
PACKAGE_SURFACE = [
    "Sample", "SchemaDef", "SplitSpec", "SqlQuery", "assign_splits", "augment_corpus", "back_translate",
    "build_exec_db", "build_model_input", "build_value_lookup", "corpus_stats", "evaluate",
    "execution_match", "export_training_file", "linearize_schema", "load_corpus", "load_schema",
    "logic_form_match", "parse_sql", "recover_query", "recover_value", "rerank_file", "rouge_l_f1",
    "save_corpus", "serialize_sql", "similarity", "tokenize_sql", "verify_split",
]


class TestPackageSurface:
    def test_public_names(self):
        names = [name for name, value in vars(medsql).items()
                 if not name.startswith("_") and not isinstance(value, type(medsql))]
        assert sorted(names) == PACKAGE_SURFACE


# Help, version and usage errors: what a run prints and returns must not
# depend on which parser it built.
PARSER_PARITY_ARGV = [
    ["--help"],
    *([name, "--help"] for name in CLI_SURFACE),
    [],
    ["frobnicate"],
    ["--version"],
    ["eval", "--bogus"],
    ["ingest", "--corpus"],
    ["eval", "--timeout-ms", "x"],
]


class TestOneSubcommandParser:
    """A run builds only the parser of the subcommand that argv[0] names."""

    @pytest.mark.parametrize("argv", PARSER_PARITY_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_output_is_that_of_the_full_parser(self, capsys, monkeypatch, argv):
        got = (cmd(argv), *capsys.readouterr())
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda only=None: full())
        assert (cmd(argv), *capsys.readouterr()) == got
        assert got[1] or got[2]

    def test_the_usage_line_names_every_subcommand(self, capsys):
        assert cmd(["eval", "--bogus"]) == 1
        usage, error = capsys.readouterr().err.split("medsql: error: ")
        assert usage.startswith("usage: medsql [-h] [--version]")
        assert "{ingest,stats,split,linearize,augment,rerank,recover,eval} ...\n" in usage
        assert error == "unrecognized arguments: --bogus\n"

    def test_only_the_invoked_subcommands_options_are_added(self, workdir, monkeypatch):
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def spy(container, *args, **kwargs):
            added.append(args[0])
            return add_argument(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
        assert cmd(["stats", "--corpus", "corpus.jsonl", "--schema", "schema.json"]) == 0
        # -h of the top-level parser and of stats's.
        assert sorted(added) == sorted(["-h", "--version", "-h", "--config", "--corpus", "--schema", "--out"])

    @pytest.mark.parametrize("name", list(CLI_SURFACE))
    def test_a_subcommand_parser_holds_that_subcommand_alone(self, name):
        assert _option_strings(name) == {name: CLI_SURFACE[name][0] | COMMON_OPTIONS}

    @pytest.mark.parametrize("name", list(CLI_SURFACE))
    def test_every_option_parses_as_in_the_full_parser(self, name):
        argv = [name, "--config", "c.json"]
        for dest, default, kind, _ in cli._COMMANDS[name][2]:
            flag = dest.replace("_", "-")
            argv += [f"--no-{flag}"] if kind is bool else [f"--{flag}", "3"]
        args = build_parser(name).parse_args(argv)
        assert vars(args) == vars(build_parser().parse_args(argv))
        assert args.config == "c.json" and args.subcommand == name
