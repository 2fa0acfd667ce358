"""Crash-freedom of the command line: a guard, seeded and derandomized.

Each example mutates one record of a small clinic slice's corpus, prediction
file or beam file, or one node of its schema: it drops a key, swaps in an
odd JSON value, or edits one character of SQL; or it replaces one beam
candidate with a cross join. It then runs all eight commands through
``cmd``. Each must return 0 or 2 and raise nothing; a 2
prints one ``medsql <sub>: data error:`` line, which names the schema file
when the schema is the input at fault.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medsql.cli import cmd
from medsql.errors import DataError
from medsql.splits import SplitSpec, assign_splits
from medsql.store import load_schema

# A swapped-in value: null, booleans, an integer past 64 bits, a float near
# the top of its range, empty containers, NUL, and a lone surrogate, which
# json.dumps writes as the escape \ud800.
ODD_VALUES = [None, True, False, 2**70, 1e308, [], {}, "\0", "\ud800"]
SQL_CHARS = list(" ()*,.=<>!\"'%;-_AZaz09")
TEST_SIZE = 2


def _paths(value, prefix=()):
    """The path of every node of a JSON value, the root included."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _dump_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.fixture(scope="module")
def clinic_slice(clinic, tmp_path_factory):
    """30 corpus records, 20 predictions, 8 beams, the schema, a copy of the
    database, and a valid assignment of the records."""
    root = tmp_path_factory.mktemp("slice")
    corpus = clinic.corpus[::33][:30]
    records = {
        "corpus": [s.to_record() for s in corpus],
        "preds": [{"id": s.id, "sql": s.gold_sql} for s in corpus[:20]],
        "beams": [{"id": s.id, "candidates": [{"sql": s.gold_sql.replace("=", "!=", 1), "score": 0.9},
                                              {"sql": s.gold_sql, "score": 0.5}]} for s in corpus[::4][:8]],
        "schema": [json.loads(clinic.schema_path.read_text(encoding="utf-8"))],
    }
    files = {"corpus": root / "corpus.jsonl", "preds": root / "preds.jsonl", "beams": root / "beams.jsonl",
             "schema": root / "schema.json"}
    for name in ("corpus", "preds", "beams"):
        _dump_jsonl(files[name], records[name])
    shutil.copy(clinic.schema_path, files["schema"])
    shutil.copy(clinic.db_path, root / "clinic.db")
    assign_splits(corpus, SplitSpec(test_size=TEST_SIZE)).save(root / "assignment.tsv")
    data = SimpleNamespace(root=root, records=records, files=files)
    # The unmutated slice passes every command.
    out = root / "clean"
    out.mkdir()
    assert [_run(argv)[0] for _, argv in _commands(data, files, out)] == [0] * 8
    return data


def _commands(data, files, out: Path) -> list[tuple[str, list[str]]]:
    corpus, schema, preds, beams = (str(files[k]) for k in ("corpus", "schema", "preds", "beams"))
    db, assignment = str(data.root / "clinic.db"), str(data.root / "assignment.tsv")
    argv = [
        ["ingest", "--corpus", corpus, "--schema", schema, "--out", out / "ingested.jsonl"],
        ["stats", "--corpus", corpus, "--schema", schema, "--out", out / "stats.json"],
        ["split", "--corpus", corpus, "--schema", schema, "--out", out / "split.tsv",
         "--report", out / "split_report.json", "--test-size", str(TEST_SIZE)],
        ["linearize", "--corpus", corpus, "--schema", schema, "--assignment", assignment,
         "--question-source", "all", "--out", out / "train.jsonl"],
        ["augment", "--corpus", corpus, "--stub", "--out", out / "augmented.jsonl",
         "--report", out / "augment_report.json"],
        ["rerank", "--preds", beams, "--db", db, "--out", out / "reranked.jsonl"],
        ["eval", "--corpus", corpus, "--assignment", assignment, "--preds", preds, "--db", db,
         "--out", out / "eval.json"],
        ["recover", "--preds", preds, "--db", db, "--schema", schema, "--out", out / "recovered.jsonl",
         "--report", out / "recover_report.json"],
    ]
    return [(a[0], [str(x) for x in a]) for a in argv]


def _rejected(schema_path: Path) -> bool:
    try:
        load_schema(schema_path)
    except DataError:
        return True
    return False


def _run(argv: list[str]) -> tuple[int, str]:
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = cmd(argv)
    return code, err.getvalue()


def _mutate(data, record):
    """``record`` with one node dropped or replaced, or one SQL character edited."""
    path = data.draw(st.sampled_from(list(_paths(record))), label="path")
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]] if path else record
    edits = ["replace"] + (["drop"] if path else [])
    if path and path[-1] == "sql" and isinstance(value, str):
        edits.append("edit sql")
    edit = data.draw(st.sampled_from(edits), label="edit")
    if edit == "drop":
        del parent[path[-1]]
        return record
    if edit == "edit sql":
        at = data.draw(st.integers(0, len(value)), label="at")
        char = data.draw(st.sampled_from(SQL_CHARS + [""]), label="char")
        keep = data.draw(st.booleans(), label="insert")
        value = value[:at] + char + value[at + (0 if keep else 1):]
    else:
        value = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES), label="value"))
    if not path:
        return value
    parent[path[-1]] = value
    return record


def _check_commands(clinic_slice, target: str, records: list) -> None:
    """Run every command with ``target``'s file holding ``records``: each
    returns 0 or 2, and a 2 prints one data error line."""
    work = Path(tempfile.mkdtemp(dir=clinic_slice.root))
    try:
        files = dict(clinic_slice.files, **{target: work / clinic_slice.files[target].name})
        if target == "schema":
            files[target].write_text(json.dumps(records[0]), encoding="utf-8")
        else:
            _dump_jsonl(files[target], records)
        schema_rejected = target == "schema" and _rejected(files["schema"])
        for name, argv in _commands(clinic_slice, files, work):
            code, err = _run(argv)
            assert code in (0, 2), (name, code, err)
            if code == 2:
                assert err.count("\n") == 1 and err.startswith(f"medsql {name}: data error: "), err
                if schema_rejected and "--schema" in argv:
                    assert f"schema file {files['schema']}: " in err, err
    finally:
        shutil.rmtree(work)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_exits_zero_or_two_with_one_data_error_line(clinic_slice, data):
    target = data.draw(st.sampled_from(["corpus", "preds", "beams", "schema"]), label="file")
    records = copy.deepcopy(clinic_slice.records[target])
    index = data.draw(st.integers(0, len(records) - 1), label="record")
    records[index] = _mutate(data, records[index])
    _check_commands(clinic_slice, target, records)


# Joins that pair every row of two whole tables, 10,000 pairs on the slice's
# database: each runs to its end well inside the default --timeout-ms.
CROSS_JOINS = [
    "SELECT * FROM LAB, DEMOGRAPHIC",
    "SELECT a.LABEL, b.LABEL FROM LAB a, LAB b",
    "SELECT COUNT(*) FROM PRESCRIPTIONS, PROCEDURES",
    "SELECT p.DRUG FROM PRESCRIPTIONS p, DIAGNOSES d WHERE d.SHORT_TITLE = 'none such'",
]


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_cross_join_candidate_leaves_every_command_exiting_zero_or_two(clinic_slice, data):
    records = copy.deepcopy(clinic_slice.records["beams"])
    beam = data.draw(st.sampled_from(records), label="beam")
    candidate = data.draw(st.sampled_from(beam["candidates"]), label="candidate")
    candidate["sql"] = data.draw(st.sampled_from(CROSS_JOINS), label="cross join")
    _check_commands(clinic_slice, "beams", records)
