from __future__ import annotations

import csv
import json
import re
import shutil
import sqlite3
from contextlib import closing
from dataclasses import asdict, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medsql.errors import (
    ColumnTypeError,
    CsvError,
    DataError,
    DbError,
    EmptyCorpus,
    QueryExecutionError,
    RecordError,
    UnknownColumn,
    UnsupportedSyntax,
    UnterminatedLiteral,
)
from medsql import query, store
from medsql.metrics import results_equal
from medsql.query import parse_sql, tokenize_sql
from medsql.store import (
    DEFAULT_TIMEOUT_MS,
    ColumnDef,
    Paraphrase,
    Sample,
    SchemaDef,
    TableDef,
    build_exec_db,
    build_value_lookup,
    canonical_value,
    corpus_stats,
    load_corpus,
    load_schema,
    open_exec_db,
    run_select,
    save_corpus,
    save_schema,
    validate_records,
    with_synthetic,
)

from . import loader_oracle


def _build(directory, tables, *, write=True):
    """Build ``directory/t.db`` from number-column tables given as
    ``{name: column names}``, writing a one-row CSV per table first unless
    ``write`` is false."""
    schema = SchemaDef(tuple(TableDef(t, tuple(ColumnDef(c, "number") for c in cols)) for t, cols in tables.items()))
    files = {t: directory / f"{t}.csv" for t in tables}
    if write:
        for t, cols in tables.items():
            files[t].write_text(",".join(cols) + "\n" + ",".join("1" for _ in cols) + "\n", encoding="utf-8")
    return build_exec_db(schema, files, directory / "t.db")


def _indexes(db):
    """(name, table) of every index in ``db``, in creation order."""
    with closing(sqlite3.connect(db)) as conn:
        return conn.execute("SELECT name, tbl_name FROM sqlite_master WHERE type = 'index' ORDER BY rowid").fetchall()


def _plan(db, sql, *params):
    """The query plan of ``sql`` on ``db``, its details joined by " | "."""
    with closing(sqlite3.connect(db)) as conn:
        return " | ".join(row[-1] for row in conn.execute(f"EXPLAIN QUERY PLAN {sql}", params))


def _beam_candidates(gold):
    """A beam for ``gold``: the gold query, its values lowercased, a COUNT(*) select list,
    a quoted number, a column that does not exist and a table that does not exist."""
    return [
        gold,
        re.sub(r'"([^"]*)"', lambda m: f'"{m[1].lower()}"', gold),
        "SELECT COUNT(*) FROM " + gold.split(" FROM ", 1)[1],
        re.sub(r"(\d+)$", r'"\1"', gold),
        gold.replace(".HADM_ID", ".NOPE", 1),
        "SELECT NOPE FROM NOWHERE",
    ]


def _outcome(conn, sql):
    """The rows of ``sql``, or None when it fails."""
    try:
        return run_select(conn, sql, DEFAULT_TIMEOUT_MS)
    except QueryExecutionError:
        return None


class TestSchema:
    def test_save_load_round_trip(self, clinic, tmp_path):
        path = tmp_path / "schema.json"
        save_schema(clinic.schema, path)
        assert load_schema(path) == clinic.schema

    def test_byte_order_mark_is_accepted(self, clinic, tmp_path):
        path = tmp_path / "schema.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(clinic.schema.to_dict()).encode("utf-8"))
        assert load_schema(path) == clinic.schema

    def test_lookups_are_case_insensitive(self, clinic):
        table = clinic.schema.table("lab")
        assert table.name == "LAB"
        assert table.column("label").attr == "text"
        assert table.column("Flag").name == "FLAG"

    def test_unknown_attr_rejected(self):
        with pytest.raises(DataError):
            SchemaDef((TableDef("T", (ColumnDef("A", "varchar"),)),))

    @pytest.mark.parametrize(
        "doc",
        [
            {"tables": [{"name": 5, "columns": []}]},
            {"tables": [{"name": "T", "columns": [{"name": None, "attr": "text"}]}]},
        ],
    )
    def test_non_string_name_rejected(self, doc):
        with pytest.raises(DataError, match="name must be a string"):
            SchemaDef.from_dict(doc)

    def test_duplicate_table_rejected(self):
        table = TableDef("T", (ColumnDef("A", "text"),))
        with pytest.raises(DataError):
            SchemaDef((table, table))


class TestCorpusIo:
    def test_save_load_round_trip(self, clinic, tmp_path):
        path = tmp_path / "corpus.jsonl"
        samples = [
            clinic.corpus[0],
            Sample(
                id="manual-1",
                template_question="how many patients are there",
                gold_sql="SELECT COUNT(*) FROM DEMOGRAPHIC",
                paraphrase_question="count of patients",
                synthetic_paraphrases=(Paraphrase("patient total", "fr"),),
                schema=clinic.schema,
                extra={"note": "kept", "weight": 2},
            ),
        ]
        save_corpus(samples, path)
        assert load_corpus(path) == samples

    def test_unicode_question_survives(self, tmp_path):
        path = tmp_path / "c.jsonl"
        sample = Sample("u1", "combien de patients parlent crãole", "SELECT * FROM T")
        save_corpus([sample], path)
        assert load_corpus(path)[0].template_question == sample.template_question

    def test_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"},
            {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(RecordError) as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_invalid_gold_sql_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        row = {"id": "a", "question_template": "q", "sql": "SELECT A FROM T GROUP BY A"}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(RecordError):
            load_corpus(path)

    def test_malformed_json_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(RecordError) as exc:
            load_corpus(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("question_template", None, "question_template is empty"),
            ("question_template", "   ", "question_template is empty"),
            ("question_template", 5, "question_template must be a string"),
            ("question_template", ["q"], "question_template must be a string"),
            ("sql", 5, "sql must be a string"),
            ("sql", None, "sql must be a string"),
            ("question_paraphrase", 3, "question_paraphrase must be a string or null"),
            ("synthetic", 5, "synthetic must be a list"),
            ("synthetic", None, "synthetic must be a list"),
            ("synthetic", [{"x": 1}], "synthetic must be a list"),
            ("synthetic", [{"text": "t", "pivot": 2}], "synthetic must be a list"),
            ("id", None, "id must be a string or an integer, not null"),
            ("id", [1], "id must be a string or an integer, not \\[1\\]"),
            ("id", True, "id must be a string or an integer, not true"),
            ("id", "a\tb", 'id must not contain a tab or a line break, not "a\\\\tb"'),
            ("id", "a\nb", 'id must not contain a tab or a line break, not "a\\\\nb"'),
            ("id", "a\rb", 'id must not contain a tab or a line break, not "a\\\\rb"'),
            ("id", "\ufeffb", 'id must not begin with a byte order mark \\(U\\+FEFF\\), not "\\\\ufeffb"'),
        ],
    )
    def test_bad_field_types_are_record_errors(self, tmp_path, field, value, message):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"}
        rows = [good, {**good, "id": "b", field: value}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(RecordError, match=message) as exc:
            load_corpus(path)
        assert exc.value.line == 2

    # Each record holds the fault that its check finds first and every later fault that it can hold
    # with it. The sound record before it has id "a", so "a" is also a duplicate.
    @pytest.mark.parametrize("record, message", [
        (["a"], "record is not a JSON object"),
        ({"id": True, "synthetic": 5, "schema": [], "question_template": " ", "question_paraphrase": 3},
         "synthetic must be a list of objects with string text and pivot"),
        ({"id": True, "schema": [], "question_paraphrase": 3}, "missing field(s): question_template, sql"),
        ({"id": True, "schema": [], "question_template": " ", "question_paraphrase": 3, "sql": 5},
         "id must be a string or an integer, not true"),
        ({"id": "a", "schema": [], "question_template": " ", "question_paraphrase": 3, "sql": 5},
         "a schema must be a JSON object"),
        ({"id": "a", "question_template": " ", "question_paraphrase": 3, "sql": 5}, "question_template is empty"),
        ({"id": "a", "question_template": 5, "question_paraphrase": 3, "sql": 5},
         "question_template must be a string, not int"),
        ({"id": "a", "question_template": "q", "question_paraphrase": 3, "sql": 5},
         "question_paraphrase must be a string or null, not int"),
        ({"id": "a", "question_template": "q", "sql": 5}, "sql must be a string, not int"),
        ({"id": "a", "question_template": "q", "sql": "SELECT A FROM T GROUP BY A"},
         "GROUP clauses are outside the dialect at offset 16"),
        ({"id": "a", "question_template": "q", "sql": "SELECT * FROM T"}, "duplicate id 'a'"),
    ], ids=["object", "synthetic", "missing", "id", "schema", "template-empty", "template-type", "paraphrase", "sql",
            "parse", "duplicate"])
    def test_the_first_check_that_fails_names_the_fault(self, record, message):
        sound = {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"}
        with pytest.raises(RecordError) as exc:
            validate_records([(1, sound), (2, record)])
        assert str(exc.value) == f"record 2: {message}"

    def test_validate_records_numbers_errors_as_given(self):
        records = [(7, {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"}), (9, ["not", "a", "dict"])]
        with pytest.raises(RecordError, match="not a JSON object") as exc:
            validate_records(records)
        assert exc.value.line == 9

    def test_byte_order_mark_is_accepted(self, clinic, tmp_path):
        # A leading BOM used to fail the first line as invalid JSON.
        plain = tmp_path / "plain.jsonl"
        save_corpus(clinic.corpus[:5], plain)
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_corpus(bom) == clinic.corpus[:5]

    def test_with_synthetic_appends_without_mutating(self, clinic):
        sample = clinic.corpus[0]
        grown = with_synthetic(sample, [Paraphrase("text", "fr")])
        assert grown.synthetic_paraphrases == (Paraphrase("text", "fr"),)
        assert sample.synthetic_paraphrases == ()
        assert grown.id == sample.id and grown.gold_sql == sample.gold_sql


class TestGoldQuery:
    def test_is_the_parse_of_the_gold_sql(self, clinic):
        sample = clinic.corpus[0]
        assert sample.gold_query == parse_sql(sample.gold_sql)

    def test_is_parsed_once_and_kept(self, monkeypatch, lexed):
        parsed = []
        parse = query._parse_tokens
        monkeypatch.setattr(query, "_parse_tokens", lambda tokens: parsed.append(tokens) or parse(tokens))
        sample = Sample("a", "q", "SELECT * FROM T")
        assert sample.gold_query is sample.gold_query
        assert sample.gold_token_count == 4
        assert len(parsed) == 1 and lexed == ["SELECT * FROM T"]

    def test_replaced_sql_gets_its_own_query(self):
        sample = Sample("a", "q", "SELECT * FROM T")
        assert sample.gold_query.main_table == "T"
        other = replace(sample, gold_sql="SELECT A FROM U")
        assert other.gold_query == parse_sql("SELECT A FROM U")
        assert sample.gold_query.main_table == "T"

    def test_unparseable_sql_raises_on_every_access(self):
        sample = Sample("a", "q", "SELECT A FROM T GROUP BY A")
        for _ in range(2):
            with pytest.raises(UnsupportedSyntax):
                sample.gold_query

    @pytest.mark.parametrize("attribute", ["gold_query", "gold_token_count"])
    def test_unterminated_sql_raises_on_every_access(self, attribute):
        sample = Sample("a", "q", 'SELECT A FROM T WHERE B = "open')
        for _ in range(2):
            with pytest.raises(UnterminatedLiteral):
                getattr(sample, attribute)

    def test_a_parsed_sample_still_equals_an_unparsed_one(self):
        parsed = Sample("a", "q", "SELECT * FROM T")
        parsed.gold_query
        assert parsed == Sample("a", "q", "SELECT * FROM T")
        assert parsed.to_record() == {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"}

    def test_token_count_is_that_of_tokenize_sql(self, clinic):
        for sample in clinic.corpus[:50]:
            assert sample.gold_token_count == len(tokenize_sql(sample.gold_sql))

    def test_load_corpus_parses_each_record_once(self, clinic, monkeypatch, lexed):
        parsed = []
        parse = query._parse_tokens
        monkeypatch.setattr(query, "_parse_tokens", lambda tokens: parsed.append(tokens) or parse(tokens))
        corpus = load_corpus(clinic.corpus_path)
        corpus_stats(corpus, clinic.schema)
        assert len(parsed) == len(corpus)
        # The token count of corpus_stats used to lex every gold query again.
        assert lexed == [s.gold_sql for s in corpus]


# Any JSON value, small: a wrong type for any field.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# Gold texts, repeated across a corpus: parseable ones, two of which differ
# only in case, and ones outside the dialect, unterminated or malformed.
VALID_GOLD = [
    "SELECT * FROM T",
    'SELECT COUNT(DISTINCT LAB.HADM_ID) FROM LAB WHERE LAB.FLAG = "abnormal" AND LAB.ITEMID > 3',
    "select a.b, max(c) from a inner join d on a.x = d.y where e = 'it''s'",
    'SELECT A FROM T WHERE B = "x"',
    'select a from t where b = "X"',
]
FAULTY_GOLD = ["SELECT A FROM T GROUP BY A", 'SELECT A FROM T WHERE B = "open', "SELECT", ""]
SCHEMA = {"tables": [{"name": "T", "columns": [{"name": "A", "attr": "text"}]}]}
# (valid values, faulty values) of each record field.
RECORD_FIELDS = {
    # Ids repeat: "1" and 1 are the same id.
    "id": (st.text("ab1", min_size=1, max_size=3) | st.integers(0, 30),
           st.sampled_from(["\ufeffa", "a\tb", "c\rd", "e\nf", True]) | ANY_JSON),
    "question_template": (st.sampled_from(["how many", "q"]), st.sampled_from([" ", "", 0]) | ANY_JSON),
    "question_paraphrase": (st.sampled_from([None, "what", ""]), ANY_JSON),
    "synthetic": (
        st.lists(st.fixed_dictionaries({"text": st.sampled_from(["t", ""]), "pivot": st.sampled_from(["fr", "de"])}),
                 max_size=2),
        st.lists(
            st.fixed_dictionaries({"text": st.sampled_from(["t", ""]), "pivot": st.sampled_from(["fr", "de"])})
            | st.fixed_dictionaries({"text": ANY_JSON, "pivot": ANY_JSON})
            | st.dictionaries(st.sampled_from(["text", "pivot"]), st.text(max_size=2))
            | ANY_JSON,
            min_size=1, max_size=3,
        ) | ANY_JSON,
    ),
    "sql": (st.sampled_from(VALID_GOLD), st.sampled_from(FAULTY_GOLD) | ANY_JSON),
    "schema": (st.sampled_from([None, SCHEMA]), st.sampled_from([{"tables": [{"name": "T"}]}, {"tables": {}}]) | ANY_JSON),
    "note": (ANY_JSON, ANY_JSON),
}
REQUIRED = ("id", "question_template", "sql")
PARSE_GOLD = {"every": lambda sample: True, "none": lambda sample: False, "odd": lambda sample: len(sample.id) % 2 == 1}


@st.composite
def corpus_record(draw):
    """A JSON object with each field valid, faulty or missing, now and then
    a JSON value of another kind; most records are valid."""
    if draw(st.integers(0, 19)) == 0:
        return draw(ANY_JSON)
    rec = {}
    for key, (valid, faulty) in RECORD_FIELDS.items():
        if draw(st.integers(0, 19)) < (19 if key in REQUIRED else 10):
            rec[key] = draw(faulty if draw(st.integers(0, 14)) == 0 else valid)
    return rec


DROP = object()  # a key that _rec leaves out


def _rec(**changes):
    """A valid record with ``changes`` made; a key given ``DROP`` is left out."""
    rec = {"id": "a", "question_template": "q", "sql": VALID_GOLD[0], **changes}
    return {k: v for k, v in rec.items() if v is not DROP}


# One corpus per kind of fault, for the pinned oracle cases.
PINNED_CORPORA = {
    "valid": [_rec(), _rec(id=7, question_paraphrase="p", synthetic=[{"text": "t", "pivot": "fr"}], schema=SCHEMA,
                     note={"n": 1}), _rec(id="b", sql=VALID_GOLD[2], question_paraphrase=None, synthetic=[])],
    "texts-differing-in-case": [_rec(sql=VALID_GOLD[3]), _rec(id="b", sql=VALID_GOLD[4])],
    "duplicate-id": [_rec(), _rec(sql=VALID_GOLD[1])],
    "duplicate-number-and-text-id": [_rec(id=1), _rec(id="1")],
    "duplicate-id-with-bad-sql": [_rec(), _rec(sql=FAULTY_GOLD[0])],
    "bom-id": [_rec(id="\ufeffa")],
    "tab-id": [_rec(id="a\tb")],
    "float-id": [_rec(id=1.5)],
    "boolean-id": [_rec(id=True)],
    "missing-id": [_rec(id=DROP)],
    "missing-question": [_rec(question_template=DROP)],
    "missing-sql": [_rec(sql=DROP)],
    "missing-everything": [{}],
    "missing-sql-and-bad-synthetic": [_rec(sql=DROP, synthetic=None)],
    "synthetic-null": [_rec(synthetic=None)],
    "synthetic-object": [_rec(synthetic={"text": "t", "pivot": "fr"})],
    "synthetic-item-not-an-object": [_rec(synthetic=[{"text": "t", "pivot": "fr"}, "t"])],
    "synthetic-text-not-a-string": [_rec(synthetic=[{"text": 1, "pivot": "fr"}])],
    "synthetic-without-pivot": [_rec(synthetic=[{"text": "t"}])],
    "blank-question": [_rec(question_template=" ")],
    "question-zero": [_rec(question_template=0)],
    "question-list": [_rec(question_template=[" "])],
    "question-object": [_rec(question_template={})],
    "paraphrase-number": [_rec(question_paraphrase=1)],
    "sql-number": [_rec(sql=5)],
    "sql-null": [_rec(sql=None)],
    "schema-number": [_rec(schema=5)],
    "schema-without-columns": [_rec(schema={"tables": [{"name": "T"}]})],
    "repeated-unparseable-sql": [_rec(id="b"), _rec(sql=FAULTY_GOLD[0]), _rec(id="c", sql=FAULTY_GOLD[0])],
    "unterminated-sql": [_rec(sql=FAULTY_GOLD[1])],
    "empty-sql": [_rec(sql="")],
    "not-an-object": [_rec(id="b"), ["id", "a"]],
    "null-record": [None],
    "string-record": ["{}"],
}


def _gold_outcome(sample):
    try:
        return sample.gold_query, sample.gold_token_count
    except DataError as exc:
        return type(exc), str(exc)


def load_outcome(validate, numbered, parse_gold):
    """What ``validate`` gives: each sample with its attributes as loaded and
    its gold parse, or the type, number and message of its error."""
    try:
        samples = validate(numbered, parse_gold=parse_gold)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return [(sample, dict(vars(sample)), _gold_outcome(sample)) for sample in samples]


class TestLoaderOracle:
    """validate_records against the loader it replaced, which checked with
    generator expressions, built every sample through its constructor and
    parsed every selected gold text again. CI also runs these under the
    deep hypothesis profile (``-k oracle --hypothesis-profile=deep``)."""

    @pytest.mark.parametrize("parse_gold", sorted(PARSE_GOLD))
    @pytest.mark.parametrize("records", PINNED_CORPORA.values(), ids=PINNED_CORPORA)
    def test_samples_and_errors_match_the_loader_oracle_on_pinned_cases(self, records, parse_gold):
        numbered = list(enumerate(records, start=1))
        assert load_outcome(validate_records, numbered, PARSE_GOLD[parse_gold]) == load_outcome(
            loader_oracle.validate_records, numbered, PARSE_GOLD[parse_gold]
        )

    @given(st.lists(corpus_record(), max_size=6), st.sampled_from(sorted(PARSE_GOLD)))
    def test_samples_and_errors_match_the_loader_oracle(self, records, parse_gold):
        numbered = list(enumerate(records, start=1))
        assert load_outcome(validate_records, numbered, PARSE_GOLD[parse_gold]) == load_outcome(
            loader_oracle.validate_records, numbered, PARSE_GOLD[parse_gold]
        )

    @given(st.lists(st.sampled_from(VALID_GOLD), min_size=1, max_size=8))
    def test_valid_corpora_match_the_loader_oracle(self, texts):
        numbered = [(k, {"id": k, "question_template": "q", "sql": sql}) for k, sql in enumerate(texts, start=7)]
        for parse_gold in PARSE_GOLD.values():
            outcome = load_outcome(validate_records, numbered, parse_gold)
            assert outcome == load_outcome(loader_oracle.validate_records, numbered, parse_gold)
            assert isinstance(outcome, list) and len(outcome) == len(texts)


class TestLoadedSamples:
    RECORDS = [
        {"id": "a", "question_template": "q", "sql": "SELECT * FROM T"},
        {"id": "b", "question_template": "q", "sql": "SELECT A FROM U", "question_paraphrase": "p",
         "synthetic": [{"text": "t", "pivot": "fr"}], "schema": SCHEMA, "note": [1]},
        {"id": "c", "question_template": "q", "sql": "SELECT * FROM T"},
    ]

    def test_a_repeated_gold_text_is_parsed_once_per_load(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in self.RECORDS), encoding="utf-8")
        parsed = []
        parse = query._parse_tokens
        monkeypatch.setattr(query, "_parse_tokens", lambda lexed: parsed.append(lexed[0]) or parse(lexed))
        first = load_corpus(path)
        assert parsed == ["SELECT * FROM T", "SELECT A FROM U"]
        assert first[0].gold_query is first[2].gold_query
        # The memo lives for one call: a second load parses every text again.
        second = load_corpus(path)
        assert parsed == ["SELECT * FROM T", "SELECT A FROM U"] * 2
        assert second[0].gold_query is not first[0].gold_query
        assert [s.gold_query for s in second] == [s.gold_query for s in first]

    def test_the_parse_gold_filter_holds_for_a_repeated_text(self, monkeypatch):
        # "a" and "c" share their text; only "c" is selected, as eval selects the samples of its split.
        parsed = []
        parse = query._parse_tokens
        monkeypatch.setattr(query, "_parse_tokens", lambda lexed: parsed.append(lexed[0]) or parse(lexed))
        samples = validate_records(enumerate(self.RECORDS, start=1), parse_gold=lambda sample: sample.id == "c")
        assert parsed == ["SELECT * FROM T"]
        assert ["_gold" in vars(s) for s in samples] == [False, False, True]

    def test_a_loaded_sample_cannot_be_told_from_a_constructed_one(self):
        loaded = validate_records(enumerate(self.RECORDS, start=1))[1]
        built = Sample("b", "q", "SELECT A FROM U", "p", (Paraphrase("t", "fr"),), SchemaDef.from_dict(SCHEMA),
                       {"note": [1]})
        built.gold_query
        assert loaded == built
        assert vars(loaded) == vars(built) and list(vars(loaded)) == list(vars(built))
        assert type(loaded.synthetic_paraphrases[0]) is Paraphrase
        assert vars(loaded.synthetic_paraphrases[0]) == vars(built.synthetic_paraphrases[0])
        assert loaded.to_record() == built.to_record() == self.RECORDS[1]
        assert replace(loaded, id="z") == replace(built, id="z")
        # A replaced gold_sql parses its own query; the loaded sample keeps its own.
        other = replace(loaded, gold_sql="SELECT B FROM V")
        assert "_gold" not in vars(other)
        assert other.gold_query == parse_sql("SELECT B FROM V") and other.gold_token_count == 4
        assert loaded.gold_query == parse_sql("SELECT A FROM U")


class TestExecDb:
    def test_row_counts_match_csvs(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            for table, path in clinic.csvs.items():
                with open(path, encoding="utf-8", newline="") as fh:
                    expected = sum(1 for _ in csv.reader(fh)) - 1
                got = conn.execute(f'SELECT COUNT(*) FROM "{table}"').fetchone()[0]
                assert got == expected == 100

    def test_number_columns_store_numbers(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            ages = [row[0] for row in conn.execute("SELECT AGE FROM DEMOGRAPHIC")]
        assert all(isinstance(age, int) for age in ages)

    def test_quoted_comma_field_round_trips(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            row = conn.execute(
                "SELECT LONG_TITLE FROM DIAGNOSES WHERE SHORT_TITLE = 'DIAGNOSIS 000'"
            ).fetchone()
        assert row[0] == "Full record for DIAGNOSIS 000, volume 0"

    def test_empty_cell_becomes_null(self, tmp_path):
        schema = SchemaDef((TableDef("T", (ColumnDef("A", "text"), ColumnDef("B", "number"))),))
        csv_path = tmp_path / "T.csv"
        csv_path.write_text("A,B\nx,\n,2\n", encoding="utf-8")
        db = build_exec_db(schema, {"T": csv_path}, tmp_path / "t.db")
        with closing(open_exec_db(db)) as conn:
            assert conn.execute("SELECT A, B FROM T ORDER BY B").fetchall() == [
                ("x", None),
                (None, 2),
            ]

    def test_each_column_converts_by_its_own_attribute(self, tmp_path):
        columns = (ColumnDef("T1", "text"), ColumnDef("N1", "number"), ColumnDef("D", "datetime"),
                   ColumnDef("N2", "number"))
        schema = SchemaDef((TableDef("T", columns),))
        csv_path = tmp_path / "T.csv"
        csv_path.write_text("t1,n1,d,n2\n007,007,007,1.50\n2.5,2.5,,-3\n", encoding="utf-8")
        db = build_exec_db(schema, {"T": csv_path}, tmp_path / "t.db")
        with closing(open_exec_db(db)) as conn:
            assert conn.execute("SELECT * FROM T").fetchall() == [("007", 7, "007", 1.5), ("2.5", 2.5, None, -3)]
        csv_path.write_text("T1,N1,D,N2\nx,1,y,2\nx,1,y,nope\n", encoding="utf-8")
        with pytest.raises(ColumnTypeError) as exc:
            build_exec_db(schema, {"T": csv_path}, tmp_path / "t.db")
        assert (exc.value.row, exc.value.column) == (3, "N2")

    def test_non_numeric_cell_in_number_column(self, tmp_path):
        schema = SchemaDef((TableDef("T", (ColumnDef("A", "number"),)),))
        csv_path = tmp_path / "T.csv"
        csv_path.write_text("A\n1\nnope\n", encoding="utf-8")
        with pytest.raises(ColumnTypeError) as exc:
            build_exec_db(schema, {"T": csv_path}, tmp_path / "t.db")
        assert exc.value.row == 3

    def test_a_table_without_a_csv_is_a_data_error(self, tmp_path):
        schema = SchemaDef((TableDef("T", (ColumnDef("A", "text"),)), TableDef("U", (ColumnDef("B", "text"),))))
        (tmp_path / "T.csv").write_text("A\nx\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            build_exec_db(schema, {"T": tmp_path / "T.csv"}, tmp_path / "t.db")
        assert str(exc.value) == "no CSV provided for table U"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["T.csv"]

    def test_header_mismatch(self, tmp_path):
        schema = SchemaDef((TableDef("T", (ColumnDef("A", "text"),)),))
        csv_path = tmp_path / "T.csv"
        csv_path.write_text("WRONG\nx\n", encoding="utf-8")
        with pytest.raises(CsvError):
            build_exec_db(schema, {"T": csv_path}, tmp_path / "t.db")

    def test_missing_csv(self, tmp_path):
        schema = SchemaDef((TableDef("T", (ColumnDef("A", "text"),)),))
        with pytest.raises(DataError):
            build_exec_db(schema, {"T": tmp_path / "absent.csv"}, tmp_path / "t.db")

    @pytest.mark.parametrize(
        "body, error, message",
        [
            (None, DataError, "CSV for table B not found: {path}"),
            ("WRONG\n1\n", CsvError, "row 1: {path}: header ['WRONG'] does not match columns ['ID']"),
            ("ID\n1\n1,2\n", CsvError, "row 3: {path}: expected 1 fields, got 2"),
            ("ID\n1\nnope\n", ColumnTypeError, "row 3, column ID: 'nope' is not a number"),
            ("", CsvError, "row 1: {path}: missing header row"),
        ],
        ids=["missing-csv", "bad-header", "field-count", "bad-number", "empty-csv"],
    )
    def test_a_failed_build_changes_no_file(self, tmp_path, body, error, message):
        # The build used to delete the old database first and leave the tables built before the fault.
        tables = {"A": ("ID",), "B": ("ID",)}
        db = _build(tmp_path, tables)
        before = db.read_bytes()
        path = tmp_path / "B.csv"
        if body is None:
            path.unlink()
        else:
            path.write_text(body, encoding="utf-8")
        listing = sorted(tmp_path.iterdir())
        for _ in ("over the old database", "with no database"):
            with pytest.raises(error) as exc:
                _build(tmp_path, tables, write=False)
            assert type(exc.value) is error and str(exc.value) == message.format(path=path)
            assert sorted(tmp_path.iterdir()) == listing
            if db.exists():
                assert db.read_bytes() == before
                db.unlink()
                listing.remove(db)

    def test_every_column_is_indexed_in_schema_order(self, clinic):
        expected = [
            (f"ix_{len(table.name)}_{table.name}_{column.name}", table.name)
            for table in clinic.schema.tables
            for column in table.columns
        ]
        assert _indexes(clinic.db_path) == expected
        assert expected[:3] == [
            ("ix_11_DEMOGRAPHIC_SUBJECT_ID", "DEMOGRAPHIC"), ("ix_11_DEMOGRAPHIC_HADM_ID", "DEMOGRAPHIC"),
            ("ix_11_DEMOGRAPHIC_NAME", "DEMOGRAPHIC"),
        ]

    def test_two_builds_give_the_same_bytes(self, clinic, tmp_path):
        again = build_exec_db(clinic.schema, clinic.csvs, tmp_path / "clinic.db")
        assert again.read_bytes() == clinic.db_path.read_bytes()
        assert len(_indexes(again)) == 32

    @pytest.mark.parametrize(
        "tables, expected",
        [
            (
                {"A": ("ID", "X"), "B": ("Y", "ID")},
                [("ix_1_A_ID", "A"), ("ix_1_A_X", "A"), ("ix_1_B_Y", "B"), ("ix_1_B_ID", "B")],
            ),
            (
                {"ADM": ("hadm_id",), "LAB": ("HADM_ID", "LABEL")},
                [("ix_3_ADM_hadm_id", "ADM"), ("ix_3_LAB_HADM_ID", "LAB"), ("ix_3_LAB_LABEL", "LAB")],
            ),
            # Named ix_<table>_<column>, A_B.C and A.B_C would both be ix_A_B_C.
            (
                {"A_B": ("C", "B_C"), "A": ("B_C", "C")},
                [("ix_3_A_B_C", "A_B"), ("ix_3_A_B_B_C", "A_B"), ("ix_1_A_B_C", "A"), ("ix_1_A_C", "A")],
            ),
        ],
        ids=["one-table-column-is-indexed", "names-keep-their-case", "index-names-cannot-collide"],
    )
    def test_every_column_is_indexed(self, tmp_path, tables, expected):
        assert _indexes(_build(tmp_path, tables)) == expected

    def test_quotes_in_names_are_escaped(self, tmp_path):
        # Names were wrapped in quotes without doubling an embedded one: a raw sqlite3.OperationalError.
        db = _build(tmp_path, {'A"B': ('X"Y', "ID")})
        assert _indexes(db) == [('ix_3_A"B_X"Y', 'A"B'), ('ix_3_A"B_ID', 'A"B')]
        with closing(open_exec_db(db)) as conn:
            assert run_select(conn, 'SELECT "X""Y", ID FROM "A""B"') == [(1, 1)]

    @pytest.mark.parametrize(
        "tables, message",
        [
            (
                {"A": ("B",), "C": ("B",), "ix_1_A_B": ("X",)},
                "index ix_1_A_B of column A.B has the name of table ix_1_A_B",
            ),
            ({"A": ("B",), "IX_1_a_b": ("X",)}, "index ix_1_A_B of column A.B has the name of table IX_1_a_b"),
        ],
        ids=["join-column", "names-compare-case-insensitively"],
    )
    def test_an_index_named_like_a_table_is_a_data_error(self, tmp_path, tables, message):
        # It used to fail half-built with a raw "there is already a table named ..." error.
        with pytest.raises(DataError) as exc:
            _build(tmp_path, tables)
        assert type(exc.value) is DataError and str(exc.value) == message
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{t}.csv" for t in tables)

    @pytest.mark.parametrize(
        "tables, message",
        [
            ({"A": ("B",), "sqlite_stat": ("X",)}, "table sqlite_stat: SQLite reserves names that begin with sqlite_"),
            ({"sqlite_master": ("X",)}, "table sqlite_master: SQLite reserves names that begin with sqlite_"),
            ({"SQLITE_x": ("X",)}, "table SQLITE_x: SQLite reserves names that begin with sqlite_"),
            ({"A": ("B\0C",)}, "column 'B\\x00C' of table 'A': a name cannot hold a NUL character"),
            ({"A\0B": ("X",)}, "table 'A\\x00B': a name cannot hold a NUL character"),
        ],
        ids=["sqlite_stat", "sqlite_master", "any-case", "nul-in-a-column", "nul-in-a-table"],
    )
    def test_a_name_sqlite_cannot_take_is_a_data_error(self, tmp_path, tables, message):
        # These used to escape as a raw sqlite3.OperationalError ("object name reserved for
        # internal use") or sqlite3.ProgrammingError ("the query contains a null character").
        # A path cannot hold a NUL, so that table's CSV is not written: the names fail first.
        writable = all("\0" not in t for t in tables)
        with pytest.raises(DataError) as exc:
            _build(tmp_path, tables, write=writable)
        assert type(exc.value) is DataError and str(exc.value) == message
        assert sorted(p.name for p in tmp_path.iterdir()) == (sorted(f"{t}.csv" for t in tables) if writable else [])

    @pytest.mark.parametrize("name", ["sqlitex", "xsqlite_a", "ſqlite_a"])
    def test_names_near_the_reserved_prefix_are_built(self, tmp_path, name):
        assert _indexes(_build(tmp_path, {name: ("sqlite_col",)})) == [(f"ix_{len(name)}_{name}_sqlite_col", name)]

    def test_a_join_searches_the_index(self, clinic):
        plan = _plan(
            clinic.db_path,
            "SELECT PRESCRIPTIONS.DRUG FROM DEMOGRAPHIC, PRESCRIPTIONS"
            " WHERE DEMOGRAPHIC.HADM_ID = PRESCRIPTIONS.HADM_ID AND DEMOGRAPHIC.NAME = 'x'",
        )
        assert "ix_13_PRESCRIPTIONS_HADM_ID" in plan and "AUTOMATIC" not in plan, plan

    def test_a_condition_searches_the_index_of_its_column(self, clinic):
        plan = _plan(clinic.db_path, "SELECT COUNT(DISTINCT LAB.HADM_ID) FROM LAB WHERE LAB.LABEL = ?", "x")
        assert "ix_3_LAB_LABEL" in plan and "SCAN LAB" not in plan, plan

    def test_indexes_change_no_result(self, clinic, tmp_path):
        # A guard: every gold query and beam candidate gives the same outcome on an unindexed copy.
        bare = shutil.copy(clinic.db_path, tmp_path / "bare.db")
        with closing(sqlite3.connect(bare)) as conn:
            for name, _ in _indexes(bare):
                conn.execute(f'DROP INDEX "{name}"')
            conn.commit()
        assert _indexes(bare) == []
        sqls = dict.fromkeys(sql for sample in clinic.corpus for sql in _beam_candidates(sample.gold_sql))
        assert len(sqls) > 2500
        with closing(open_exec_db(clinic.db_path)) as indexed, closing(open_exec_db(bare)) as unindexed:
            for sql in sqls:
                got = [_outcome(conn, sql) for conn in (indexed, unindexed)]
                assert (got[0] is None) == (got[1] is None), sql
                assert got[0] is None or results_equal(*got), sql

    def test_connection_is_read_only(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            with pytest.raises(QueryExecutionError):
                run_select(conn, "DROP TABLE LAB")
            assert conn.execute("SELECT COUNT(*) FROM LAB").fetchone()[0] == 100

    def test_a_path_that_begins_with_two_slashes_opens_that_file(self, clinic):
        # "file://x/..." names the URI authority "x": SQLite refused it as "invalid uri authority".
        with closing(open_exec_db("/" + str(clinic.db_path.absolute()))) as conn:
            assert conn.execute("SELECT COUNT(*) FROM LAB").fetchone()[0] == 100

    def test_missing_db_raises_env_error(self, tmp_path):
        with pytest.raises(DbError):
            open_exec_db(tmp_path / "missing.db")

    def test_a_file_that_is_not_a_database_raises_env_error_and_is_closed(self, tmp_path, monkeypatch):
        # "SELECT 1" reads no page: it used to pass, so the first real query failed instead.
        path = tmp_path / "notes.db"
        path.write_text("not an SQLite database\n" * 10, encoding="utf-8")
        made = []
        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *args, **kw: made.append(connect(*args, **kw)) or made[-1])
        with pytest.raises(DbError, match="file is not a database"):
            open_exec_db(path)
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            made[0].execute("SELECT 1")

    def test_run_select_rejects_bad_sql(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            with pytest.raises(QueryExecutionError):
                run_select(conn, "SELECT NOPE FROM LAB")

    def test_run_select_times_out(self, clinic):
        slow = "SELECT COUNT(*) FROM LAB a, LAB b, LAB c, LAB d"
        with closing(open_exec_db(clinic.db_path)) as conn:
            with pytest.raises(QueryExecutionError):
                run_select(conn, slow, timeout_ms=50)
            # The interrupt must not poison the connection for later queries.
            assert run_select(conn, "SELECT COUNT(*) FROM LAB") == [(100,)]

    @pytest.mark.parametrize(
        "sql", ["SELECT 1; SELECT 2", "SELECT 1\x00", "SELECT '\ud800'"], ids=["two-statements", "nul-byte", "lone-surrogate"]
    )
    def test_every_failure_is_a_query_execution_error(self, clinic, sql):
        # A lone surrogate used to escape as a UnicodeEncodeError.
        with closing(open_exec_db(clinic.db_path)) as conn:
            with pytest.raises(QueryExecutionError):
                run_select(conn, sql)
            assert run_select(conn, "SELECT COUNT(*) FROM LAB") == [(100,)]

    def test_running_out_of_memory_is_a_query_execution_error(self):
        # A value too large to hold used to escape as a MemoryError: a traceback and exit 1.
        class ExhaustedConnection:
            def __init__(self):
                self.handlers = []

            def set_progress_handler(self, handler, n):
                self.handlers.append(handler)

            def execute(self, sql, params):
                raise MemoryError

        conn = ExhaustedConnection()
        with pytest.raises(QueryExecutionError, match="out of memory"):
            run_select(conn, "SELECT randomblob(900000000)", timeout_ms=50)
        assert len(conn.handlers) == 2 and conn.handlers[-1] is None

    def test_a_borrowed_connection_gets_the_authorizer_and_keeps_it(self, clinic, tmp_path):
        db = shutil.copy(clinic.db_path, tmp_path / "clinic.db")
        with closing(sqlite3.connect(db)) as conn:
            with store.exec_connection(conn) as borrowed:
                assert borrowed.conn is conn
                with pytest.raises(QueryExecutionError, match="not authorized"):
                    run_select(borrowed.conn, "PRAGMA user_version = 7")
            with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
                conn.execute("PRAGMA user_version = 7")
            assert conn.execute("SELECT COUNT(*) FROM LAB").fetchone() == (100,)
        with closing(sqlite3.connect(db)) as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (0,)

    @pytest.mark.parametrize(
        "sql",
        [
            "ATTACH DATABASE '{planted}' AS x",
            "PRAGMA table_info(LAB)",
            "SELECT name FROM pragma_table_info('LAB')",
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5) SELECT n FROM r",
        ],
        ids=["attach", "pragma", "pragma-function", "recursive-cte"],
    )
    def test_only_reading_selects_may_run(self, clinic, tmp_path, sql):
        planted = tmp_path / "planted.db"
        with closing(open_exec_db(clinic.db_path)) as conn:
            with pytest.raises(QueryExecutionError, match="not authorized"):
                run_select(conn, sql.format(planted=planted))
            assert run_select(conn, "SELECT COUNT(*) FROM LAB") == [(100,)]
        assert not planted.exists()

    def test_every_nondeterministic_builtin_is_denied(self, clinic):
        # random(), changes() and sqlite_version() used to run, so one text on one database gave many results.
        with closing(sqlite3.connect(":memory:")) as plain:
            try:
                listed = plain.execute("SELECT name, narg, flags FROM pragma_function_list WHERE type = 's'").fetchall()
            except sqlite3.DatabaseError:
                pytest.skip("this SQLite build has no pragma_function_list")
        nondeterministic = sorted({(name, narg) for name, narg, flags in listed if not flags & 0x800})
        assert ("random", 0) in nondeterministic
        with closing(open_exec_db(clinic.db_path)) as conn:
            for name, narg in nondeterministic:
                args = ", ".join(["NULL"] * max(narg, 0))
                with pytest.raises(QueryExecutionError, match="not authorized"):
                    # Quoted, current_date and match parse as calls, not as keywords.
                    run_select(conn, f'SELECT "{name}"({args})')

    @pytest.mark.parametrize("call", [
        "date('now')", "time('now')", "datetime('now')", "julianday('now')", "strftime('%s', 'now')",
        "unixepoch('now')", "timediff('now', '2000-01-01')", "CURRENT_TIMESTAMP",
    ])
    def test_the_clock_cannot_be_read(self, clinic, call):
        # SQLite flags the date and time functions deterministic, but 'now' reads the clock.
        # unixepoch and timediff are newer than some SQLite builds, which do not know them.
        with closing(open_exec_db(clinic.db_path)) as conn:
            with pytest.raises(QueryExecutionError, match="not authorized|no such function"):
                run_select(conn, f"SELECT {call}")

    def test_a_deterministic_function_still_runs(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            assert run_select(conn, "SELECT abs(-2), length(zeroblob(3)), upper('x'), COUNT(*) FROM LAB") == [
                (2, 3, "X", 100)]


class TestCsvBatches:
    """A guard: the reader converts a batch of rows column by column, and hands a batch
    with a fault to the row-by-row code, so nothing the build yields or raises changes."""

    TABLE = TableDef("T", (ColumnDef("A", "text"), ColumnDef("N", "number"), ColumnDef("D", "datetime")))

    def _write(self, path, fault=None):
        """1,300 rows in more than two batches; 600 blank lines after the first 512 rows fill
        the whole second batch. ``fault`` replaces line 1,800, the 1,199th row, in the fourth batch."""
        lines = ["A,N,D"]
        for i in range(1300):
            if i == 512:
                lines += [""] * 600
            lines.append(f'"v {i}, {i % 3}",{i if i % 7 else ""}{".5" if i % 5 == 0 else ""},{"" if i % 4 else "2020"}')
        if fault is not None:
            lines[1800 - 1] = fault
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _read(self, path):
        """The rows read before a fault, and the fault's (type, row, column, message)."""
        rows = []
        try:
            for row in store._read_table_csv(self.TABLE, path):
                rows.append(row)
        except CsvError as exc:
            return rows, (type(exc), exc.row, exc.column, str(exc))
        return rows, None

    def _row_by_row(self, monkeypatch, path):
        with monkeypatch.context() as m:
            m.setattr(store, "_convert_batch", lambda *args: None)
            return self._read(path)

    @pytest.mark.parametrize(
        "fault, expected",
        [
            (None, None),
            ("x,nope,", (ColumnTypeError, 1800, "N", "row 1800, column N: 'nope' is not a number")),
            ("x,1,2,3", (CsvError, 1800, None, "row 1800: {path}: expected 3 fields, got 4")),
        ],
        ids=["clean", "bad-number", "field-count"],
    )
    def test_batches_read_as_rows_do(self, tmp_path, monkeypatch, fault, expected):
        path = tmp_path / "T.csv"
        self._write(path, fault)
        rows, error = self._read(path)
        one_by_one, one_by_one_error = self._row_by_row(monkeypatch, path)
        assert rows == one_by_one and error == one_by_one_error
        types = lambda rows: [tuple(map(type, row)) for row in rows]  # 1 == 1.0, but an int is not a float
        assert types(rows) == types(one_by_one)
        assert len(rows) == (1300 if fault is None else 1198)
        assert rows[:2] == [("v 0, 0", 0.5, "2020"), ("v 1, 1", 1, None)]
        if expected is not None:
            type_, row, column, message = expected
            assert error == (type_, row, column, message.format(path=path))

    @pytest.mark.parametrize("batch_rows", [1, 7, 100_000])
    def test_the_database_does_not_depend_on_the_batch_size(self, clinic, tmp_path, monkeypatch, batch_rows):
        monkeypatch.setattr(store, "_BATCH_ROWS", batch_rows)
        db = build_exec_db(clinic.schema, clinic.csvs, tmp_path / "clinic.db")
        assert db.read_bytes() == clinic.db_path.read_bytes()


class TestValueLookup:
    def test_text_values_match_direct_query(self, clinic):
        with closing(sqlite3.connect(clinic.db_path)) as conn:
            expected = sorted(
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT LANGUAGE FROM DEMOGRAPHIC WHERE LANGUAGE IS NOT NULL"
                )
            )
        assert list(clinic.lookup.column("DEMOGRAPHIC", "LANGUAGE").load()) == expected

    def test_number_values_are_canonical_strings(self, clinic):
        ages = clinic.lookup.column("DEMOGRAPHIC", "AGE").load()
        assert all(age == canonical_value(int(age)) for age in ages)
        assert list(ages) == sorted(ages)

    def test_lookup_is_case_insensitive_and_keeps_each_column(self, clinic):
        column = clinic.lookup.column("lab", "label")
        assert column is clinic.lookup.column("LAB", "LABEL")
        assert (column.table, column.column, column.attr) == ("LAB", "LABEL", "text")

    def test_unknown_column_raises(self, clinic):
        with pytest.raises(UnknownColumn):
            clinic.lookup.column("LAB", "NOPE")

    def test_a_bare_column_resolves_to_the_one_table_that_has_it(self, clinic):
        assert clinic.lookup.column(None, "language") is clinic.lookup.column("DEMOGRAPHIC", "LANGUAGE")
        # SHORT_TITLE is a column of DIAGNOSES and of PROCEDURES.
        for ambiguous_or_missing in ("SHORT_TITLE", "NOPE"):
            with pytest.raises(UnknownColumn):
                clinic.lookup.column(None, ambiguous_or_missing)

    @pytest.fixture()
    def conn(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            yield conn

    @pytest.fixture()
    def selects(self, monkeypatch):
        """Every query the lookup runs, as (SQL, bound parameters...)."""
        calls = []

        def counting(conn, sql, timeout_ms=None, params=(), **bounds):
            calls.append((sql, *params))
            return run_select(conn, sql, timeout_ms, params, **bounds)

        monkeypatch.setattr(store, "run_select", counting)
        return calls

    LABELS = 'SELECT DISTINCT "LAB"."LABEL" FROM "LAB" WHERE "LAB"."LABEL" IS NOT NULL'
    LABEL_POINT = 'SELECT "LAB"."LABEL" FROM "LAB" WHERE "LAB"."LABEL" = ? LIMIT 1'

    def test_a_column_is_loaded_on_first_use_only(self, clinic, conn, selects):
        lookup = build_value_lookup(conn, clinic.schema)
        assert lookup.column("LAB", "LABEL").attr == "text"
        with pytest.raises(UnknownColumn):
            lookup.column(None, "SHORT_TITLE")
        assert selects == []
        labels = lookup.column("lab", "label").load()
        assert lookup.column("LAB", "LABEL").load() is labels
        assert selects == [(self.LABELS,)]
        assert labels == clinic.lookup.column("LAB", "LABEL").load()

    def test_distinct_values_read_a_covering_index(self, clinic, conn, selects):
        build_value_lookup(conn, clinic.schema).column("PRESCRIPTIONS", "DRUG").load()
        (query,) = selects
        plan = _plan(clinic.db_path, *query)
        assert "COVERING INDEX ix_13_PRESCRIPTIONS_DRUG" in plan and "TEMP B-TREE" not in plan, plan

    def test_a_hit_runs_one_point_query_and_reads_no_values(self, clinic, conn, selects):
        lookup = build_value_lookup(conn, clinic.schema)
        assert "ASSAY 007" in lookup.column("lab", "label")
        assert selects == [(self.LABEL_POINT, "ASSAY 007")]
        assert "ASSAY 007" in lookup.column("LAB", "LABEL")
        assert selects == [(self.LABEL_POINT, "ASSAY 007")] * 2

    def test_a_point_query_searches_the_index_of_its_column(self, clinic, conn, selects):
        assert "DRUG 001" in build_value_lookup(conn, clinic.schema).column("PRESCRIPTIONS", "DRUG")
        (point,) = selects
        plan = _plan(clinic.db_path, *point)
        assert plan == "SEARCH PRESCRIPTIONS USING COVERING INDEX ix_13_PRESCRIPTIONS_DRUG (DRUG=?)", plan

    def test_a_miss_loads_the_column_once_and_later_answers_read_it(self, clinic, conn, selects):
        lookup = build_value_lookup(conn, clinic.schema)
        assert "asay 007" not in lookup.column("LAB", "LABEL")
        assert selects == [(self.LABEL_POINT, "asay 007"), (self.LABELS,)]
        assert "asay 008" not in lookup.column("LAB", "LABEL")
        assert "ASSAY 007" in lookup.column("lab", "label")
        assert lookup.column("LAB", "LABEL").load() is lookup.column("lab", "label").load()
        assert selects == [(self.LABEL_POINT, "asay 007"), (self.LABELS,)]

    @pytest.mark.parametrize("suffix, member", [("", True), (".0", False), ("x", False)],
                             ids=["stored", "a-float-of-it", "not-a-number"])
    def test_text_that_a_number_column_makes_a_number_is_answered_from_its_values(self, clinic, conn, suffix, member):
        # A number column gives the text "25.0" the integer 25, whose canonical value is "25".
        value = clinic.lookup.column("DEMOGRAPHIC", "AGE").load()[0] + suffix
        assert (value in build_value_lookup(conn, clinic.schema).column("DEMOGRAPHIC", "AGE")) is member

    def test_a_quote_in_a_column_name_is_escaped(self, tmp_path):
        # The name was wrapped in quotes without doubling the embedded one: "unrecognized token".
        db = tmp_path / "t.db"
        with closing(sqlite3.connect(db)) as conn:
            conn.execute('CREATE TABLE T ("X""Y" TEXT)')
            conn.executemany("INSERT INTO T VALUES (?)", [("b",), ("a",), ("b",), (None,)])
            conn.commit()
        with closing(open_exec_db(db)) as conn:
            lookup = build_value_lookup(conn, SchemaDef((TableDef("T", (ColumnDef('X"Y', "text"),)),)))
            assert lookup.column("t", 'x"y').load() == ("a", "b")

    def test_unknown_pair_raises_without_a_query(self, clinic, conn, selects):
        lookup = build_value_lookup(conn, clinic.schema)
        with pytest.raises(UnknownColumn):
            lookup.column("LAB", "NOPE")
        with pytest.raises(UnknownColumn):
            lookup.column("NOPE", "LABEL")
        assert selects == []

    def test_borrowed_connection_is_used_for_loads(self, clinic):
        conn = open_exec_db(clinic.db_path)
        try:
            lookup = build_value_lookup(conn, clinic.schema)
            assert list(lookup.column("DEMOGRAPHIC", "LANGUAGE").load()) == list(
                clinic.lookup.column("DEMOGRAPHIC", "LANGUAGE").load()
            )
            assert conn.execute("SELECT 1").fetchone() == (1,)
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "table, column, reason",
        [("EXTRA", "NOTE", "no such table: EXTRA"), ("DEMOGRAPHIC", "NOTE", "no such column: DEMOGRAPHIC.NOTE")],
        ids=["table", "column"],
    )
    def test_a_pair_missing_from_the_database_is_a_data_error(self, clinic, conn, table, column, reason):
        tables = {t.name: t for t in clinic.schema.tables}
        columns = tables[table].columns if table in tables else ()
        tables[table] = TableDef(table, columns + (ColumnDef(column, "text"),))
        schema = SchemaDef(tuple(tables.values()))
        for ask in (lambda lookup: lookup.column(table.lower(), column.lower()).load(),
                    lambda lookup: "x" in lookup.column(table.lower(), column.lower())):
            with pytest.raises(DataError) as exc:
                ask(build_value_lookup(conn, schema))
            assert str(exc.value) == f"cannot read the values of {table}.{column} from the database: {reason}"

    def test_a_borrowed_connection_is_guarded(self, clinic, tmp_path):
        db = shutil.copy(clinic.db_path, tmp_path / "clinic.db")
        with closing(sqlite3.connect(db)) as conn:
            lookup = build_value_lookup(conn, clinic.schema)
            assert lookup.column("LAB", "LABEL").load() == clinic.lookup.column("LAB", "LABEL").load()
            with pytest.raises(sqlite3.DatabaseError, match="not authorized"):
                conn.execute(f"ATTACH DATABASE '{tmp_path / 'planted.db'}' AS x")
        assert not (tmp_path / "planted.db").exists()

    def test_column_values_is_a_tuple_with_a_member_set(self):
        column = store.ColumnValues(["a", "b b", "c"])
        assert column == ("a", "b b", "c")
        assert "c" in column and "d" not in column and "c" in column.members
        assert column.folded == (("a", ["a"]), ("b b", ["b", "b"]), ("c", ["c"]))


class TestCanonicalValue:
    def test_integral_float_drops_point(self):
        assert canonical_value(25.0) == "25"

    def test_fractional_float_kept(self):
        assert canonical_value(3.5) == "3.5"

    def test_int_and_text_pass_through(self):
        assert canonical_value(7) == "7"
        assert canonical_value("Self Pay") == "Self Pay"


class TestCorpusStats:
    def _mini_corpus(self):
        return [
            Sample(
                "s1",
                "how many patients are there",
                "SELECT COUNT(*) FROM DEMOGRAPHIC",
                paraphrase_question="patient count",
            ),
            Sample(
                "s2",
                "list adult patient names",
                "SELECT NAME, AGE FROM DEMOGRAPHIC WHERE AGE > 50",
            ),
            Sample(
                "s3",
                "count abnormal labs for older patients",
                'SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC '
                'INNER JOIN LAB ON DEMOGRAPHIC.HADM_ID = LAB.HADM_ID '
                'WHERE LAB.FLAG = "abnormal" AND DEMOGRAPHIC.AGE > 25',
            ),
        ]

    def test_hand_computed_values(self, clinic):
        stats = corpus_stats(self._mini_corpus(), clinic.schema)
        assert stats.n_samples == 3
        assert stats.n_tables == 5
        assert stats.columns_per_table == (9, 5, 5, 6, 7)
        assert stats.avg_template_question_len == 5.0
        assert stats.avg_paraphrase_question_len == 2.0
        assert stats.avg_sql_len == round((7 + 10 + 23) / 3, 2)
        assert stats.avg_agg_columns == round((1 + 2 + 1) / 3, 2)
        assert stats.avg_conditions == round((0 + 1 + 2) / 3, 2)

    def test_no_paraphrases_reports_zero(self, clinic):
        corpus = [Sample("a", "one two", "SELECT * FROM T")]
        assert corpus_stats(corpus, clinic.schema).avg_paraphrase_question_len == 0.0

    def test_empty_corpus_rejected(self, clinic):
        with pytest.raises(EmptyCorpus):
            corpus_stats([], clinic.schema)

    def test_to_dict_is_json_friendly(self, clinic):
        stats = corpus_stats(self._mini_corpus(), clinic.schema)
        assert json.loads(json.dumps(asdict(stats)))["n_samples"] == 3
