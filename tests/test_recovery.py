from __future__ import annotations

import random
import sqlite3
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsql.recovery
from medsql.errors import DataError, UnknownColumn
from medsql.recovery import (
    lcs_len,
    recover_query,
    recover_value,
    rouge_l_f1,
    similarity,
)
from medsql.store import (
    ColumnDef,
    ColumnValues,
    SchemaDef,
    TableDef,
    build_value_lookup,
    open_exec_db,
)

from .reference import ref_best_value, ref_combined, ref_lcs

short_text = st.text(alphabet="abcdefg hi", max_size=12)
# Lengths around and past 64 and 128 cross the word sizes of the bit vector.
long_text = st.text(alphabet="abc", max_size=200)
word_lists = st.lists(st.sampled_from(["self", "pay", "paid", "a", "b"]), max_size=150)
column_values = st.lists(st.text(alphabet="ab c", max_size=6), min_size=1, max_size=25, unique=True)


@pytest.fixture()
def similarity_calls(monkeypatch):
    """Counts the candidate pairs recover_value scores."""
    calls = []

    def counting(predicted, db_value):
        calls.append((predicted, db_value))
        return similarity(predicted, db_value)

    monkeypatch.setattr(medsql.recovery, "similarity", counting)
    return calls


class TestLcs:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("", "abc", 0),
            ("abc", "", 0),
            ("abc", "abc", 3),
            ("abcde", "ace", 3),
            ("hait", "haitian", 4),
            ("abc", "xyz", 0),
            ("AGGTAB", "GXTXAYB", 4),
        ],
    )
    def test_known_pairs(self, a, b, expected):
        assert lcs_len(a, b) == expected

    def test_works_on_word_sequences(self):
        assert lcs_len(["self", "pay"], ["self", "paid"]) == 1

    @given(short_text, short_text)
    @settings(max_examples=300)
    def test_agrees_with_full_matrix_reference(self, a, b):
        assert lcs_len(a, b) == ref_lcs(a, b)

    @given(long_text, long_text)
    @settings(max_examples=200)
    def test_long_strings_agree_with_reference(self, a, b):
        assert lcs_len(a, b) == ref_lcs(a, b)

    @given(word_lists, word_lists)
    @settings(max_examples=200)
    def test_word_lists_agree_with_reference(self, a, b):
        assert lcs_len(a, b) == ref_lcs(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n):
        a = "ab" * n
        assert lcs_len(a, "b" * n) == n
        assert lcs_len(a[:n], a[1 : n + 1]) == n - 1

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, a, b):
        got = lcs_len(a, b)
        assert got == lcs_len(b, a)
        assert 0 <= got <= min(len(a), len(b))


class TestRougeL:
    def test_identical_sequences_score_one(self):
        assert rouge_l_f1("abc", "abc") == 1.0

    def test_disjoint_sequences_score_zero(self):
        assert rouge_l_f1("abc", "xyz") == 0.0

    def test_empty_side_scores_zero(self):
        assert rouge_l_f1("", "abc") == 0.0
        assert rouge_l_f1("abc", "") == 0.0

    def test_known_fraction(self):
        # lcs("hait", "haitian") = 4: P = 4/4, R = 4/7, F1 = 8/11.
        assert abs(rouge_l_f1("hait", "haitian") - 8 / 11) < 1e-12

    @given(short_text, short_text)
    def test_bounded_and_symmetric(self, a, b):
        score = rouge_l_f1(a, b)
        assert 0.0 <= score <= 1.0
        assert score == rouge_l_f1(b, a)


class TestSimilarity:
    def test_worked_example(self):
        # "hait" vs "HAITIAN": word-level F1 is 0 (no identical word),
        # char-level F1 is 8/11, combined mean is 4/11.
        score = similarity("hait", "HAITIAN")
        assert score.word_f == 0.0
        assert abs(score.char_f - 8 / 11) < 1e-12
        assert abs(score.combined - 4 / 11) < 1e-12

    def test_case_folding(self):
        assert similarity("HAIT", "hait").combined == 1.0

    def test_multiword_values_share_words(self):
        score = similarity("self pay", "Self Pay")
        assert score.word_f == 1.0
        assert score.combined == 1.0

    @given(short_text, short_text)
    @settings(max_examples=200)
    def test_combined_agrees_with_reference(self, a, b):
        assert similarity(a, b).combined == ref_combined(a, b)


class TestRecoverValue:
    def test_exact_member_short_circuits(self):
        value, score = recover_value("engl", ("ENGL", "engl"))
        assert value == "engl"
        assert score == 1.0

    def test_argmax_over_value_set(self):
        value, score = recover_value("hait", ("HAITIAN", "RUSSIAN"))
        assert value == "HAITIAN"
        assert abs(score - 4 / 11) < 1e-12

    def test_tie_breaks_to_lexicographically_smallest(self):
        # Both values share exactly one character with the prediction.
        assert recover_value("ab", ("bx", "ax"))[0] == "ax"

    def test_empty_value_set_rejected(self):
        with pytest.raises(UnknownColumn):
            recover_value("x", ())

    def test_prefilter_never_changes_the_answer(self):
        rng = random.Random(401)
        alphabet = "abcdef "
        values = sorted(
            {"".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 10))) for _ in range(60)}
        )
        for _ in range(150):
            pred = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
            # The reference scores every value: the bound skips none that matters.
            assert recover_value(pred, values) == ref_best_value(pred, values)

    @given(st.text(alphabet="ab cd", max_size=8), column_values)
    @settings(max_examples=300)
    def test_bound_on_and_off_agree_with_reference(self, pred, values):
        # The reference is the scan with the bound off.
        expected = ref_best_value(pred, values)
        assert recover_value(pred, values) == expected
        assert recover_value(pred, ColumnValues(sorted(values))) == expected

    def test_ties_and_the_empty_prediction(self):
        # Every value scores 0 against an empty prediction; the smallest wins.
        values = ("b", "a c", "c")
        assert recover_value("", values) == ref_best_value("", values) == ("a c", 0.0)
        # "xb" and "bx" tie at every level; "bx" sorts first.
        assert recover_value("x", ("xb", "bx")) == ref_best_value("x", ("xb", "bx"))
        assert recover_value("x", ("xb", "bx"))[0] == "bx"

    def test_bound_skips_candidates_without_changing_the_answer(self, similarity_calls):
        values = [f"VALUE {i:03d} UNIT" for i in range(200)] + ["HEMOGLOBIN A1C"]
        assert recover_value("hemoglobin a1", values) == ref_best_value("hemoglobin a1", values)
        assert len(similarity_calls) < len(values)

    def test_a_column_answers_exact_hits_from_its_set(self, similarity_calls):
        column = ColumnValues(["ENGL", "HAITIAN"])
        assert recover_value("HAITIAN", column) == ("HAITIAN", 1.0)
        assert similarity_calls == []
        assert column.memo == {}

    def test_a_repeated_miss_is_scored_once(self, similarity_calls):
        column = ColumnValues(["ENGL", "HAITIAN", "RUSSIAN"])
        first = recover_value("hait", column)
        scored = len(similarity_calls)
        assert 0 < scored <= 3
        assert recover_value("hait", column) == first
        assert len(similarity_calls) == scored
        assert column.memo == {"hait": first}


class TestRecoverQuery:
    def test_a_repeated_miss_on_a_lookup_scores_no_pair_twice(self, clinic, similarity_calls):
        pred = 'SELECT LAB.VALUE_UNIT FROM LAB WHERE LAB.LABEL = "asay 007"'
        with closing(open_exec_db(clinic.db_path)) as conn:
            lookup = build_value_lookup(conn, clinic.schema)
            first = recover_query(pred, lookup)
            pairs = list(similarity_calls)
            assert pairs and len(set(pairs)) == len(pairs)
            assert recover_query(pred, lookup) == first
        assert similarity_calls == pairs
        assert first.replacements == (("asay 007", "ASSAY 007"),)

    @pytest.mark.parametrize("value", ["ASSAY 007", "asay 007"], ids=["hit", "miss"])
    def test_each_recovered_condition_resolves_its_column_once(self, clinic, monkeypatch, value):
        # A miss resolved LAB.LABEL four times: for its attribute, its point query and twice for its values.
        resolved = []
        table = SchemaDef.table
        monkeypatch.setattr(SchemaDef, "table", lambda schema, name: resolved.append(name) or table(schema, name))
        pred = f'SELECT LAB.VALUE_UNIT FROM LAB WHERE LAB.LABEL = "{value}" OR LAB.FLAG = "{value}"'
        with closing(open_exec_db(clinic.db_path)) as conn:
            lookup = build_value_lookup(conn, clinic.schema)
            first = recover_query(pred, lookup)
            assert resolved == ["LAB", "LAB"]
            assert recover_query(pred, lookup) == first
        assert resolved == ["LAB", "LAB"] * 2

    def test_misspelled_value_is_replaced(self, clinic):
        pred = 'SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.LANGUAGE = "hait"'
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.parsed
        assert '"HAIT"' in recovered.sql
        assert recovered.replacements == (("hait", "HAIT"),)

    def test_exact_value_is_kept_without_a_replacement_entry(self, clinic):
        pred = 'SELECT LAB.VALUE_UNIT FROM LAB WHERE LAB.LABEL = "ASSAY 007"'
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.sql == pred
        assert recovered.replacements == ()

    def test_number_literals_are_untouched(self, clinic):
        pred = "SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.AGE > 25"
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.sql == pred
        assert recovered.replacements == ()

    def test_text_literal_on_number_column_is_untouched(self, clinic):
        pred = 'SELECT DEMOGRAPHIC.NAME FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.AGE = "25"'
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.sql == pred

    def test_bare_column_resolves_when_unique(self, clinic):
        pred = 'SELECT NAME FROM DEMOGRAPHIC WHERE LANGUAGE = "porT"'
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.replacements == (("porT", "PORT"),)

    def test_ambiguous_bare_column_is_reported(self, clinic):
        # SHORT_TITLE exists in both DIAGNOSES and PROCEDURES.
        pred = 'SELECT ICD9_CODE FROM PROCEDURES WHERE SHORT_TITLE = "procedure 003"'
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.sql == pred
        assert recovered.unresolved == ("SHORT_TITLE",)

    def test_unknown_column_is_reported(self, clinic):
        pred = 'SELECT NAME FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.NOPE = "x"'
        recovered = recover_query(pred, clinic.lookup)
        assert recovered.sql == pred
        assert recovered.unresolved == ("DEMOGRAPHIC.NOPE",)

    def test_unparseable_input_is_returned_unchanged(self, clinic):
        pred = "SELECT NAME FROM DEMOGRAPHIC GROUP BY NAME"
        recovered = recover_query(pred, clinic.lookup)
        assert not recovered.parsed
        assert recovered.sql == pred

    def test_output_is_canonical_and_idempotent(self, clinic):
        pred = "select name from demographic where language = 'hai'"
        once = recover_query(pred, clinic.lookup)
        twice = recover_query(once.sql, clinic.lookup)
        assert once.parsed and twice.parsed
        assert twice.sql == once.sql

    def test_every_replacement_comes_from_the_column_value_set(self, clinic):
        rng = random.Random(77)
        languages = clinic.lookup.column("DEMOGRAPHIC", "LANGUAGE").load()
        for _ in range(50):
            source = rng.choice(languages)
            mangled = "".join(ch for ch in source if rng.random() > 0.3).lower()
            pred = (
                "SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC "
                f'WHERE DEMOGRAPHIC.LANGUAGE = "{mangled}"'
            )
            recovered = recover_query(pred, clinic.lookup)
            assert recovered.parsed
            for _, replacement in recovered.replacements:
                assert replacement in languages


# Hand-built one-column tables whose collation or stored types differ from
# those of a built execution database: (declaration, cells, predictions).
_COLUMNS = {
    "nocase": ("TEXT COLLATE NOCASE", ["FOO", "foo", "Foo", "bar"], ["FOO", "foo", "fOO", "ba"]),
    "numeric": ("NUMERIC", [3, "3", 3.0, 3.5, 1e20, "x"], ["3", "3.0", "3.5", "1e+20", "1" + "0" * 20, "x", "4"]),
    "blob": ("TEXT", [b"foo", "foo", b"\xff"], ["foo", "b'foo'", "b'\\xff'", "fo"]),
    "quote-nul": ("TEXT", ['a"b', "a\0b", "a", 'a""b'], ['a"b', "a\0b", "a\0", 'a""b', "a b", "a\ud800"]),
    "null": ("TEXT", [None], ["x"]),
}
_T_C = SchemaDef((TableDef("T", (ColumnDef("C", "text"),)),))


def _column_db(declaration, cells, indexed=True):
    """An in-memory database holding ``T.C`` with ``cells``, in order."""
    conn = sqlite3.connect(":memory:")
    conn.execute(f"CREATE TABLE T (C {declaration})")
    conn.executemany("INSERT INTO T VALUES (?)", [(cell,) for cell in cells])
    if indexed:
        conn.execute("CREATE INDEX ix_1_T_C ON T (C)")
    return conn


def _where_c(value):
    return 'SELECT C FROM T WHERE T.C = "' + value.replace('"', '""') + '"'


class TestPointQueryPath:
    @given(st.sampled_from(sorted(_COLUMNS)), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_fresh_lookup_answers_as_a_loaded_column_does(self, kind, indexed, data):
        declaration, cells, predictions = _COLUMNS[kind]
        rows = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6), label="rows")
        with closing(_column_db(declaration, rows, indexed)) as conn:
            loaded = build_value_lookup(conn, _T_C)
            loaded.column("T", "C").load()
            for sql in map(_where_c, predictions):
                assert recover_query(sql, build_value_lookup(conn, _T_C)) == recover_query(sql, loaded), sql

    def test_an_all_null_column_is_an_empty_value_set(self):
        with closing(_column_db("TEXT", [None, None])) as conn:
            lookup = build_value_lookup(conn, _T_C)
            with pytest.raises(UnknownColumn, match="^empty value set$"):
                recover_value("x", lookup.column("T", "C"))
            assert recover_query(_where_c("x"), lookup).unresolved == ("T.C",)

    def test_a_hit_reports_itself_through_the_returned_value(self, clinic, similarity_calls):
        with closing(open_exec_db(clinic.db_path)) as conn:
            column = build_value_lookup(conn, clinic.schema).column("lab", "label")
            assert recover_value("ASSAY 007", column) == ("ASSAY 007", 1.0)
            assert similarity_calls == []
            assert recover_value("asay 007", column)[0] == "ASSAY 007"

    @pytest.mark.parametrize(
        "table, column, reason",
        [("EXTRA", "NOTE", "no such table: EXTRA"), ("DEMOGRAPHIC", "NOTE", "no such column: DEMOGRAPHIC.NOTE")],
        ids=["table", "column"],
    )
    def test_a_pair_missing_from_the_database_keeps_its_error(self, clinic, table, column, reason):
        tables = {t.name: t for t in clinic.schema.tables}
        columns = tables[table].columns if table in tables else ()
        tables[table] = TableDef(table, columns + (ColumnDef(column, "text"),))
        with closing(open_exec_db(clinic.db_path)) as conn:
            lookup = build_value_lookup(conn, SchemaDef(tuple(tables.values())))
            with pytest.raises(DataError) as exc:
                recover_query(f'SELECT {column} FROM {table} WHERE {table}.{column} = "x"', lookup)
        assert str(exc.value) == f"cannot read the values of {table}.{column} from the database: {reason}"

    def test_an_undecodable_cell_fails_a_miss_and_not_a_hit(self):
        # Every value predicted on such a column used to fail, hits included.
        with closing(_column_db("TEXT", ["a", "b"])) as conn:
            conn.execute("INSERT INTO T VALUES (CAST(x'ff' AS TEXT))")
            lookup = build_value_lookup(conn, _T_C)
            assert recover_query(_where_c("a"), lookup).sql == _where_c("a")
            with pytest.raises(DataError, match="^cannot read the values of T.C from the database: Could not decode"):
                recover_query(_where_c("c"), lookup)
