from __future__ import annotations

import json
import re
import shutil
import sqlite3
from collections import Counter
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsql import store
from medsql.errors import MissingPrediction
from medsql.metrics import (
    ExecutionOutcome,
    component_breakdown,
    evaluate,
    execution_match,
    logic_form_match,
    results_equal,
)
from medsql.predictions import Candidate, CandidateSet
from medsql.query import AggOp, CompOp, Star, parse_sql
from medsql.store import DEFAULT_TIMEOUT_MS, Sample, open_exec_db

from .conftest import clinic_templates, peak_bytes
from .reference import ref_execution_match


@pytest.fixture()
def executed(monkeypatch) -> list[tuple[str, int | None]]:
    """(statement, its bound) of every statement run on an execution
    connection during the test, in order."""
    executed: list[tuple[str, int | None]] = []
    original = store.run_select

    def spy(conn, sql, timeout_ms=None, params=(), **bounds):
        executed.append((sql, timeout_ms))
        return original(conn, sql, timeout_ms, params, **bounds)

    monkeypatch.setattr(store, "run_select", spy)
    return executed


class TestLogicForm:
    def test_case_and_whitespace_insensitive(self):
        assert logic_form_match("SELECT A,B from TABLE", "select  a , b FROM table")

    def test_select_order_matters(self):
        assert not logic_form_match("SELECT A, B FROM T", "SELECT B, A FROM T")

    def test_quote_style_does_not_matter(self):
        assert logic_form_match(
            "SELECT A FROM T WHERE B = 'Port'", 'SELECT A FROM T WHERE B = "Port"'
        )

    def test_literal_case_matters(self):
        assert not logic_form_match(
            'SELECT A FROM T WHERE B = "PORT"', 'SELECT A FROM T WHERE B = "Port"'
        )

    def test_unterminated_prediction_never_matches(self):
        assert not logic_form_match("SELECT A FROM T", 'SELECT A FROM T WHERE B = "x')

    def test_does_not_require_parseable_sql(self):
        assert logic_form_match("SELECT A FROM T GROUP BY A", "select a from t group by a")


class TestResultsEqual:
    def test_order_is_ignored(self):
        assert results_equal([(1,), (2,)], [(2,), (1,)])

    def test_duplicates_are_significant(self):
        assert not results_equal([(1,), (1,)], [(1,)])
        assert results_equal([(1,), (1,)], [(1,), (1,)])

    def test_numeric_tolerance(self):
        assert results_equal([(1.0,)], [(1.0 + 1e-12,)])
        assert not results_equal([(1.0,)], [(1.1,)])

    def test_int_and_float_compare_numerically(self):
        assert results_equal([(1,)], [(1.0,)])

    def test_text_is_byte_exact(self):
        assert not results_equal([("a",)], [("A",)])
        assert not results_equal([("1",)], [(1,)])

    def test_none_cells(self):
        assert results_equal([(None,)], [(None,)])
        assert not results_equal([(None,)], [(0,)])

    def test_blob_cells_compare_as_bytes(self):
        assert results_equal([(b"\xff",), (b"a",), ("a",)], [("a",), (b"a",), (b"\xff",)])
        assert not results_equal([(b"a",)], [("a",)])
        assert not results_equal([(b"\xff",)], [(b"\xfe",)])

    def test_blob_cells_pair_by_their_bytes(self, clinic):
        # Blobs that are not UTF-8 all decoded to U+FFFD, shared a sort key and paired in input order.
        assert results_equal([(b"\xff",), (b"\xfe",)], [(b"\xfe",), (b"\xff",)])
        gold, pred = "SELECT x'ff' UNION ALL SELECT x'fe'", "SELECT x'fe' UNION ALL SELECT x'ff'"
        with closing(open_exec_db(clinic.db_path)) as conn:
            assert ref_execution_match(conn, gold, pred)
            assert execution_match(gold, pred, conn).ex_match

    def test_row_width_must_match(self):
        assert not results_equal([(1, 2)], [(1,)])

    rows = st.lists(
        st.tuples(st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=2))),
        max_size=5,
    )

    @given(rows, rows)
    @settings(max_examples=150)
    def test_symmetry(self, a, b):
        assert results_equal(a, b) == results_equal(b, a)

    @given(rows, st.randoms())
    def test_any_permutation_matches(self, a, rng):
        shuffled = list(a)
        rng.shuffle(shuffled)
        assert results_equal(a, shuffled)

    def test_rows_pair_up_under_the_tolerance(self):
        # Sorted on exact floats, (1.0, "b") would meet (1.0, "a").
        assert results_equal([(1.0, "b"), (1.0000000000001, "a")], [(1.0000000000001, "b"), (1.0, "a")])

    # Multiples of 0.25 on a small grid, so that equal numbers recur in a
    # column and sit far from the canonical rounding boundaries.
    grid_rows = st.lists(
        st.tuples(
            st.one_of(st.integers(-8, 8).map(lambda k: k * 0.25), st.sampled_from("ab")),
            st.one_of(st.integers(-8, 8).map(lambda k: k * 0.25), st.sampled_from("ab")),
        ),
        max_size=6,
    )

    @given(grid_rows, st.randoms(), st.data())
    @settings(max_examples=300)
    def test_nudges_below_the_tolerance_match_in_any_order(self, a, rng, data):
        nudge = st.floats(-5e-10, 5e-10)

        def nudged(cell):
            if isinstance(cell, str):
                return cell
            # Relative below REL_TOLERANCE; absolute below ABS_TOLERANCE at 0.
            return cell * (1 + data.draw(nudge)) if cell else data.draw(nudge) / 1000

        b = [tuple(map(nudged, row)) for row in a]
        rng.shuffle(b)
        assert results_equal(a, b)
        assert results_equal(b, a)


class TestExecutionMatch:
    def test_identical_queries_match(self, clinic):
        outcome = execution_match(
            "SELECT COUNT(*) FROM LAB", "SELECT COUNT(*) FROM LAB", clinic.db_path
        )
        assert outcome.ex_match and not outcome.gold_error and not outcome.pred_error

    def test_a_repeated_text_runs_once(self, clinic, executed):
        gold = "SELECT COUNT(*) FROM LAB"
        assert execution_match(gold, gold, clinic.db_path) == ExecutionOutcome(True, False, False)
        assert [sql for sql, _ in executed] == [gold]
        # A text that differs, if only in its spacing, runs on its own.
        pred = gold.replace("*", "* ")
        assert execution_match(gold, pred, clinic.db_path).ex_match
        assert [sql for sql, _ in executed] == [gold, gold, pred]

    def test_a_repeated_failing_text_runs_once_and_fails_both_sides(self, clinic, executed):
        outcome = execution_match("SELECT NOPE FROM LAB", "SELECT NOPE FROM LAB", clinic.db_path)
        assert outcome == ExecutionOutcome(False, True, True)
        assert [sql for sql, _ in executed] == ["SELECT NOPE FROM LAB"]

    def test_column_names_are_ignored(self, clinic):
        outcome = execution_match(
            "SELECT AGE FROM DEMOGRAPHIC",
            "SELECT AGE AS renamed FROM DEMOGRAPHIC",
            clinic.db_path,
        )
        assert outcome.ex_match

    def test_row_order_is_ignored(self, clinic):
        outcome = execution_match(
            "SELECT NAME FROM DEMOGRAPHIC",
            "SELECT NAME FROM DEMOGRAPHIC ORDER BY NAME DESC",
            clinic.db_path,
        )
        assert outcome.ex_match

    def test_failing_prediction_sets_flag(self, clinic):
        outcome = execution_match(
            "SELECT COUNT(*) FROM LAB", "SELECT NOPE FROM LAB", clinic.db_path
        )
        assert not outcome.ex_match and outcome.pred_error and not outcome.gold_error

    def test_failing_gold_sets_flag(self, clinic):
        outcome = execution_match(
            "SELECT NOPE FROM LAB", "SELECT COUNT(*) FROM LAB", clinic.db_path
        )
        assert not outcome.ex_match and outcome.gold_error and not outcome.pred_error

    def test_both_failing(self, clinic):
        outcome = execution_match("SELECT NOPE FROM LAB", "SELECT NOPE FROM LAB", clinic.db_path)
        assert not outcome.ex_match and outcome.gold_error and outcome.pred_error

    def test_a_prediction_that_reads_the_clock_is_a_pred_error(self, clinic):
        # It used to run, so its score depended on the day it was run.
        outcome = execution_match("SELECT date('2020-01-01')", "SELECT date('now')", clinic.db_path)
        assert (outcome.ex_match, outcome.gold_error, outcome.pred_error) == (False, True, True)
        sample = clinic.corpus[0]
        (scored,) = evaluate([sample], {sample.id: "SELECT date('now')"}, clinic.db_path).per_sample
        assert (scored.ex_match, scored.gold_error, scored.pred_error) == (False, False, True)

    def test_a_borrowed_connection_cannot_write(self, clinic, tmp_path):
        # A caller's own connection used to run the PRAGMA, with pred_error unset.
        db = shutil.copy(clinic.db_path, tmp_path / "clinic.db")
        before = Path(db).read_bytes()
        with closing(sqlite3.connect(db)) as conn:
            outcome = execution_match("SELECT 1", "PRAGMA user_version = 7", conn)
        assert (outcome.ex_match, outcome.gold_error, outcome.pred_error) == (False, False, True)
        assert Path(db).read_bytes() == before

    def test_a_prediction_far_longer_than_gold_holds_no_result_set(self, clinic):
        # Its 10,000 rows were all held, a 7.7 MB peak, to find that they outnumber gold's one.
        sample = Sample("s1", "How many lab rows are there?", "SELECT COUNT(*) FROM LAB")
        preds = {"s1": "SELECT a.*, b.* FROM LAB a, LAB b"}
        reports = []
        with closing(open_exec_db(clinic.db_path)) as conn:
            peak = peak_bytes(lambda: reports.append(evaluate([sample], preds, conn)))
        (scored,) = reports[0].per_sample
        assert (scored.ex_match, scored.gold_error, scored.pred_error) == (False, False, False)
        assert peak < 2_000_000

    @pytest.mark.parametrize("gold", ["SELECT COUNT(*) FROM LAB", "SELECT NOPE FROM LAB"],
                             ids=["gold-runs", "gold-fails"])
    @pytest.mark.parametrize("pred", [
        "SELECT a.*, b.*, c.*, d.* FROM LAB a, LAB b, LAB c, LAB d",
        "SELECT abs(CASE WHEN rowid > 5 THEN -9223372036854775807 - 1 ELSE 1 END) FROM LAB",
    ], ids=["cross-join-timeout", "fails-at-row-6"])
    def test_a_prediction_that_fails_past_the_rows_it_keeps_is_a_pred_error(self, clinic, gold, pred):
        outcome = execution_match(gold, pred, clinic.db_path, timeout_ms=50)
        assert (outcome.ex_match, outcome.gold_error, outcome.pred_error) == (False, "NOPE" in gold, True)

    def test_agrees_with_reference_on_corpus_pairs(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            for sample in clinic.corpus[::97]:
                for pred in (sample.gold_sql, "SELECT COUNT(*) FROM LAB", "SELECT NOPE FROM X"):
                    got = execution_match(sample.gold_sql, pred, conn).ex_match
                    want = ref_execution_match(conn, sample.gold_sql, pred)
                    assert got == want, (sample.gold_sql, pred)

    def test_lf_match_implies_ex_match_when_gold_executes(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            for sample in clinic.corpus[::53]:
                assert logic_form_match(sample.gold_sql, sample.gold_sql)
                outcome = execution_match(sample.gold_sql, sample.gold_sql, conn)
                assert not outcome.gold_error
                assert outcome.ex_match


class TestComponentBreakdown:
    def _flags(self, gold, pred):
        return component_breakdown(parse_sql(gold), parse_sql(pred))

    GOLD = (
        'SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC '
        'INNER JOIN LAB ON DEMOGRAPHIC.HADM_ID = LAB.HADM_ID '
        'WHERE LAB.FLAG = "abnormal" AND DEMOGRAPHIC.AGE > 25'
    )

    def test_identical_queries_set_every_flag(self):
        flags = self._flags(self.GOLD, self.GOLD)
        assert all(asdict(flags).values())

    def test_changed_value_only_clears_cond_val(self):
        pred = self.GOLD.replace('"abnormal"', '"normal"')
        flags = self._flags(self.GOLD, pred)
        assert not flags.cond_val
        assert flags.agg_op and flags.agg_col and flags.table_joins and flags.cond_col_op

    def test_condition_order_does_not_matter(self):
        pred = (
            'SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC '
            'INNER JOIN LAB ON DEMOGRAPHIC.HADM_ID = LAB.HADM_ID '
            'WHERE DEMOGRAPHIC.AGE > 25 AND LAB.FLAG = "abnormal"'
        )
        assert all(asdict(self._flags(self.GOLD, pred)).values())

    def test_select_order_does_not_matter(self):
        flags = self._flags(
            "SELECT A, B FROM T",
            "SELECT B, A FROM T",
        )
        assert all(asdict(flags).values())

    def test_join_orientation_does_not_matter(self):
        pred = self.GOLD.replace(
            "ON DEMOGRAPHIC.HADM_ID = LAB.HADM_ID", "ON LAB.HADM_ID = DEMOGRAPHIC.HADM_ID"
        )
        assert self._flags(self.GOLD, pred).table_joins

    def test_different_agg_clears_agg_op(self):
        flags = self._flags("SELECT COUNT(A) FROM T", "SELECT MAX(A) FROM T")
        assert not flags.agg_op
        assert flags.agg_col

    def test_different_main_table_clears_table_joins(self):
        flags = self._flags("SELECT A FROM T", "SELECT A FROM U")
        assert not flags.table_joins

    def test_changed_operator_clears_cond_col_op(self):
        flags = self._flags(
            "SELECT A FROM T WHERE B > 5", "SELECT A FROM T WHERE B < 5"
        )
        assert not flags.cond_col_op
        assert flags.cond_val


# The gold queries of the clinic templates, each slot filled with one literal.
GOLD_QUERIES = [parse_sql(re.sub(r"\[[A-Z]+\]", "7", sql)) for _, _, sql, _ in clinic_templates()]


def counter_breakdown(gold, pred) -> dict[str, bool]:
    """The breakdown with every component compared as a Counter: the
    reference that component_breakdown's shortcuts must agree with."""
    label = lambda column: "*" if isinstance(column, Star) else column.render()
    joins = lambda q: Counter((j.table, frozenset((j.left.render(), j.right.render()))) for j in q.joins)
    return {
        "agg_op": Counter(i.agg_op for i in gold.select_items) == Counter(i.agg_op for i in pred.select_items),
        "agg_col": Counter(label(i.column) for i in gold.select_items)
        == Counter(label(i.column) for i in pred.select_items),
        "table_joins": gold.main_table == pred.main_table and joins(gold) == joins(pred),
        "cond_col_op": Counter((c.column.render(), c.op) for c in gold.conditions)
        == Counter((c.column.render(), c.op) for c in pred.conditions),
        "cond_val": Counter((c.value.kind, c.value.value) for c in gold.conditions)
        == Counter((c.value.kind, c.value.value) for c in pred.conditions),
    }


@st.composite
def mutated(draw, query):
    """``query`` after up to four edits: conditions or select items
    reordered, or one condition's operator or value, one item's aggregate
    or one join's sides changed."""
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["conditions", "items", "op", "value", "agg", "join"]))
        if edit == "conditions":  # each position keeps its connector, as a query must
            reordered = draw(st.permutations(query.conditions))
            query = replace(query, conditions=tuple(
                replace(c, connector=at.connector) for c, at in zip(reordered, query.conditions)
            ))
        elif edit == "items":
            query = replace(query, select_items=tuple(draw(st.permutations(query.select_items))))
        elif edit in ("op", "value") and query.conditions:
            k = draw(st.integers(0, len(query.conditions) - 1))
            cond = query.conditions[k]
            if edit == "op":
                cond = replace(cond, op=draw(st.sampled_from(CompOp)))
            else:
                cond = replace(cond, value=replace(cond.value, value=draw(st.sampled_from(["7", "8", "x"]))))
            query = replace(query, conditions=query.conditions[:k] + (cond,) + query.conditions[k + 1 :])
        elif edit == "agg":
            k = draw(st.integers(0, len(query.select_items) - 1))
            item = replace(query.select_items[k], agg_op=draw(st.sampled_from(AggOp)))
            query = replace(query, select_items=query.select_items[:k] + (item,) + query.select_items[k + 1 :])
        elif edit == "join" and query.joins:
            k = draw(st.integers(0, len(query.joins) - 1))
            join = query.joins[k]
            join = replace(join, left=join.right, right=join.left)
            query = replace(query, joins=query.joins[:k] + (join,) + query.joins[k + 1 :])
    return query


class TestBreakdownOracle:
    """component_breakdown against the Counter comparison it replaced. CI
    also runs this under the deep hypothesis profile, so it sets no example
    count of its own."""

    @given(st.sampled_from(GOLD_QUERIES).flatmap(lambda gold: st.tuples(st.just(gold), mutated(gold))))
    def test_breakdown_agrees_with_counters(self, pair):
        gold, pred = pair
        assert asdict(component_breakdown(gold, pred)) == counter_breakdown(gold, pred)
        assert asdict(component_breakdown(pred, gold)) == counter_breakdown(pred, gold)


class TestEvaluate:
    @pytest.fixture()
    def four_samples(self, clinic):
        return list(clinic.corpus[:4])

    def _preds(self, samples):
        wrong = 'SELECT COUNT(DISTINCT LAB.HADM_ID) FROM LAB WHERE LAB.LABEL = "ZZZ none"'
        return {
            samples[0].id: samples[0].gold_sql,
            samples[1].id: samples[1].gold_sql,
            samples[2].id: wrong,
        }

    def test_accuracies_count_matches_over_n(self, clinic, four_samples):
        report = evaluate(four_samples, self._preds(four_samples), clinic.db_path)
        assert report.n == 4
        assert report.acc_lf == 2 / 4
        assert report.acc_ex == 2 / 4

    def test_missing_prediction_is_scored_false_with_flag(self, clinic, four_samples):
        report = evaluate(four_samples, self._preds(four_samples), clinic.db_path)
        last = report.per_sample[-1]
        assert last.id == four_samples[3].id
        assert not last.lf_match and not last.ex_match and last.pred_error

    def test_strict_mode_raises_with_ids(self, clinic, four_samples):
        with pytest.raises(MissingPrediction) as exc:
            evaluate(four_samples, self._preds(four_samples), clinic.db_path, strict=True)
        assert four_samples[3].id in str(exc.value)

    def test_beam_records_score_their_top_candidate(self, clinic, four_samples):
        sample = four_samples[0]
        preds = {
            sample.id: CandidateSet(
                sample.id,
                (
                    Candidate("SELECT NOPE FROM LAB", 0.2),
                    Candidate(sample.gold_sql, 0.9),
                ),
            )
        }
        report = evaluate([sample], preds, clinic.db_path)
        assert report.acc_lf == report.acc_ex == 1.0

    def test_sample_order_does_not_change_accuracies(self, clinic, four_samples):
        preds = self._preds(four_samples)
        forward = evaluate(four_samples, preds, clinic.db_path)
        backward = evaluate(list(reversed(four_samples)), preds, clinic.db_path)
        assert forward.acc_lf == backward.acc_lf
        assert forward.acc_ex == backward.acc_ex

    def test_every_query_is_bounded_by_default(self, clinic, four_samples, executed):
        evaluate(four_samples, self._preds(four_samples), clinic.db_path)
        # Gold and prediction of the wrong sample; the two that repeat their gold run once each.
        assert [bound for _, bound in executed] == [DEFAULT_TIMEOUT_MS] * 4
        execution_match(four_samples[0].gold_sql, four_samples[0].gold_sql, clinic.db_path)
        assert [bound for _, bound in executed[4:]] == [DEFAULT_TIMEOUT_MS]

    def test_a_repeated_gold_scores_as_the_gold_with_a_space(self, clinic):
        # The space changes the text only, so that prediction takes the general path.
        samples = list(clinic.corpus[::97]) + [
            Sample("group", "q", "SELECT LAB.LABEL FROM LAB GROUP BY LAB.LABEL"),  # unparseable
            Sample("open", "q", 'SELECT A FROM T WHERE B = "open'),  # unterminated
            Sample("fails", "q", "SELECT NOPE FROM LAB"),
            Sample("denied", "q", "SELECT date('now')"),
        ]
        for sample in samples:
            repeated = evaluate([sample], {sample.id: sample.gold_sql}, clinic.db_path)
            spaced = evaluate([sample], {sample.id: sample.gold_sql + " "}, clinic.db_path)
            assert repeated.per_sample == spaced.per_sample, sample.gold_sql
            assert repeated.breakdown == spaced.breakdown, sample.gold_sql

    def test_breakdown_fractions(self, clinic, four_samples):
        report = evaluate(four_samples, self._preds(four_samples), clinic.db_path)
        assert report.breakdown is not None
        # Two exact copies plus one same-shape wrong-value prediction.
        assert report.breakdown["cond_val"] == 2 / 4
        assert report.breakdown["agg_op"] == 3 / 4

    def test_unparseable_gold_clears_every_breakdown_flag(self, clinic):
        # SQLite runs GROUP BY, so LF and EX match, but the dialect cannot parse it.
        sample = Sample("g", "q", "SELECT LAB.LABEL FROM LAB GROUP BY LAB.LABEL")
        report = evaluate([sample], {"g": sample.gold_sql}, clinic.db_path)
        assert report.acc_lf == report.acc_ex == 1.0
        assert report.breakdown == dict.fromkeys(
            ("agg_op", "agg_col", "table_joins", "cond_col_op", "cond_val"), 0.0
        )

    def test_an_unterminated_side_matches_nothing_and_clears_the_breakdown(self, clinic):
        gold = clinic.corpus[0].gold_sql
        open_quote = 'SELECT A FROM T WHERE B = "open'
        cases = [(Sample("p", "q", gold), open_quote), (Sample("g", "q", open_quote), gold)]
        for sample, pred in cases:
            report = evaluate([sample], {sample.id: pred}, clinic.db_path)
            assert report.acc_lf == report.acc_ex == 0.0
            assert set(report.breakdown.values()) == {0.0}

    def test_each_prediction_is_lexed_once(self, clinic, four_samples, lexed):
        preds = self._preds(four_samples)
        for sample in four_samples:
            sample.gold_query  # parsed, as load_corpus leaves it
        lexed.clear()
        evaluate(four_samples, preds, clinic.db_path)
        # A prediction used to be lexed for logic form and again for the breakdown,
        # and a gold that the prediction repeats was lexed again for logic form.
        assert lexed == [preds[s.id] for s in four_samples[:2]] + [preds[four_samples[2].id], four_samples[2].gold_sql]

    def test_breakdown_can_be_disabled(self, clinic, four_samples):
        report = evaluate(
            four_samples, self._preds(four_samples), clinic.db_path, with_breakdown=False
        )
        assert report.breakdown is None

    def test_report_serializes_to_json(self, clinic, four_samples):
        report = evaluate(four_samples, self._preds(four_samples), clinic.db_path)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 4
        assert payload["format_version"] == 1
        assert len(payload["per_sample"]) == 4
