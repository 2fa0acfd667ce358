from __future__ import annotations

import inspect
import shutil
import sqlite3
import sys
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medsql.rerank as rerank_mod
from medsql import store
from medsql.errors import QueryExecutionError, RecordError
from medsql.metrics import evaluate
from medsql.predictions import Candidate, CandidateSet
from medsql.rerank import RerankChoice, rerank, rerank_file
from medsql.store import exec_connection, open_exec_db, run_select

from .conftest import peak_bytes
from .reference import ref_execute

GOOD = "SELECT COUNT(*) FROM LAB"
GOOD_EMPTY = 'SELECT NAME FROM DEMOGRAPHIC WHERE NAME = "ZZZ nobody"'
BAD = "SELECT NOPE FROM LAB"
SLOW = "SELECT COUNT(*) FROM LAB a, LAB b, LAB c, LAB d"
# Fails as it runs, not as it is prepared, so that SQLite's trace sees it.
OVERFLOW = "SELECT abs(-9223372036854775807 - 1) FROM LAB"
# Every row of four tables paired: far more rows than any timeout in these tests lets it return.
CROSS_JOIN = "SELECT a.*, b.*, c.*, d.* FROM LAB a, LAB b, LAB c, LAB d"


def beam(*sqls: str) -> CandidateSet:
    n = len(sqls)
    return CandidateSet(
        "q1", tuple(Candidate(sql, (n - i) / n) for i, sql in enumerate(sqls))
    )


def traced(conn: sqlite3.Connection) -> list[str]:
    """Every statement that SQLite runs on ``conn`` from now on, in order."""
    statements: list[str] = []
    conn.set_trace_callback(statements.append)
    return statements


def test_the_package_attribute_is_the_submodule():
    # The package used to re-export the function under the submodule's name.
    assert inspect.ismodule(rerank_mod)
    assert rerank_mod.rerank is rerank


class TestRerank:
    @pytest.mark.parametrize("rank", range(1, 11))
    def test_first_executable_candidate_wins(self, clinic, rank):
        sqls = [BAD] * (rank - 1) + [GOOD] + [GOOD] * (10 - rank)
        choice = rerank(beam(*sqls), clinic.db_path)
        assert choice.chosen_rank == rank
        assert choice.sql == GOOD
        assert not choice.all_failed

    def test_all_failing_falls_back_to_rank_one(self, clinic):
        choice = rerank(beam(BAD, BAD, BAD), clinic.db_path)
        assert choice.chosen_rank == 1
        assert choice.sql == BAD
        assert choice.all_failed

    def test_candidates_are_tried_in_descending_score_order(self, clinic):
        cs = CandidateSet(
            "q1",
            (
                Candidate(BAD, 0.1),
                Candidate(GOOD, 0.9),
            ),
        )
        choice = rerank(cs, clinic.db_path)
        assert choice.chosen_rank == 1
        assert choice.sql == GOOD

    def test_equal_scores_keep_input_order(self, clinic):
        first = "SELECT COUNT(*) FROM PRESCRIPTIONS"
        cs = CandidateSet("q1", (Candidate(first, 0.5), Candidate(GOOD, 0.5)))
        choice = rerank(cs, clinic.db_path)
        assert choice.sql == first
        assert choice.chosen_rank == 1

    def test_require_nonempty_skips_empty_results(self, clinic):
        choice = rerank(beam(GOOD_EMPTY, GOOD), clinic.db_path, require_nonempty=True)
        assert choice.chosen_rank == 2
        assert choice.sql == GOOD

    def test_empty_results_win_by_default(self, clinic):
        choice = rerank(beam(GOOD_EMPTY, GOOD), clinic.db_path)
        assert choice.chosen_rank == 1
        assert choice.sql == GOOD_EMPTY

    def test_execution_stops_at_first_success(self, clinic, monkeypatch):
        calls = []
        original = store.run_select

        def counting(conn, sql, timeout_ms=None, params=(), **bounds):
            calls.append(sql)
            return original(conn, sql, timeout_ms, params, **bounds)

        monkeypatch.setattr(store, "run_select", counting)
        with closing(open_exec_db(clinic.db_path)) as conn:
            rerank(beam(GOOD, BAD, BAD), conn)
        assert calls == [GOOD]

    @pytest.mark.parametrize("require_nonempty", [False, True])
    @pytest.mark.parametrize(
        "top", ["ATTACH DATABASE '{planted}' AS x", "PRAGMA table_info(LAB)"], ids=["attach", "pragma"]
    )
    def test_attach_or_pragma_never_wins(self, clinic, tmp_path, top, require_nonempty):
        planted = tmp_path / "planted.db"
        choice = rerank(beam(top.format(planted=planted), GOOD), clinic.db_path, require_nonempty=require_nonempty)
        assert (choice.chosen_rank, choice.sql, choice.all_failed) == (2, GOOD, False)
        assert not planted.exists()

    def test_a_borrowed_connection_is_guarded(self, clinic, tmp_path):
        # A caller's own connection used to run the ATTACH, which won at rank 1 and created the file.
        db = shutil.copy(clinic.db_path, tmp_path / "clinic.db")
        planted = tmp_path / "planted.db"
        with closing(sqlite3.connect(db)) as conn:
            choice = rerank(beam(f"ATTACH DATABASE '{planted}' AS x", GOOD), conn)
        assert (choice.chosen_rank, choice.sql, choice.all_failed) == (2, GOOD, False)
        assert not planted.exists()

    def test_a_borrowed_connection_loses_its_progress_handler(self, clinic):
        # The per-query bound replaces the caller's handler and cannot restore it.
        fired = []
        cross_join = "SELECT COUNT(*) FROM LAB a, LAB b"
        with closing(open_exec_db(clinic.db_path)) as conn:
            conn.set_progress_handler(lambda: fired.append(1), 100)
            conn.execute(cross_join).fetchall()
            assert fired
            fired.clear()
            assert rerank(beam(GOOD), conn).chosen_rank == 1
            conn.execute(cross_join).fetchall()
        assert not fired

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="Python 3.10 cannot set an SQLite limit")
    @pytest.mark.parametrize("borrowed", [False, True], ids=["path", "borrowed"])
    @pytest.mark.parametrize("bomb", [
        "SELECT randomblob(20000000)",
        "SELECT zeroblob(20000000)",
        "SELECT replace(printf('%.*c', 5000000, 'x'), 'x', 'yyyyy')",
    ], ids=["randomblob", "zeroblob", "replace-printf"])
    def test_a_value_over_the_bound_fails_its_candidate(self, clinic, bomb, borrowed):
        # Each built a value of 20-25 MB, which won the beam at rank 1 and scored as a wrong result.
        sample = clinic.corpus[0]
        with closing(sqlite3.connect(clinic.db_path)) as conn:
            db = conn if borrowed else clinic.db_path
            choice = rerank(beam(bomb, GOOD), db)
            (scored,) = evaluate([sample], {sample.id: bomb}, db).per_sample
        assert (choice.chosen_rank, choice.sql, choice.all_failed) == (2, GOOD, False)
        assert (scored.ex_match, scored.gold_error, scored.pred_error) == (False, False, True)

    def test_a_value_under_the_bound_is_a_result(self, clinic):
        assert rerank(beam("SELECT length(zeroblob(9000000))", GOOD), clinic.db_path).chosen_rank == 1

    def test_a_candidate_that_calls_random_gives_one_choice(self, clinic):
        # Its row came back about half the time, so 40 runs of one beam chose rank 1 and rank 2.
        coin = "SELECT DEMOGRAPHIC.NAME FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.rowid = 1 AND abs(random()) % 2 = 0"
        with closing(open_exec_db(clinic.db_path)) as conn:
            choices = {rerank(beam(coin, GOOD), conn, require_nonempty=True) for _ in range(40)}
        assert choices == {RerankChoice("q1", GOOD, 2, False)}

    def test_timed_out_candidate_counts_as_failed(self, clinic):
        choice = rerank(beam(SLOW, GOOD), clinic.db_path, timeout_ms=50)
        assert choice.chosen_rank == 2
        assert choice.sql == GOOD


class TestRerankFile:
    def _beams(self, samples):
        return {
            s.id: CandidateSet(
                s.id, (Candidate(BAD, 0.9), Candidate(s.gold_sql, 0.5))
            )
            for s in samples
        }

    def test_input_order_is_preserved(self, clinic):
        beams = self._beams(clinic.corpus[:10])
        choices = rerank_file(beams, clinic.db_path)
        assert list(choices) == list(beams)

    def test_every_choice_recovers_the_gold_candidate(self, clinic):
        samples = clinic.corpus[:10]
        choices = rerank_file(self._beams(samples), clinic.db_path)
        for sample in samples:
            assert choices[sample.id].sql == sample.gold_sql
            assert choices[sample.id].chosen_rank == 2

    def test_single_sql_record_is_rejected(self, clinic):
        with pytest.raises(RecordError):
            rerank_file({"q1": GOOD}, clinic.db_path)

    def test_reranking_never_hurts_execution_accuracy(self, clinic):
        samples = clinic.corpus[:30]
        beams = self._beams(samples)
        raw = {sid: cs.candidates[0].sql for sid, cs in beams.items()}
        reranked = rerank_file(beams, clinic.db_path)
        chosen = {sid: choice.sql for sid, choice in reranked.items()}
        acc_raw = evaluate(samples, raw, clinic.db_path).acc_ex
        acc_reranked = evaluate(samples, chosen, clinic.db_path).acc_ex
        assert acc_reranked >= acc_raw
        assert acc_reranked == 1.0


class TestOneRunPerText:
    def beams(self, n: int) -> dict[str, CandidateSet]:
        cands = (Candidate(BAD, 0.9), Candidate(OVERFLOW, 0.7), Candidate(GOOD_EMPTY, 0.5), Candidate(GOOD, 0.1))
        return {f"q{i}": CandidateSet(f"q{i}", cands) for i in range(n)}

    def test_rerank_file_runs_each_distinct_text_once(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn:
            statements = traced(conn)
            choices = rerank_file(self.beams(5), conn, require_nonempty=True)
        assert {c.chosen_rank for c in choices.values()} == {4}
        # SQLite traces a statement as it runs, so BAD, which fails as it is prepared, is not seen.
        assert Counter(statements) == {OVERFLOW: 1, GOOD_EMPTY: 1, GOOD: 1}

    @pytest.mark.parametrize("sql", [BAD, OVERFLOW, SLOW], ids=["prepare", "run", "timeout"])
    def test_a_cached_failure_raises_again_with_the_same_message(self, clinic, sql):
        memo = {}
        with closing(open_exec_db(clinic.db_path)) as conn:
            statements = traced(conn)
            with pytest.raises(QueryExecutionError) as first:
                run_select(conn, sql, 50, keep=1, memo=memo)
            with pytest.raises(QueryExecutionError) as again:
                run_select(conn, sql, 50, keep=1, memo=memo)
        assert str(again.value) == str(first.value) == memo[sql, 1]
        assert statements == ([] if sql == BAD else [sql])

    def test_a_repeat_returns_as_many_empty_rows_as_were_kept(self, clinic):
        sql = "SELECT rowid FROM LAB ORDER BY rowid"
        memo = {}
        with closing(open_exec_db(clinic.db_path)) as conn:
            statements = traced(conn)
            answers = [run_select(conn, sql, keep=keep, memo=memo) for keep in (2, 2, 3)]
        assert answers == [[(1,), (2,)], [(), ()], [(1,), (2,), (3,)]]
        assert memo == {(sql, 2): 2, (sql, 3): 3}
        assert statements == [sql, sql]

    @pytest.mark.parametrize("kwargs", [{"keep": None}, {"keep": 1, "params": (1,)}], ids=["no-keep", "params"])
    def test_a_memo_needs_a_keep_and_takes_no_params(self, clinic, kwargs):
        with closing(open_exec_db(clinic.db_path)) as conn, pytest.raises(ValueError, match="memo"):
            run_select(conn, "SELECT ?", memo={}, **kwargs)

    def test_the_memo_holds_no_value(self, clinic):
        # Each beam's top candidate returns one 2 MB row: a memo of rows held all ten at once.
        beams = {
            f"q{i}": CandidateSet(f"q{i}", (Candidate(f"SELECT zeroblob(2000000), {i}", 0.9), Candidate(GOOD, 0.1)))
            for i in range(10)
        }
        choices = {}
        with closing(open_exec_db(clinic.db_path)) as conn:
            peak = peak_bytes(lambda: choices.update(rerank_file(beams, conn)))
        assert {c.chosen_rank for c in choices.values()} == {1}
        assert peak < 5_000_000

    def test_a_session_answers_a_repeat_from_its_first_run(self, clinic):
        with exec_connection(clinic.db_path, timeout_ms=50) as session:
            statements = traced(session.conn)
            answers = [session.outcome(sql) for sql in (GOOD, GOOD_EMPTY, OVERFLOW, SLOW) * 2]
        assert answers == [True, False, None, None] * 2
        assert statements == [GOOD, GOOD_EMPTY, OVERFLOW, SLOW]

    def test_two_sessions_share_nothing(self, clinic):
        runs = []
        for _ in range(2):
            with exec_connection(clinic.db_path) as session:
                runs.append(traced(session.conn))
                rerank_file(self.beams(2), session, require_nonempty=True)
        assert runs == [[OVERFLOW, GOOD_EMPTY, GOOD]] * 2

    def test_two_calls_on_a_borrowed_connection_share_nothing(self, clinic, tmp_path):
        # Another writer may change the file between two calls, so the second sees its row.
        db = shutil.copy(clinic.db_path, tmp_path / "clinic.db")
        beams = {"q": CandidateSet("q", (Candidate(GOOD_EMPTY, 0.9), Candidate(GOOD, 0.1)))}
        with closing(sqlite3.connect(db)) as conn, closing(sqlite3.connect(db)) as writer:
            statements = traced(conn)
            before = rerank_file(beams, conn, require_nonempty=True)["q"].chosen_rank
            with writer:
                writer.execute("INSERT INTO DEMOGRAPHIC (NAME) VALUES ('ZZZ nobody')")
            after = rerank_file(beams, conn, require_nonempty=True)["q"].chosen_rank
        assert (before, after) == (2, 1)
        assert statements == [GOOD_EMPTY, GOOD, GOOD_EMPTY]

    @pytest.mark.parametrize("borrowed", [False, True], ids=["session", "borrowed"])
    def test_a_cross_join_candidate_holds_no_rows(self, clinic, borrowed):
        # Every row it returned before the timeout was held: tens of MB for this join.
        choices = []
        with closing(open_exec_db(clinic.db_path)) as conn:
            db = conn if borrowed else store.Execution(conn, 300)
            peak = peak_bytes(lambda: choices.append(rerank(beam(CROSS_JOIN, GOOD), db, timeout_ms=300)))
        assert choices == [RerankChoice("q1", GOOD, 2, False)]
        assert peak < 2_000_000


# Candidates that run, return no row or fail, and texts that differ from another only in spacing.
ORACLE_POOL = [
    GOOD, GOOD.replace("*", "* "), GOOD_EMPTY, BAD, OVERFLOW, "SELECT 1 FROM", "SELECT NAME FROM DEMOGRAPHIC LIMIT 0",
    "SELECT DRUG FROM PRESCRIPTIONS WHERE ROUTE = 'IV'", "SELECT NOPE FROM DEMOGRAPHIC",
]


@pytest.fixture(scope="module")
def conns(clinic):
    """A connection to lend ``rerank_file``, and one for the reference to run on."""
    with closing(open_exec_db(clinic.db_path)) as lent, \
            closing(sqlite3.connect(f"file:{clinic.db_path}?mode=ro", uri=True)) as reference:
        yield lent, reference


def reference_choice(conn: sqlite3.Connection, cs: CandidateSet, require_nonempty: bool) -> RerankChoice:
    """The choice of a reranker that runs every candidate it tries, as it tries it."""
    for rank, cand in enumerate(cs.candidates, start=1):
        state, rows = ref_execute(conn, cand.sql)
        if state == "ok" and (rows or not require_nonempty):
            return RerankChoice(cs.id, cand.sql, rank, False)
    return RerankChoice(cs.id, cs.candidates[0].sql, 1, True)


@settings(deadline=None)
@given(
    drawn=st.lists(st.lists(st.tuples(st.sampled_from(ORACLE_POOL), st.sampled_from([0.1, 0.5, 0.9])),
                            min_size=1, max_size=5), min_size=1, max_size=6),
    require_nonempty=st.booleans(),
)
def test_rerank_file_agrees_with_a_memo_free_oracle(conns, drawn, require_nonempty):
    lent, reference = conns
    beams = {f"q{i}": CandidateSet(f"q{i}", tuple(Candidate(sql, score) for sql, score in cands))
             for i, cands in enumerate(drawn)}
    expected = {sid: reference_choice(reference, cs, require_nonempty) for sid, cs in beams.items()}
    assert rerank_file(beams, lent, require_nonempty=require_nonempty) == expected
