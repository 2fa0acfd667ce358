"""augment's worker map, the connection helpers in medsql.store, and the
connection and session each function that executes SQL runs on."""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from medsql import store
from medsql.augment import map_in_order
from medsql.metrics import evaluate, execution_match
from medsql.predictions import Candidate, CandidateSet
from medsql.rerank import rerank, rerank_file
from medsql.store import exec_connection, open_exec_db

from .conftest import peak_bytes


def _is_closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


@pytest.fixture()
def opened(monkeypatch):
    """Every connection open_exec_db hands out during the test."""
    conns: list[sqlite3.Connection] = []
    original = store.open_exec_db

    def recording(path, **kwargs):
        conn = original(path, **kwargs)
        conns.append(conn)
        return conn

    monkeypatch.setattr(store, "open_exec_db", recording)
    return conns


@pytest.fixture()
def guarded(monkeypatch):
    """Every connection store._guard installs the authorizer on during the test."""
    conns: list[sqlite3.Connection] = []
    original = store._guard

    def recording(conn):
        conns.append(conn)
        original(conn)

    monkeypatch.setattr(store, "_guard", recording)
    return conns


class TestMapInOrder:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_come_back_in_input_order(self, jobs):
        def slower_for_earlier(i):
            # Under threads later items finish first; the result order must not follow.
            time.sleep((20 - i) / 2000)
            return i * i

        assert map_in_order(slower_for_earlier, list(range(20)), jobs) == [i * i for i in range(20)]

    def test_one_job_runs_in_the_calling_thread(self):
        caller = threading.get_ident()
        assert map_in_order(lambda _: threading.get_ident(), [1, 2, 3], 1) == [caller] * 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_error_in_work_propagates(self, jobs):
        def work(i):
            if i == 3:
                raise ValueError("boom")
            return i

        with pytest.raises(ValueError, match="boom"):
            map_in_order(work, list(range(6)), jobs)


class TestExecConnection:
    def test_a_borrowed_connection_stays_open(self, clinic, opened):
        conn = sqlite3.connect(clinic.db_path)
        try:
            with exec_connection(conn) as got:
                assert got.conn is conn
            assert not _is_closed(conn)
            assert opened == []
        finally:
            conn.close()

    def test_an_owned_connection_is_closed_also_on_error(self, clinic, opened):
        with pytest.raises(RuntimeError):
            with exec_connection(clinic.db_path):
                raise RuntimeError("body failed")
        assert len(opened) == 1 and _is_closed(opened[0])

    def test_an_opened_connection_belongs_to_its_thread(self, clinic):
        with closing(open_exec_db(clinic.db_path)) as conn, ThreadPoolExecutor(1) as pool:
            with pytest.raises(sqlite3.ProgrammingError, match="same thread"):
                pool.submit(conn.execute, "SELECT 1").result()
            assert conn.execute("SELECT COUNT(*) FROM LAB").fetchone()


BAD = "SELECT NOPE FROM LAB"

# The four functions that execute SQL, each called on the first samples of
# the clinic with a prediction that fails and one that does not.
ENTRY_POINTS = {
    "evaluate": lambda clinic, db: evaluate(
        clinic.corpus[:6], {s.id: s.gold_sql if i % 2 else BAD for i, s in enumerate(clinic.corpus[:6])}, db
    ),
    "rerank_file": lambda clinic, db: rerank_file(
        {s.id: CandidateSet(s.id, (Candidate(BAD, 0.9), Candidate(s.gold_sql, 0.5))) for s in clinic.corpus[:6]}, db
    ),
    "rerank": lambda clinic, db: rerank(
        CandidateSet("q", (Candidate(BAD, 0.9), Candidate(clinic.corpus[0].gold_sql, 0.5))), db
    ),
    "execution_match": lambda clinic, db: execution_match(clinic.corpus[0].gold_sql, clinic.corpus[1].gold_sql, db),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
class TestOneConnectionPerCall:
    """Each function takes a database path or a connection, and runs every
    query of one call on one connection."""

    def test_a_path_opens_one_connection_and_closes_it(self, clinic, opened, name):
        ENTRY_POINTS[name](clinic, clinic.db_path)
        assert len(opened) == 1 and _is_closed(opened[0])

    def test_a_borrowed_connection_gives_the_result_of_a_path(self, clinic, name):
        with closing(sqlite3.connect(clinic.db_path)) as conn:
            assert ENTRY_POINTS[name](clinic, conn) == ENTRY_POINTS[name](clinic, clinic.db_path)

    def test_a_borrowed_connection_stays_open(self, clinic, opened, name):
        with closing(sqlite3.connect(clinic.db_path)) as conn:
            ENTRY_POINTS[name](clinic, conn)
            assert not _is_closed(conn)
        assert opened == []

    def test_a_path_is_guarded_once(self, clinic, guarded, name):
        # rerank_file and evaluate used to guard their connection again for every beam or sample.
        ENTRY_POINTS[name](clinic, clinic.db_path)
        assert len(guarded) == 1

    def test_a_borrowed_connection_is_guarded_once(self, clinic, guarded, name):
        with closing(sqlite3.connect(clinic.db_path)) as conn:
            ENTRY_POINTS[name](clinic, conn)
        assert guarded == [conn]

    def test_a_session_is_used_as_it_is(self, clinic, opened, guarded, name):
        with exec_connection(clinic.db_path) as session:
            opened.clear()
            guarded.clear()
            got = ENTRY_POINTS[name](clinic, session)
            assert (opened, guarded) == ([], [])
            assert not _is_closed(session.conn)
        assert got == ENTRY_POINTS[name](clinic, clinic.db_path)


class TestExecution:
    SLOW = "SELECT COUNT(*) FROM LAB a, LAB b, LAB c, LAB d"

    def test_a_session_keeps_its_own_bound(self, clinic):
        beam = CandidateSet("q", (Candidate(self.SLOW, 0.9), Candidate(clinic.corpus[0].gold_sql, 0.5)))
        with exec_connection(clinic.db_path, timeout_ms=50) as session:
            assert rerank(beam, session, timeout_ms=600_000).chosen_rank == 2
            assert execution_match(self.SLOW, clinic.corpus[0].gold_sql, session, timeout_ms=None).gold_error

    @pytest.mark.parametrize("sql", [
        BAD, "PRAGMA user_version = 7", "SELECT random()", "SELECT 1; SELECT 2", "SELECT '\ud800'", SLOW,
    ], ids=["column", "pragma", "random", "two-statements", "lone-surrogate", "timeout"])
    def test_a_failed_statement_is_none(self, clinic, sql):
        with exec_connection(clinic.db_path, timeout_ms=50) as session:
            assert session.rows(sql) is None
            assert session.rows("SELECT COUNT(*) FROM LAB WHERE rowid > ?", (90,)) == [(10,)]

    @pytest.mark.parametrize("keep", [0, 1, 3])
    def test_rows_keeps_the_first_rows_it_is_asked_for(self, clinic, keep):
        with exec_connection(clinic.db_path) as session:
            assert session.rows("SELECT rowid FROM LAB ORDER BY rowid", keep=keep) == [(i,) for i in range(1, keep + 1)]

    def test_rows_holds_at_most_a_row_or_two_past_the_kept_ones(self, clinic):
        # Twenty 1 MB rows: stepping through them 256 at a time held all of them.
        twenty = "SELECT zeroblob(1000000), rowid FROM LAB WHERE rowid <= 20 ORDER BY rowid"
        kept = []
        with exec_connection(clinic.db_path) as session:
            peak = peak_bytes(lambda: kept.extend(session.rows(twenty, keep=1)))
        assert [i for _, i in kept] == [1]
        assert peak < 5_000_000

    def test_a_failed_statement_reaches_every_caller_as_none(self, clinic, monkeypatch):
        # rerank asks a session's outcome; eval and the lookup ask its rows.
        seen = []
        for name in ("rows", "outcome"):

            def recording(session, sql, *args, _ask=getattr(store.Execution, name), **kwargs):
                seen.append((sql, _ask(session, sql, *args, **kwargs)))
                return seen[-1][1]

            monkeypatch.setattr(store.Execution, name, recording)
        gold = clinic.corpus[0].gold_sql
        with exec_connection(clinic.db_path) as session:
            assert rerank(CandidateSet("q", (Candidate(BAD, 0.9), Candidate(gold, 0.5))), session).chosen_rank == 2
            assert execution_match(gold, BAD, session).pred_error
            # A lone surrogate cannot be bound, so the point query fails and the loaded values answer.
            assert "\ud800" not in store.build_value_lookup(session, clinic.schema).column("LAB", "LABEL")
        failed = [sql for sql, got in seen if got is None]
        assert failed == [BAD, BAD, seen[-1][0]] and "LIMIT 1" in seen[-1][0]
        assert all(got is not None for sql, got in seen if sql not in failed)
