"""The shared worker map and the connection helpers in medsql.store."""

from __future__ import annotations

import sqlite3
import sys
import threading
import time

import pytest

from medsql import store
from medsql.store import exec_connection, map_in_order, map_on_db


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


class TestWorkerConnections:
    """The per-thread connections that map_on_db hands to its work."""

    def test_nothing_is_opened_until_asked(self, clinic, opened):
        assert map_on_db(lambda conn, item: item, [], clinic.db_path, 2) == []
        assert opened == []

    def test_one_connection_per_thread(self, clinic, opened):
        assert map_on_db(lambda conn, _: conn, [0, 1, 2], clinic.db_path, 1) == [opened[0]] * 3
        barrier = threading.Barrier(2)

        def work(conn, _):
            barrier.wait(timeout=5)
            return conn

        conns = map_on_db(work, [0, 1], clinic.db_path, 2)
        assert conns[0] is not conns[1]
        assert len(opened) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_connection_is_closed_on_exit(self, clinic, opened, jobs):
        def work(conn, i):
            return i, conn.execute("SELECT COUNT(*) FROM LAB").fetchone()

        rows = map_on_db(work, range(8), clinic.db_path, jobs)
        assert [i for i, _ in rows] == list(range(8))
        assert len({count for _, count in rows}) == 1
        assert opened and all(_is_closed(c) for c in opened)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_connection_is_closed_when_work_raises(self, clinic, opened, jobs):
        def work(conn, i):
            if i == 5:
                raise RuntimeError("worker failed")
            return i

        with pytest.raises(RuntimeError, match="worker failed"):
            map_on_db(work, list(range(8)), clinic.db_path, jobs)
        assert opened and all(_is_closed(c) for c in opened)

    def test_stress_more_threads_than_cores(self, clinic, opened):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            owners = map_on_db(lambda conn, _: (threading.get_ident(), id(conn)), range(400), clinic.db_path, 8)
        finally:
            sys.setswitchinterval(previous)
        # One connection per worker thread, and every one of them recorded and closed.
        assert len(set(owners)) == len({thread for thread, _ in owners}) == len(opened)
        assert all(_is_closed(c) for c in opened)


class TestExecConnection:
    def test_a_borrowed_connection_stays_open(self, clinic, opened):
        conn = sqlite3.connect(clinic.db_path)
        try:
            with exec_connection(conn) as got:
                assert got is conn
            assert not _is_closed(conn)
            assert opened == []
        finally:
            conn.close()

    def test_an_owned_connection_is_closed_also_on_error(self, clinic, opened):
        with pytest.raises(RuntimeError):
            with exec_connection(clinic.db_path):
                raise RuntimeError("body failed")
        assert len(opened) == 1 and _is_closed(opened[0])
