from __future__ import annotations

import inspect
import shutil
import sqlite3
import sys
from contextlib import closing

import pytest

import medsql.rerank as rerank_mod
from medsql import store
from medsql.errors import RecordError
from medsql.metrics import evaluate
from medsql.predictions import Candidate, CandidateSet
from medsql.rerank import RerankChoice, rerank, rerank_file
from medsql.store import open_exec_db

GOOD = "SELECT COUNT(*) FROM LAB"
GOOD_EMPTY = 'SELECT NAME FROM DEMOGRAPHIC WHERE NAME = "ZZZ nobody"'
BAD = "SELECT NOPE FROM LAB"
SLOW = "SELECT COUNT(*) FROM LAB a, LAB b, LAB c, LAB d"


def beam(*sqls: str) -> CandidateSet:
    n = len(sqls)
    return CandidateSet(
        "q1", tuple(Candidate(sql, (n - i) / n) for i, sql in enumerate(sqls))
    )


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

        def counting(conn, sql, timeout_ms=None, params=()):
            calls.append(sql)
            return original(conn, sql, timeout_ms, params)

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
