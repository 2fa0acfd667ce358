from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsql.errors import DataError, EvalPoolTooSmall
from medsql.splits import (
    DEFAULT_DESIGNATED,
    REFERENCE_SPLIT_SIZES,
    Split,
    SplitAssignment,
    SplitSpec,
    assign_splits,
    split_report,
    verify_split,
)
from medsql.store import Sample

from .reference import ref_join_tables, ref_main_table

SPEC = SplitSpec(test_size=400, seed=7)


def pool_ids(corpus):
    return {
        s.id for s in corpus if ref_main_table(s.gold_sql) in DEFAULT_DESIGNATED
    }


class TestAssign:
    def test_counts(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        counts = assignment.counts()
        pool = pool_ids(clinic.corpus)
        assert counts["TEST"] == 400
        assert counts["DEV"] == len(pool) - 400
        assert counts["TRAIN"] == len(clinic.corpus) - len(pool)

    def test_partition(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        assert set(assignment.by_id) == {s.id for s in clinic.corpus}

    def test_deterministic(self, clinic):
        first = assign_splits(clinic.corpus, SPEC)
        second = assign_splits(clinic.corpus, SPEC)
        assert first.by_id == second.by_id

    def test_eval_pool_membership_matches_string_scan(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        pool = pool_ids(clinic.corpus)
        for sample in clinic.corpus:
            split = assignment.by_id[sample.id]
            assert (split in (Split.DEV, Split.TEST)) == (sample.id in pool)

    def test_changing_seed_moves_only_the_dev_test_division(self, clinic):
        base = assign_splits(clinic.corpus, SPEC)
        moved = assign_splits(clinic.corpus, SplitSpec(test_size=400, seed=8))

        def eval_ids(a):
            return {i for i, s in a.by_id.items() if s in (Split.DEV, Split.TEST)}

        def test_ids(a):
            return {i for i, s in a.by_id.items() if s is Split.TEST}

        assert eval_ids(base) == eval_ids(moved)
        assert test_ids(base) != test_ids(moved)
        train = {i for i, s in base.by_id.items() if s is Split.TRAIN}
        assert train == {i for i, s in moved.by_id.items() if s is Split.TRAIN}

    def test_pool_too_small(self, clinic):
        with pytest.raises(EvalPoolTooSmall):
            assign_splits(clinic.corpus, SplitSpec(test_size=10_000, seed=7))

    def test_zero_test_size_puts_whole_pool_in_dev(self, clinic):
        assignment = assign_splits(clinic.corpus, SplitSpec(test_size=0, seed=7))
        counts = assignment.counts()
        assert counts["TEST"] == 0
        assert counts["DEV"] == len(pool_ids(clinic.corpus))

    def test_designated_tables_are_configurable(self, clinic):
        spec = SplitSpec(designated_tables=("DIAGNOSES",), test_size=10, seed=7)
        assignment = assign_splits(clinic.corpus, spec)
        for sample in clinic.corpus:
            in_eval = assignment.by_id[sample.id] in (Split.DEV, Split.TEST)
            assert in_eval == (ref_main_table(sample.gold_sql) == "DIAGNOSES")


class TestVerify:
    def test_clean_assignment_has_no_violations(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        assert verify_split(clinic.corpus, assignment, SPEC) == []

    def test_designated_main_sample_in_train_is_flagged(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        moved = dict(assignment.by_id)
        victim = next(
            s.id for s in clinic.corpus
            if ref_main_table(s.gold_sql) in DEFAULT_DESIGNATED
        )
        moved[victim] = Split.TRAIN
        violations = verify_split(clinic.corpus, SplitAssignment(moved), SPEC)
        assert any(
            v.sample_id == victim and v.rule == "main-designated-in-train"
            for v in violations
        )

    def test_joined_designated_sample_in_eval_is_flagged(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        moved = dict(assignment.by_id)
        victim = next(
            s.id for s in clinic.corpus
            if ref_main_table(s.gold_sql) not in DEFAULT_DESIGNATED
            and ref_join_tables(s.gold_sql) & set(DEFAULT_DESIGNATED)
        )
        moved[victim] = Split.TEST
        violations = verify_split(clinic.corpus, SplitAssignment(moved), SPEC)
        rules = {v.rule for v in violations if v.sample_id == victim}
        assert "joined-designated-in-eval" in rules
        assert "eval-missing-designated-main" in rules

    def test_unparseable_gold_is_flagged(self):
        # A Sample built directly skips load_corpus's validating parse.
        good = Sample("good", "q", "SELECT COUNT(*) FROM LAB")
        bad = Sample("bad", "q", "SELECT LAB.LABEL FROM LAB GROUP BY LAB.LABEL")
        assignment = SplitAssignment({"good": Split.DEV, "bad": Split.DEV})
        violations = verify_split([good, bad], assignment, SPEC)
        assert [(v.sample_id, v.rule) for v in violations] == [("bad", "unparseable-gold")]
        assert "GROUP" in violations[0].detail

    def test_unassigned_sample_is_flagged(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        partial = dict(assignment.by_id)
        dropped = clinic.corpus[0].id
        del partial[dropped]
        violations = verify_split(clinic.corpus, SplitAssignment(partial), SPEC)
        assert [v.rule for v in violations if v.sample_id == dropped] == ["unassigned"]


class TestMembers:
    def test_members_come_in_corpus_order(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        for split in Split:
            members = assignment.members(reversed(clinic.corpus), split)
            assert [s.id for s in members] == [
                s.id for s in reversed(clinic.corpus) if assignment.by_id[s.id] is split
            ]

    def test_a_sample_missing_from_the_assignment_is_a_data_error(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        partial = SplitAssignment({sid: split for sid, split in assignment.by_id.items()
                                   if sid not in {clinic.corpus[3].id, clinic.corpus[5].id}})
        with pytest.raises(DataError, match=r"2 sample\(s\) missing from the assignment"):
            partial.members(clinic.corpus, Split.TRAIN)


class TestAssignmentIo:
    def test_save_load_round_trip(self, clinic, tmp_path):
        assignment = assign_splits(clinic.corpus, SPEC)
        path = tmp_path / "splits.tsv"
        assignment.save(path)
        assert SplitAssignment.load(path).by_id == assignment.by_id

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("a\tTEST\nb\n", encoding="utf-8")
        with pytest.raises(DataError):
            SplitAssignment.load(path)

    def test_unknown_split_name_rejected(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("a\tVALIDATION\n", encoding="utf-8")
        with pytest.raises(DataError):
            SplitAssignment.load(path)


class TestReport:
    def test_report_carries_reference_sizes(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        report = split_report(assignment, SPEC)
        assert report["eval_pool_size"] == len(pool_ids(clinic.corpus))
        assert report["reference"]["sizes"] == REFERENCE_SPLIT_SIZES
        assert report["sizes"]["TEST"] == 400
        assert report["reference"]["matches"] is False
        diff = report["reference"]["diff"]
        assert diff["TEST"] == 400 - REFERENCE_SPLIT_SIZES["TEST"]

    def test_report_totals_are_consistent(self, clinic):
        assignment = assign_splits(clinic.corpus, SPEC)
        report = split_report(assignment, SPEC)
        assert report["eval_pool_size"] == len(pool_ids(clinic.corpus))
        assert report["total"] == sum(report["sizes"].values()) == len(clinic.corpus)


def _synthetic_sample(index: int, main: str, joined: str | None) -> Sample:
    sql = f"SELECT COUNT(*) FROM {main}"
    if joined:
        sql += f" INNER JOIN {joined} ON {main}.K = {joined}.K"
    return Sample(f"s{index}", "question", sql)


table_names = st.sampled_from(["PROCEDURES", "PRESCRIPTIONS", "LAB", "DEMOGRAPHIC", "DIAGNOSES"])


@st.composite
def random_corpora(draw):
    n = draw(st.integers(4, 40))
    samples = []
    for index in range(n):
        main = draw(table_names)
        joined = draw(st.none() | table_names.filter(lambda t: t != main))
        # Designated tables in JOINED position of eval-pool samples would
        # make the pool rules contradictory; keep generated joins neutral.
        if main in DEFAULT_DESIGNATED and joined in DEFAULT_DESIGNATED:
            joined = None
        samples.append(_synthetic_sample(index, main, joined))
    return samples


@given(random_corpora(), st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_split_properties_hold_on_random_corpora(corpus, seed):
    pool = {s.id for s in corpus if ref_main_table(s.gold_sql) in DEFAULT_DESIGNATED}
    spec = SplitSpec(test_size=min(2, len(pool)), seed=seed)
    assignment = assign_splits(corpus, spec)
    assert set(assignment.by_id) == {s.id for s in corpus}
    assert verify_split(corpus, assignment, spec) == []
    counts = assignment.counts()
    assert counts["TEST"] == spec.test_size
    assert counts["DEV"] == len(pool) - spec.test_size
