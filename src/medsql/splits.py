"""Generalization splits keyed on which table a query selects FROM.

Samples whose main (FROM) table is one of the designated tables form the
evaluation pool; a seeded uniform draw of ``test_size`` of them becomes
TEST, the remainder of the pool becomes DEV, and everything else,
including samples that merely JOIN a designated table, stays in TRAIN.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable

from .errors import DataError, EvalPoolTooSmall, MedsqlError
from .records import atomic_write_text, read_lines
from .store import Sample

DEFAULT_DESIGNATED = frozenset({"PROCEDURES", "PRESCRIPTIONS", "LAB"})
DEFAULT_TEST_SIZE = 1000

# Published MIMICSQL 2.0 split sizes, reported next to whatever a run
# produces so reproductions can be checked at a glance.
REFERENCE_SPLIT_SIZES = {"TRAIN": 8346, "DEV": 796, "TEST": 1000}


class Split(Enum):
    TRAIN = "TRAIN"
    DEV = "DEV"
    TEST = "TEST"


@dataclass(frozen=True)
class SplitSpec:
    designated_tables: frozenset[str] = DEFAULT_DESIGNATED
    test_size: int = DEFAULT_TEST_SIZE
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "designated_tables", frozenset(t.upper() for t in self.designated_tables)
        )
        if not self.designated_tables:
            raise DataError("designated_tables must be non-empty")
        if self.test_size < 0:
            raise DataError("test_size must be non-negative")


@dataclass
class SplitAssignment:
    by_id: dict[str, Split] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        out = {s.value: 0 for s in Split}
        for split in self.by_id.values():
            out[split.value] += 1
        return out

    def members(self, corpus: Iterable[Sample], split: Split) -> list[Sample]:
        """The samples of ``split``, in corpus order; a corpus sample missing
        from the assignment is a :class:`DataError`."""
        corpus = list(corpus)
        unassigned = [s.id for s in corpus if s.id not in self.by_id]
        if unassigned:
            raise DataError(f"{len(unassigned)} sample(s) missing from the assignment: {unassigned[:5]}")
        return [s for s in corpus if self.by_id[s.id] is split]

    def save(self, path: str | Path) -> Path:
        return atomic_write_text(path, "".join(f"{sid}\t{split.value}\n" for sid, split in self.by_id.items()))

    @classmethod
    def load(cls, path: str | Path) -> "SplitAssignment":
        by_id: dict[str, Split] = {}
        for lineno, line in read_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'id<TAB>split'")
            sid, name = parts
            try:
                split = Split(name)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: unknown split {name!r}") from None
            if sid in by_id:
                raise DataError(f"{path}: line {lineno}: duplicate id {sid!r}")
            by_id[sid] = split
        return cls(by_id)


def _draw_key(seed: int, sample_id: str) -> tuple[str, str]:
    digest = hashlib.sha256(f"{seed}:{sample_id}".encode("utf-8")).hexdigest()
    return (digest, sample_id)


def assign_splits(corpus: Iterable[Sample], spec: SplitSpec) -> SplitAssignment:
    """Partition a corpus according to the designated-table rule.

    The TEST draw ranks eval-pool ids by a seeded hash and takes the
    ``test_size`` smallest, which is a uniform sample that is reproducible
    across platforms. Changing the seed reshuffles only the DEV/TEST
    division; pool membership is seed-independent.
    """
    corpus = list(corpus)
    pool_ids = [s.id for s in corpus if s.gold_query.main_table in spec.designated_tables]
    if len(pool_ids) < spec.test_size:
        raise EvalPoolTooSmall(len(pool_ids), spec.test_size)
    ranked = sorted(pool_ids, key=lambda sid: _draw_key(spec.seed, sid))
    test_ids = set(ranked[: spec.test_size])
    assignment = SplitAssignment()
    for sample in corpus:
        if sample.id in test_ids:
            assignment.by_id[sample.id] = Split.TEST
        elif sample.gold_query.main_table in spec.designated_tables:
            assignment.by_id[sample.id] = Split.DEV
        else:
            assignment.by_id[sample.id] = Split.TRAIN
    return assignment


@dataclass(frozen=True)
class Violation:
    sample_id: str
    rule: str
    detail: str


def verify_split(
    corpus: Iterable[Sample], assignment: SplitAssignment, spec: SplitSpec
) -> list[Violation]:
    """Check the leakage rules and return every violation found.

    Rules: TRAIN samples must not select FROM a designated table, DEV and
    TEST samples must select FROM one, and DEV/TEST samples must not JOIN
    a designated table. The check always completes; unassigned or
    unparseable samples are themselves reported.
    """
    violations: list[Violation] = []
    for sample in corpus:
        split = assignment.by_id.get(sample.id)
        if split is None:
            violations.append(Violation(sample.id, "unassigned", "sample missing from assignment"))
            continue
        try:
            query = sample.gold_query
        except MedsqlError as exc:
            violations.append(Violation(sample.id, "unparseable-gold", str(exc)))
            continue
        designated_main = query.main_table in spec.designated_tables
        designated_joins = sorted(j.table for j in query.joins if j.table in spec.designated_tables)
        if split is Split.TRAIN and designated_main:
            violations.append(
                Violation(sample.id, "main-designated-in-train", f"FROM {query.main_table}")
            )
        if split in (Split.DEV, Split.TEST):
            if not designated_main:
                violations.append(
                    Violation(
                        sample.id, "eval-missing-designated-main", f"FROM {query.main_table}"
                    )
                )
            if designated_joins:
                violations.append(
                    Violation(
                        sample.id,
                        "joined-designated-in-eval",
                        "INNER JOIN " + ", ".join(designated_joins),
                    )
                )
    return violations


def split_report(assignment: SplitAssignment, spec: SplitSpec) -> dict[str, Any]:
    """Sizes of the produced splits plus a diff against the published
    MIMICSQL 2.0 sizes, with the pool (DEV + TEST) arithmetic spelled out."""
    counts = assignment.counts()
    pool_size = counts["DEV"] + counts["TEST"]
    diff = {name: counts[name] - expected for name, expected in REFERENCE_SPLIT_SIZES.items()}
    return {
        "sizes": counts,
        "total": sum(counts.values()),
        "eval_pool_size": pool_size,
        "test_size": spec.test_size,
        "seed": spec.seed,
        "designated_tables": sorted(spec.designated_tables),
        "reference": {
            "sizes": dict(REFERENCE_SPLIT_SIZES),
            "total": sum(REFERENCE_SPLIT_SIZES.values()),
            "diff": diff,
            "matches": all(v == 0 for v in diff.values()),
            "note": (
                "reference DEV+TEST implies an eval pool of "
                f"{REFERENCE_SPLIT_SIZES['DEV'] + REFERENCE_SPLIT_SIZES['TEST']}; "
                f"this run's pool is {pool_size} and DEV = pool - test_size = "
                f"{pool_size - spec.test_size}"
            ),
        },
    }
