"""Prediction files: one JSON record per sample id.

A record is either a single prediction ``{"id", "sql"}`` or a scored beam
``{"id", "candidates": [{"sql", "score"}, ...]}`` whose scores are finite
JSON numbers (a string or a boolean is not a score). Beams
are kept sorted by non-increasing score; ties keep their file order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import Union

from .errors import DataError, RecordError
from .records import read_jsonl, record_id, write_jsonl


@dataclass(frozen=True)
class Candidate:
    sql: str
    score: float


@dataclass(frozen=True)
class CandidateSet:
    id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        ordered = sorted(self.candidates, key=lambda c: -c.score)
        object.__setattr__(self, "candidates", tuple(ordered))
        if not self.candidates:
            raise ValueError("a candidate set needs at least one candidate")


Prediction = Union[str, CandidateSet]


def top_sql(pred: Prediction) -> str:
    return pred if isinstance(pred, str) else pred.candidates[0].sql


def _finite_score(value: object) -> float | None:
    """A JSON number (not a boolean) as a float; None unless it is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        score = float(value)
    except OverflowError:
        return None
    return score if isfinite(score) else None


# The loader builds its candidates and beams without their constructors,
# as store.validate_records builds its samples: each builder puts the fields
# into the instance's own __dict__ in field order, as __init__ does, and a
# loaded beam is sorted by the loader instead of CandidateSet.__post_init__.
_new = object.__new__
_score = attrgetter("score")


def _build_candidate(sql: str, score: float) -> Candidate:
    candidate = _new(Candidate)
    fields = candidate.__dict__
    fields["sql"] = sql
    fields["score"] = score
    return candidate


def _build_beam(sid: str, candidates: tuple[Candidate, ...]) -> CandidateSet:
    beam = _new(CandidateSet)
    fields = beam.__dict__
    fields["id"] = sid
    fields["candidates"] = candidates
    return beam


def load_predictions(path: str | Path) -> dict[str, Prediction]:
    """Load a prediction file keyed by id, preserving file order; a
    malformed record raises :class:`RecordError` with its line number.

    A beam is checked in one pass over its candidates. The first candidate
    that is not an object with ``sql`` and ``score`` is named; failing
    that, a candidate sql that is not a non-empty string is reported before
    a score that is not a finite number. A loaded beam equals the
    :class:`CandidateSet` built from its candidates in file order: sorted
    by non-increasing score, ties in file order."""
    preds: dict[str, Prediction] = {}
    for lineno, rec in read_jsonl(path):
        if "id" not in rec:
            raise RecordError(lineno, "missing id")
        try:
            sid = record_id(rec["id"])
        except DataError as exc:
            raise RecordError(lineno, str(exc)) from None
        if sid in preds:
            raise RecordError(lineno, f"duplicate id {sid!r}")
        if "candidates" in rec:
            raw = rec["candidates"]
            if not isinstance(raw, list) or not raw:
                raise RecordError(lineno, "candidates must be a non-empty list")
            candidates = []
            bad_sql = bad_score = False
            for n, c in enumerate(raw, start=1):
                if not isinstance(c, dict):
                    raise RecordError(lineno, f"candidate {n} must be an object with sql and score")
                if "sql" not in c:
                    raise RecordError(lineno, f"candidate {n}: missing key 'sql'")
                if "score" not in c:
                    raise RecordError(lineno, f"candidate {n}: missing key 'score'")
                sql = c["sql"]
                score = c["score"]
                # A finite float, the usual score, is taken as it is.
                if type(score) is not float or not isfinite(score):
                    score = _finite_score(score)
                bad_sql = bad_sql or not isinstance(sql, str) or not sql
                bad_score = bad_score or score is None
                candidates.append(_build_candidate(sql, score))
            if bad_sql:
                raise RecordError(lineno, "candidate sql must be a non-empty string")
            if bad_score:
                raise RecordError(lineno, "candidate scores must be finite numbers")
            # A stable sort: ties keep their file order, as the constructor's.
            candidates.sort(key=_score, reverse=True)
            preds[sid] = _build_beam(sid, tuple(candidates))
        elif "sql" in rec:
            sql = rec["sql"]
            if not isinstance(sql, str) or not sql:
                raise RecordError(lineno, "sql must be a non-empty string")
            preds[sid] = sql
        else:
            raise RecordError(lineno, "record has neither sql nor candidates")
    return preds


def save_predictions(preds: dict[str, Prediction], path: str | Path) -> Path:
    records = []
    for sid, pred in preds.items():
        if isinstance(pred, str):
            records.append({"id": sid, "sql": pred})
        else:
            records.append(
                {
                    "id": sid,
                    "candidates": [{"sql": c.sql, "score": c.score} for c in pred.candidates],
                }
            )
    return write_jsonl(path, records)
