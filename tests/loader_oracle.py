"""The record loaders that the one-pass loaders in ``medsql.store`` and
``medsql.predictions`` replaced, kept as oracles, as ``parser_oracle``
keeps the parser that the index parser replaced.

They check a record with generator expressions and build every sample,
paraphrase, candidate and beam through its public constructor, and a
sample's gold SQL is parsed through :attr:`Sample.gold_query`, once per
record, with no memo.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable, Iterable

from medsql.errors import DataError, RecordError
from medsql.predictions import Candidate, CandidateSet, Prediction
from medsql.records import read_jsonl, record_id
from medsql.store import Paraphrase, Sample, SchemaDef

_SAMPLE_KEYS = ("id", "question_template", "question_paraphrase", "synthetic", "sql", "schema")


def validate_records(
    numbered: Iterable[tuple[int, Any]], *, parse_gold: Callable[[Sample], bool] = lambda sample: True
) -> list[Sample]:
    samples: list[Sample] = []
    seen: set[str] = set()
    for number, rec in numbered:
        try:
            if not isinstance(rec, dict):
                raise DataError("record is not a JSON object")
            synthetic = rec.get("synthetic", [])
            if not isinstance(synthetic, list) or not all(
                isinstance(p, dict) and isinstance(p.get("text"), str) and isinstance(p.get("pivot"), str)
                for p in synthetic
            ):
                raise DataError("synthetic must be a list of objects with string text and pivot")
            missing = [k for k in ("id", "question_template", "sql") if k not in rec]
            if missing:
                raise DataError("missing field(s): " + ", ".join(missing))
            sample_id = record_id(rec["id"])
            schema = rec.get("schema")
            if schema is not None:
                schema = SchemaDef.from_dict(schema)
            question = rec["question_template"]
            if not question or not str(question).strip():
                raise DataError("question_template is empty")
            if not isinstance(question, str):
                raise DataError(f"question_template must be a string, not {type(question).__name__}")
            paraphrase = rec.get("question_paraphrase")
            if paraphrase is not None and not isinstance(paraphrase, str):
                raise DataError(f"question_paraphrase must be a string or null, not {type(paraphrase).__name__}")
            sql = rec["sql"]
            if not isinstance(sql, str):
                raise DataError(f"sql must be a string, not {type(sql).__name__}")
            sample = Sample(
                sample_id, question, sql, paraphrase, tuple(Paraphrase(p["text"], p["pivot"]) for p in synthetic),
                schema, {k: v for k, v in rec.items() if k not in _SAMPLE_KEYS},
            )
            if parse_gold(sample):
                sample.gold_query  # SQL outside the dialect is a record error
        except DataError as exc:
            raise RecordError(number, str(exc)) from exc
        if sample.id in seen:
            raise RecordError(number, f"duplicate id {sample.id!r}")
        seen.add(sample.id)
        samples.append(sample)
    return samples


def _finite_score(value: object) -> float | None:
    """A JSON number (not a boolean) as a float; None unless it is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        score = float(value)
    except OverflowError:
        return None
    return score if math.isfinite(score) else None


def load_predictions(path: str | Path | bytes) -> dict[str, Prediction]:
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
            pairs = []
            for n, c in enumerate(raw, start=1):
                if not isinstance(c, dict):
                    raise RecordError(lineno, f"candidate {n} must be an object with sql and score")
                for key in ("sql", "score"):
                    if key not in c:
                        raise RecordError(lineno, f"candidate {n}: missing key {key!r}")
                pairs.append((c["sql"], _finite_score(c["score"])))
            if any(not isinstance(sql, str) or not sql for sql, _ in pairs):
                raise RecordError(lineno, "candidate sql must be a non-empty string")
            if any(score is None for _, score in pairs):
                raise RecordError(lineno, "candidate scores must be finite numbers")
            preds[sid] = CandidateSet(sid, tuple(Candidate(sql, score) for sql, score in pairs))
        elif "sql" in rec:
            sql = rec["sql"]
            if not isinstance(sql, str) or not sql:
                raise RecordError(lineno, "sql must be a non-empty string")
            preds[sid] = sql
        else:
            raise RecordError(lineno, "record has neither sql nor candidates")
    return preds
