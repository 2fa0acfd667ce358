"""Execution-guided reranking of candidate beams.

Candidates are tried from highest to lowest score; the first one that
executes without error (and, optionally, returns at least one row) wins.
If every candidate fails, the rank-1 candidate is returned with
``all_failed`` set so downstream scoring still has a prediction.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path

from .errors import QueryExecutionError, RecordError
from .predictions import CandidateSet, Prediction
from .store import DEFAULT_TIMEOUT_MS, exec_connection, run_select


@dataclass(frozen=True)
class RerankChoice:
    id: str
    sql: str
    chosen_rank: int
    all_failed: bool


def rerank(
    candidates: CandidateSet,
    db: str | Path | sqlite3.Connection,
    *,
    require_nonempty: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> RerankChoice:
    """Pick the first executable candidate, in descending score order.

    Execution stops at the first success. A candidate that raises
    :class:`QueryExecutionError`, a timed-out or denied one included, counts
    as failed. A connection passed as ``db`` gets the execution authorizer
    and keeps it. ``chosen_rank`` is 1-based over the sorted beam.
    """
    with exec_connection(db) as conn:
        for rank, cand in enumerate(candidates.candidates, start=1):
            try:
                rows = run_select(conn, cand.sql, timeout_ms)
            except QueryExecutionError:
                continue
            if require_nonempty and not rows:
                continue
            return RerankChoice(candidates.id, cand.sql, rank, False)
    top = candidates.candidates[0]
    return RerankChoice(candidates.id, top.sql, 1, True)


def rerank_file(
    preds: dict[str, Prediction],
    db: str | Path | sqlite3.Connection,
    *,
    require_nonempty: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> dict[str, RerankChoice]:
    """Rerank every beam in a prediction file, in input order, on one
    connection: ``db`` itself if it is one (it gets the execution
    authorizer and stays open), else ``db`` opened read-only for this call.

    Single-prediction records have no beam to rerank and raise
    :class:`RecordError` before any candidate runs.
    """
    for idx, (sid, pred) in enumerate(preds.items(), start=1):
        if not isinstance(pred, CandidateSet):
            raise RecordError(idx, f"id {sid!r} has no candidate beam to rerank")
    with exec_connection(db) as conn:
        choices = [rerank(cs, conn, require_nonempty=require_nonempty, timeout_ms=timeout_ms) for cs in preds.values()]
    return {choice.id: choice for choice in choices}
