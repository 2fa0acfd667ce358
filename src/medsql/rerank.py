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

from .errors import RecordError
from .predictions import CandidateSet, Prediction
from .store import DEFAULT_TIMEOUT_MS, Execution, exec_connection


@dataclass(frozen=True)
class RerankChoice:
    id: str
    sql: str
    chosen_rank: int
    all_failed: bool


def rerank(
    candidates: CandidateSet,
    db: str | Path | sqlite3.Connection | Execution,
    *,
    require_nonempty: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> RerankChoice:
    """Pick the first executable candidate, in descending score order.

    Execution stops at the first success. A candidate that fails to run, a
    timed-out or denied one included, counts as failed. ``chosen_rank`` is
    1-based over the sorted beam. ``db``: see :func:`~medsql.store.exec_connection`.
    Each candidate is asked :meth:`~medsql.store.Execution.outcome`, so a
    text runs once per session and no candidate's rows are held.
    """
    with exec_connection(db, timeout_ms) as session:
        for rank, cand in enumerate(candidates.candidates, start=1):
            outcome = session.outcome(cand.sql)
            if outcome is not None and (outcome or not require_nonempty):
                return RerankChoice(candidates.id, cand.sql, rank, False)
    top = candidates.candidates[0]
    return RerankChoice(candidates.id, top.sql, 1, True)


def rerank_file(
    preds: dict[str, Prediction],
    db: str | Path | sqlite3.Connection | Execution,
    *,
    require_nonempty: bool = False,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> dict[str, RerankChoice]:
    """Rerank every beam in a prediction file, in input order, in one
    session of ``db`` (see :func:`~medsql.store.exec_connection`): a
    candidate text that recurs across beams runs once in that session.

    Single-prediction records have no beam to rerank and raise
    :class:`RecordError` before any candidate runs.
    """
    for idx, (sid, pred) in enumerate(preds.items(), start=1):
        if not isinstance(pred, CandidateSet):
            raise RecordError(idx, f"id {sid!r} has no candidate beam to rerank")
    with exec_connection(db, timeout_ms) as session:
        choices = [rerank(cs, session, require_nonempty=require_nonempty) for cs in preds.values()]
    return {choice.id: choice for choice in choices}
