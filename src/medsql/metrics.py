"""Logic-form and execution accuracy for prediction files.

Logic-form accuracy compares normalized token sequences element-wise, so
it is order-sensitive: ``SELECT A,B`` and ``SELECT B,A`` do not match.
Execution accuracy compares result multisets row by row with column names
ignored and duplicates significant; numeric cells compare with relative
tolerance 1e-9 and text cells byte-exact.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Sequence

from .errors import MedsqlError, MissingPrediction, UnterminatedLiteral
from .predictions import Prediction, top_sql
from .query import SqlQuery, Star, _lex, _Lexed, _normalized, _parse_tokens
from .records import FORMAT_VERSION
from .store import DEFAULT_TIMEOUT_MS, Execution, Sample, exec_connection

REL_TOLERANCE = 1e-9
ABS_TOLERANCE = 1e-12


def _safe_tokens(sql: str) -> _Lexed | None:
    try:
        return _lex(sql)
    except UnterminatedLiteral:
        return None


def _same_logic_form(gold: _Lexed | None, pred: _Lexed | None) -> bool:
    if gold is None or pred is None:
        return False
    return gold is pred or _normalized(gold) == _normalized(pred)


def logic_form_match(gold_sql: str, pred_sql: str) -> bool:
    """Element-wise equality of the normalized token sequences.

    A side with an unterminated literal cannot match anything.
    """
    return _same_logic_form(_safe_tokens(gold_sql), _safe_tokens(pred_sql))


def _sort_key(value: Any):
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        # 8 significant digits, one coarser than REL_TOLERANCE, and 0 within
        # ABS_TOLERANCE of 0: numbers equal under the tolerance share a key
        # unless a rounding boundary falls between them.
        return (1, 0.0 if abs(value) <= ABS_TOLERANCE else float(f"{value:.8g}"))
    if isinstance(value, bytes):
        return (2, value)
    return (3, str(value))


def _values_equal(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num != b_num:
        return False
    if a_num:
        return math.isclose(float(a), float(b), rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE)
    return a == b


def results_equal(rows_a: list[tuple], rows_b: list[tuple]) -> bool:
    """Multiset equality of two result sets under the value tolerance."""
    if len(rows_a) != len(rows_b):
        return False
    # Canonical keys, then exact numbers, so that rows sharing keys sort alike on both sides.
    key = lambda row: (tuple(map(_sort_key, row)), tuple(v if isinstance(v, (int, float)) else 0 for v in row))
    for ra, rb in zip(sorted(rows_a, key=key), sorted(rows_b, key=key)):
        if len(ra) != len(rb) or not all(_values_equal(x, y) for x, y in zip(ra, rb)):
            return False
    return True


@dataclass(frozen=True)
class ExecutionOutcome:
    ex_match: bool
    gold_error: bool
    pred_error: bool


def execution_match(
    gold_sql: str,
    pred_sql: str,
    db: str | Path | sqlite3.Connection | Execution,
    *,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> ExecutionOutcome:
    """Execute both queries and compare result multisets.

    A query that fails to run (a timeout or a denied action included) sets
    its error flag; any error means no match. A prediction that repeats the
    gold text exactly runs once, and both sides take its rows or its error:
    executed SQL depends only on the database and the text. The prediction
    keeps at most one row more than gold returned, none when gold failed,
    and still runs to its end, so its error and the timeout are as they
    were. ``db`` is borrowed or opened as
    :func:`~medsql.store.exec_connection` says.
    """
    with exec_connection(db, timeout_ms) as session:
        gold_rows = session.rows(gold_sql)
        if pred_sql == gold_sql:
            pred_rows = gold_rows
        else:
            # One row past the gold's length already fails results_equal; a failed gold needs none.
            pred_rows = session.rows(pred_sql, keep=0 if gold_rows is None else len(gold_rows) + 1)
    matched = (
        gold_rows is not None
        and pred_rows is not None
        and (gold_rows is pred_rows or results_equal(gold_rows, pred_rows))
    )
    return ExecutionOutcome(matched, gold_rows is None, pred_rows is None)


@dataclass(frozen=True)
class ComponentFlags:
    agg_op: bool
    agg_col: bool
    table_joins: bool
    cond_col_op: bool
    cond_val: bool


_ALL_FALSE = ComponentFlags(False, False, False, False, False)
_ALL_TRUE = ComponentFlags(True, True, True, True, True)


def _column_label(column) -> str:
    return "*" if isinstance(column, Star) else column.render()


def _same_multiset(a: list, b: list) -> bool:
    return a == b or Counter(a) == Counter(b)


def component_breakdown(gold: SqlQuery, pred: SqlQuery) -> ComponentFlags:
    """Order-insensitive per-component comparison of two parsed queries.

    Each flag compares one component as a multiset: aggregation operations,
    aggregated (selected) columns, the main table plus join clauses,
    (condition column, operator) pairs, and condition values.
    """
    if gold == pred:
        return _ALL_TRUE
    joins = lambda q: [(j.table, frozenset((j.left.render(), j.right.render()))) for j in q.joins]
    return ComponentFlags(
        agg_op=_same_multiset([i.agg_op for i in gold.select_items], [i.agg_op for i in pred.select_items]),
        agg_col=_same_multiset(
            [_column_label(i.column) for i in gold.select_items],
            [_column_label(i.column) for i in pred.select_items],
        ),
        table_joins=gold.main_table == pred.main_table and _same_multiset(joins(gold), joins(pred)),
        cond_col_op=_same_multiset(
            [(c.column.render(), c.op) for c in gold.conditions],
            [(c.column.render(), c.op) for c in pred.conditions],
        ),
        cond_val=_same_multiset(
            [(c.value.kind, c.value.value) for c in gold.conditions],
            [(c.value.kind, c.value.value) for c in pred.conditions],
        ),
    )


@dataclass(frozen=True)
class SampleEval:
    id: str
    lf_match: bool
    ex_match: bool
    gold_error: bool
    pred_error: bool


@dataclass(frozen=True)
class EvalReport:
    acc_lf: float
    acc_ex: float
    n: int
    per_sample: tuple[SampleEval, ...]
    breakdown: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "format_version": FORMAT_VERSION,
            "acc_lf": self.acc_lf,
            "acc_ex": self.acc_ex,
            "n": self.n,
            # vars: a record's fields in declaration order, as asdict gives them, without its deep copy.
            "per_sample": [dict(vars(s)) for s in self.per_sample],
        }
        if self.breakdown is not None:
            out["breakdown"] = self.breakdown
        return out


def _breakdown_flags(sample: Sample, pred_tokens: _Lexed | None, repeat: bool) -> ComponentFlags:
    if pred_tokens is None:
        return _ALL_FALSE
    try:
        gold = sample.gold_query
        pred = gold if repeat else _parse_tokens(pred_tokens)
    except MedsqlError:
        return _ALL_FALSE
    return component_breakdown(gold, pred)


def evaluate(
    samples: Sequence[Sample],
    preds: dict[str, Prediction],
    db: str | Path | sqlite3.Connection | Execution,
    *,
    strict: bool = False,
    with_breakdown: bool = True,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> EvalReport:
    """Score a prediction file against gold SQL over one split.

    Beam-shaped records are scored on their top candidate. A sample
    without a prediction counts as both matches false (``pred_error``
    set), or raises :class:`MissingPrediction` listing every such id when
    ``strict``. Every query runs in one session of ``db`` (see
    :func:`~medsql.store.exec_connection`).
    """
    samples = list(samples)
    if strict:
        missing = [s.id for s in samples if s.id not in preds]
        if missing:
            raise MissingPrediction(missing)

    def score(session: Execution, sample: Sample) -> tuple[SampleEval, ComponentFlags]:
        pred = preds.get(sample.id)
        if pred is None:
            return SampleEval(sample.id, False, False, False, True), _ALL_FALSE
        pred_sql = top_sql(pred)
        # A prediction that repeats its gold text takes the gold's tokens and parse.
        repeat = pred_sql == sample.gold_sql
        pred_tokens = _safe_tokens(pred_sql)  # for logic form and the breakdown both
        gold_tokens = pred_tokens if repeat else _safe_tokens(sample.gold_sql)
        lf = _same_logic_form(gold_tokens, pred_tokens)
        outcome = execution_match(sample.gold_sql, pred_sql, session)
        flags = _breakdown_flags(sample, pred_tokens, repeat) if with_breakdown else _ALL_FALSE
        return SampleEval(sample.id, lf, outcome.ex_match, outcome.gold_error, outcome.pred_error), flags

    with exec_connection(db, timeout_ms) as session:
        scored = [score(session, sample) for sample in samples]
    per_sample = tuple(entry for entry, _ in scored)
    n = len(per_sample)
    acc_lf = sum(e.lf_match for e in per_sample) / n if n else 0.0
    acc_ex = sum(e.ex_match for e in per_sample) / n if n else 0.0
    breakdown = None
    if with_breakdown and n:
        names = [f.name for f in fields(ComponentFlags)]
        breakdown = {name: sum(getattr(flags, name) for _, flags in scored) / n for name in names}
    return EvalReport(acc_lf=acc_lf, acc_ex=acc_ex, n=n, per_sample=per_sample, breakdown=breakdown)
