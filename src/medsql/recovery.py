"""Condition-value recovery against a database value lookup.

A predicted text value is replaced by the most similar value that actually
occurs in the referenced column. Similarity is the mean of two ROUGE-L F1
scores (beta = 1), one over case-folded whitespace words and one over
case-folded characters:

    P = LCS / len(candidate),  R = LCS / len(reference)
    F1 = 2 * P * R / (P + R)   (0 when P + R = 0)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import MedsqlError, UnknownColumn
from .query import (
    Condition,
    Literal,
    LiteralKind,
    SqlQuery,
    parse_sql,
    serialize_sql,
)
from .store import ATTR_TEXT, ColumnValues, LookupColumn, ValueLookup

# A candidate is skipped only when its score bound is below the best score
# by more than this, so float rounding in the bound cannot drop the argmax.
_ROUNDING = 1e-9


def lcs_len(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two sequences.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): one integer holds a
    whole column of the dynamic programme over the shorter sequence, and
    each element of the longer one updates every bit at once. Bit i of
    ``v`` is clear where the LCS grows at position i, so the LCS is the
    count of clear bits. Elements must be hashable; each distinct element
    of the shorter sequence keys the mask of its positions.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict[Hashable, int] = {}
    bit = 1
    for x in b:
        masks[x] = masks.get(x, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    get = masks.get
    for x in a:
        u = v & get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _f1(lcs: int, len_candidate: int, len_reference: int) -> float:
    if not len_candidate or not len_reference:
        return 0.0
    precision = lcs / len_candidate
    recall = lcs / len_reference
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_l_f1(candidate: Sequence[Hashable], reference: Sequence[Hashable]) -> float:
    """ROUGE-L F1 with beta = 1 over two token sequences."""
    if not candidate or not reference:
        return 0.0
    return _f1(lcs_len(candidate, reference), len(candidate), len(reference))


@dataclass(frozen=True)
class SimilarityScore:
    word_f: float
    char_f: float

    @property
    def combined(self) -> float:
        return (self.word_f + self.char_f) / 2.0


def similarity(predicted: str, db_value: str) -> SimilarityScore:
    """Word-level and char-level ROUGE-L F1 between a predicted value and a
    database value, both case-folded."""
    pred = predicted.casefold()
    ref = db_value.casefold()
    return SimilarityScore(
        word_f=rouge_l_f1(pred.split(), ref.split()),
        char_f=rouge_l_f1(pred, ref),
    )


def _common(bag: Counter, items: Sequence[Hashable]) -> int:
    """Size of the multiset intersection of ``bag`` and ``items``, which
    bounds the LCS of any two sequences with these element counts."""
    total = 0
    for x, k in bag.items():
        n = items.count(x)
        total += n if n < k else k
    return total


def _best_value(predicted: str, column: ColumnValues) -> tuple[str, float]:
    """The first value in order with the highest combined score.

    A value is scored only if its bound, the combined score with each LCS
    replaced by the bag intersection, comes within rounding of the best so
    far; the bound is never below the score, so the answer is the one a
    full scan gives.
    """
    best_value: str | None = None
    best_score = -1.0
    pred = predicted.casefold()
    pred_words = pred.split()
    char_bag, word_bag = Counter(pred), Counter(pred_words)
    for value, (folded, words) in zip(column, column.folded):
        # The word half first: it is cheap, and a char half of 1 may
        # already fall short.
        floor = best_score - _ROUNDING
        word_f = _f1(_common(word_bag, words), len(pred_words), len(words))
        if (word_f + 1.0) / 2.0 < floor:
            continue
        if (word_f + _f1(_common(char_bag, folded), len(pred), len(folded))) / 2.0 < floor:
            continue
        score = similarity(predicted, value).combined
        if score > best_score:
            best_value, best_score = value, score
    return best_value, best_score


def recover_value(predicted: str, values: Sequence[str] | LookupColumn) -> tuple[str, float]:
    """Pick the most similar value from a column's value set.

    Returns (value, combined score). An exact member is returned as-is.
    Ties go to the lexicographically smallest value. ``values`` is a
    :class:`~medsql.store.LookupColumn`, which answers an exact hit with
    one indexed query and reads the column on its first miss, a
    :class:`~medsql.store.ColumnValues`, whose set answers exact hits and
    whose memo answers a predicted string recovered before, or any
    sequence, which is sorted and scanned. Membership is asked first: a hit
    implies a non-empty column. Candidates whose bag bound cannot reach
    the best score are not scored; the answer is the one a full scan gives.
    """
    if predicted in values:
        return predicted, 1.0
    if isinstance(values, LookupColumn):
        values = values.load()
    elif not isinstance(values, ColumnValues):
        values = ColumnValues(sorted(values))
    if not values:
        raise UnknownColumn("empty value set")
    answer = values.memo.get(predicted)
    if answer is None:
        answer = values.memo[predicted] = _best_value(predicted, values)
    return answer


@dataclass(frozen=True)
class RecoveredQuery:
    sql: str
    parsed: bool
    replacements: tuple[tuple[str, str], ...] = ()
    unresolved: tuple[str, ...] = ()


def recover_query(pred_sql: str, lookup: ValueLookup) -> RecoveredQuery:
    """Rewrite every text condition value of a predicted query to its most
    similar database value.

    Unparseable input is returned unchanged with ``parsed=False``. Only
    conditions on text-attributed columns are touched; a condition whose
    column cannot be resolved in the lookup is left unchanged and listed
    in ``unresolved``. Output SQL is in canonical serialized form, so the
    operation is idempotent.
    """
    try:
        query = parse_sql(pred_sql)
    except MedsqlError:
        return RecoveredQuery(sql=pred_sql, parsed=False)
    replacements: list[tuple[str, str]] = []
    unresolved: list[str] = []
    new_conditions = []
    for cond in query.conditions:
        if cond.value.kind is LiteralKind.TEXT:
            try:
                column = lookup.column(cond.column.table, cond.column.column)
                if column.attr == ATTR_TEXT:
                    chosen, _ = recover_value(cond.value.value, column)
                    if chosen != cond.value.value:
                        replacements.append((cond.value.value, chosen))
                        cond = Condition(cond.column, cond.op, Literal(LiteralKind.TEXT, chosen), cond.connector)
            except UnknownColumn:
                unresolved.append(cond.column.render())
        new_conditions.append(cond)
    recovered = SqlQuery(query.select_items, query.main_table, query.joins, tuple(new_conditions))
    return RecoveredQuery(
        sql=serialize_sql(recovered),
        parsed=True,
        replacements=tuple(replacements),
        unresolved=tuple(unresolved),
    )
