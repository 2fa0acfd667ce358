"""The recursive-descent parser that the index parser in ``medsql.query``
replaced, kept as an oracle, as ``scan_tokens`` in ``test_query`` keeps the
character scanner that the regex lexer replaced.

It walks ``_Token`` objects (kind, text, offset) through a ``_Stream``.
:func:`parse_and_count` feeds it the scanner's tokens, so neither the
library's lexer nor its parser takes part.

:func:`rename_tables` is the ``dataclasses.replace`` version of
``medsql.query.rename_tables``, which now rebuilds the query with the parser's
builders and keeps each column reference whose table stays.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import replace
from typing import NamedTuple

from medsql.errors import ParseError, UnsupportedSyntax
from medsql.query import (
    STAR,
    AggOp,
    ColumnRef,
    CompOp,
    Condition,
    Connector,
    JoinClause,
    Literal,
    LiteralKind,
    SelectItem,
    SqlQuery,
    Star,
)


class _Token(NamedTuple):
    kind: str  # "word" | "string" | "punct" | "end"
    text: str
    offset: int


_AGG_WORDS = {
    "count": AggOp.COUNT,
    "max": AggOp.MAX,
    "min": AggOp.MIN,
    "avg": AggOp.AVG,
    "sum": AggOp.SUM,
}
_COMP_PUNCT = {
    "=": CompOp.EQ,
    "!=": CompOp.NEQ,
    "<>": CompOp.NEQ,
    "<": CompOp.LT,
    "<=": CompOp.LTE,
    ">": CompOp.GT,
    ">=": CompOp.GTE,
}
_UNSUPPORTED_JOINS = frozenset({"join", "left", "right", "full", "outer", "cross", "natural"})
_UNSUPPORTED_TAIL = frozenset({"group", "order", "having", "limit", "union", "intersect", "except"})
_UNSUPPORTED_OPS = frozenset({"between", "in", "is", "not", "exists"})

_IDENT = r"[A-Za-z_][A-Za-z0-9_$#]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
_COLUMN_RE = re.compile(rf"({_IDENT})(?:\.({_IDENT}))?\Z")
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)\Z")


class _Stream:
    __slots__ = ("_tokens", "_pos", "current")

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self.current: _Token = self._tokens[0]

    def peek(self) -> _Token:
        k = min(self._pos + 1, len(self._tokens) - 1)
        return self._tokens[k]

    def advance(self) -> _Token:
        tok = self.current
        if tok.kind != "end":
            self._pos += 1
            self.current = self._tokens[self._pos]
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.current
        return tok.kind == "word" and tok.text.casefold() in words

    def at_punct(self, *symbols: str) -> bool:
        tok = self.current
        return tok.kind == "punct" and tok.text in symbols

    def expect_word(self, word: str) -> _Token:
        if not self.at_word(word):
            raise ParseError("unexpected token", self.current.offset, {word.upper()})
        return self.advance()

    def expect_punct(self, symbol: str) -> _Token:
        if not self.at_punct(symbol):
            raise ParseError("unexpected token", self.current.offset, {repr(symbol)})
        return self.advance()


def _column_ref(ts: _Stream) -> ColumnRef:
    tok = ts.current
    if tok.kind != "word":
        raise ParseError("expected a column reference", tok.offset, {"column reference"})
    m = _COLUMN_RE.match(tok.text)
    if m is None:
        raise ParseError(f"malformed column reference {tok.text!r}", tok.offset, {"column reference"})
    ts.advance()
    head, tail = m.groups()
    return ColumnRef(tail.upper(), head.upper()) if tail else ColumnRef(head.upper())


def _table_name(ts: _Stream) -> str:
    tok = ts.current
    if tok.kind == "punct" and tok.text == "(":
        if ts.peek().kind == "word" and ts.peek().text.casefold() == "select":
            raise UnsupportedSyntax("nested queries are outside the dialect", tok.offset)
        raise ParseError("expected a table name", tok.offset, {"table name"})
    if tok.kind != "word" or not _IDENT_RE.match(tok.text):
        raise ParseError("expected a table name", tok.offset, {"table name"})
    ts.advance()
    return tok.text.upper()


def _select_column(ts: _Stream) -> ColumnRef | Star:
    if ts.at_punct("*"):
        ts.advance()
        return STAR
    return _column_ref(ts)


def _select_item(ts: _Stream) -> SelectItem:
    if ts.at_punct("*"):
        ts.advance()
        return SelectItem(AggOp.NONE, False, STAR)
    distinct = False
    if ts.at_word("distinct"):
        ts.advance()
        distinct = True
        if ts.at_punct("*"):
            ts.advance()
            return SelectItem(AggOp.NONE, True, STAR)
    tok = ts.current
    agg = _AGG_WORDS.get(tok.text.casefold()) if tok.kind == "word" else None
    if agg is not None and ts.peek().kind == "punct" and ts.peek().text == "(":
        ts.advance()
        ts.expect_punct("(")
        if ts.at_word("distinct"):
            ts.advance()
            distinct = True
        column = _select_column(ts)
        ts.expect_punct(")")
        return SelectItem(agg, distinct, column)
    return SelectItem(AggOp.NONE, distinct, _column_ref(ts))


def _literal(ts: _Stream) -> Literal:
    tok = ts.current
    if tok.kind == "string":
        ts.advance()
        return Literal(LiteralKind.TEXT, tok.text)
    if tok.kind == "word" and _NUMBER_RE.match(tok.text):
        ts.advance()
        return Literal(LiteralKind.NUMBER, tok.text)
    if tok.kind == "punct" and tok.text == "(":
        if ts.peek().kind == "word" and ts.peek().text.casefold() == "select":
            raise UnsupportedSyntax("nested queries are outside the dialect", tok.offset)
    raise ParseError("expected a literal value", tok.offset, {"string literal", "number"})


def _condition(ts: _Stream, connector: Connector | None) -> Condition:
    lead = ts.current
    if lead.kind == "word" and lead.text.casefold() in ("not", "exists"):
        raise UnsupportedSyntax(
            f"{lead.text.upper()} conditions are outside the dialect", lead.offset
        )
    column = _column_ref(ts)
    tok = ts.current
    if tok.kind == "punct" and tok.text in _COMP_PUNCT:
        op = _COMP_PUNCT[tok.text]
        ts.advance()
    elif tok.kind == "word" and tok.text.casefold() == "like":
        op = CompOp.LIKE
        ts.advance()
    elif tok.kind == "word" and tok.text.casefold() in _UNSUPPORTED_OPS:
        raise UnsupportedSyntax(f"operator {tok.text.upper()} is outside the dialect", tok.offset)
    else:
        raise ParseError("expected a comparison operator", tok.offset, {"comparison operator"})
    return Condition(column, op, _literal(ts), connector)


def _parse_tokens(tokens: list[_Token]) -> SqlQuery:
    """:func:`parse_sql` of the text that lexed to ``tokens``."""
    ts = _Stream(tokens)
    ts.expect_word("select")
    items = [_select_item(ts)]
    while ts.at_punct(","):
        ts.advance()
        items.append(_select_item(ts))
    ts.expect_word("from")
    main_table = _table_name(ts)
    joins: list[JoinClause] = []
    seen = {main_table}
    while True:
        if ts.at_word("inner"):
            ts.advance()
            ts.expect_word("join")
            tok = ts.current
            table = _table_name(ts)
            if table in seen:
                raise ParseError(f"table {table} joined twice", tok.offset, {"distinct table name"})
            seen.add(table)
            ts.expect_word("on")
            left = _column_ref(ts)
            ts.expect_punct("=")
            right = _column_ref(ts)
            joins.append(JoinClause(table, left, right))
        elif ts.at_word(*_UNSUPPORTED_JOINS):
            tok = ts.current
            raise UnsupportedSyntax(
                f"only INNER JOIN is inside the dialect, got {tok.text.upper()}", tok.offset
            )
        else:
            break
    conditions: list[Condition] = []
    if ts.at_word("where"):
        ts.advance()
        conditions.append(_condition(ts, None))
        while ts.at_word("and", "or"):
            word = ts.advance().text.casefold()
            connector = Connector.AND if word == "and" else Connector.OR
            conditions.append(_condition(ts, connector))
    tail = ts.current
    if tail.kind != "end":
        if tail.kind == "word" and tail.text.casefold() in _UNSUPPORTED_TAIL:
            raise UnsupportedSyntax(
                f"{tail.text.upper()} clauses are outside the dialect", tail.offset
            )
        raise ParseError("trailing input after the query", tail.offset, {"end of input"})
    return SqlQuery(tuple(items), main_table, tuple(joins), tuple(conditions))


def parse_and_count(scanned: list[tuple[str, str, int]]) -> tuple[SqlQuery, int]:
    """The query and token count of the text that scanned to ``scanned``."""
    tokens = [_Token(*tok) for tok in scanned]
    return _parse_tokens(tokens), len(tokens) - 1


def rename_tables(query: SqlQuery, mapping: Mapping[str, str]) -> SqlQuery:
    """Replace every table name found in ``mapping``: the FROM table, join
    tables, and the table qualifiers of column references."""
    table = lambda name: mapping.get(name, name)

    def ref(column):
        return replace(column, table=table(column.table)) if isinstance(column, ColumnRef) else column

    return replace(
        query,
        select_items=tuple(replace(it, column=ref(it.column)) for it in query.select_items),
        main_table=table(query.main_table),
        joins=tuple(replace(j, table=table(j.table), left=ref(j.left), right=ref(j.right)) for j in query.joins),
        conditions=tuple(replace(c, column=ref(c.column)) for c in query.conditions),
    )
