"""The restricted SQL dialect: AST, parser, serializer, and tokenizer.

The dialect covers the query shapes found in medical question-to-SQL
corpora: one SELECT clause whose items may carry an aggregation and/or
DISTINCT, one main table, any number of ``INNER JOIN t ON a = b`` clauses,
and a flat WHERE clause chained with AND/OR. Nested queries, GROUP BY,
ORDER BY, HAVING, and non-inner joins are outside the dialect and raise
:class:`UnsupportedSyntax`.

Case policy: keywords and identifiers are case-folded (identifiers are
stored uppercase), literal values keep their original case.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .errors import ParseError, UnsupportedSyntax, UnterminatedLiteral

__all__ = [
    "AggOp",
    "CompOp",
    "Connector",
    "LiteralKind",
    "Star",
    "STAR",
    "ColumnRef",
    "SelectItem",
    "JoinClause",
    "Literal",
    "Condition",
    "SqlQuery",
    "tokenize_sql",
    "parse_sql",
    "serialize_sql",
    "rename_tables",
]


class AggOp(Enum):
    NONE = ""
    COUNT = "COUNT"
    MAX = "MAX"
    MIN = "MIN"
    AVG = "AVG"
    SUM = "SUM"


class CompOp(Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="
    LIKE = "LIKE"


class Connector(Enum):
    AND = "AND"
    OR = "OR"


class LiteralKind(Enum):
    TEXT = "text"
    NUMBER = "number"


@dataclass(frozen=True, slots=True)
class Star:
    """The all-columns symbol in a select list."""

    def __repr__(self) -> str:
        return "STAR"


STAR = Star()


@dataclass(frozen=True, slots=True)
class ColumnRef:
    column: str
    table: str | None = None

    def render(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True, slots=True)
class SelectItem:
    agg_op: AggOp = AggOp.NONE
    distinct: bool = False
    column: ColumnRef | Star = STAR


@dataclass(frozen=True, slots=True)
class JoinClause:
    table: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True, slots=True)
class Literal:
    kind: LiteralKind
    value: str

    def render(self) -> str:
        if self.kind is LiteralKind.TEXT:
            return '"' + self.value.replace('"', '""') + '"'
        return self.value


@dataclass(frozen=True, slots=True)
class Condition:
    column: ColumnRef
    op: CompOp
    value: Literal
    connector: Connector | None = None


@dataclass(frozen=True, slots=True)
class SqlQuery:
    select_items: tuple[SelectItem, ...]
    main_table: str
    joins: tuple[JoinClause, ...] = ()
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "select_items", tuple(self.select_items))
        object.__setattr__(self, "joins", tuple(self.joins))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.select_items:
            raise ValueError("select_items must be non-empty")
        if not self.main_table:
            raise ValueError("main_table must be set")
        names = [j.table for j in self.joins]
        if len(set(names)) != len(names) or self.main_table in names:
            raise ValueError("join tables must be pairwise distinct and differ from the main table")
        for k, cond in enumerate(self.conditions):
            if (cond.connector is None) != (k == 0):
                raise ValueError("the first condition and only the first must lack a connector")


# Lexer: one compiled pattern, matched token after token; each match
# takes the whitespace before its token. Words are maximal runs of
# characters that are not whitespace, quotes, or operator/punctuation
# characters; '.' stays inside words so qualified names (T.C) and decimals
# (3.5) are single lexemes, and '!' does too unless '=' follows it. A
# literal's closing quote may not be followed by a second quote (that pair
# is an escape), so a literal that ends in an escape matches nothing and
# falls through to the lone-quote alternative, which raises
# UnterminatedLiteral. Python 3.10 has no atomic groups or possessive
# quantifiers, hence the lookaheads.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        ("[^"]*(?:""[^"]*)*")(?!")      # 1: double-quoted literal
      | ('[^']*(?:''[^']*)*')(?!')      # 2: single-quoted literal
      | (["'])                          # 3: lone (unterminated) quote
      | (<=|>=|!=|<>|[=<>(),*])         # 4: operator or punctuation
      | ((?:[^\s"'=<>(),*!]+|!(?!=))+)  # 5: word
    )""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "word" | "string" | "punct" | "end"
    text: str
    offset: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    # Trailing whitespace is cut off first, so every search finds a token.
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        group = m.lastindex
        if group == 5:
            append(_Token("word", m[5], m.start(5)))
        elif group == 4:
            append(_Token("punct", m[4], m.start(4)))
        elif group == 3:
            raise UnterminatedLiteral(m.start(3))
        else:
            literal = m[group]
            quote = literal[0]
            append(_Token("string", literal[1:-1].replace(quote + quote, quote), m.start(group)))
    append(_Token("end", "", len(text)))
    return tokens


def tokenize_sql(text: str) -> list[str]:
    """Normalize SQL text into the token list used for logic-form matching.

    Words are case-folded, punctuation and operators become standalone
    tokens, whitespace is collapsed, and each quoted literal becomes a
    single token in canonical double-quoted form with its original case
    preserved. Raises :class:`UnterminatedLiteral` on an unclosed quote.
    """
    return _normalized(_lex(text))


def _normalized(tokens: list[_Token]) -> list[str]:
    """:func:`tokenize_sql` of the text that lexed to ``tokens``."""
    out: list[str] = []
    for tok in tokens:
        if tok.kind == "word":
            out.append(tok.text.casefold())
        elif tok.kind == "string":
            out.append('"' + tok.text.replace('"', '""') + '"')
        elif tok.kind == "punct":
            out.append(tok.text)
    return out


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


def parse_sql(text: str) -> SqlQuery:
    """Parse SQL text into a :class:`SqlQuery`.

    Raises :class:`ParseError` (with the byte offset and the expected-token
    set) on malformed input, :class:`UnsupportedSyntax` on constructs
    outside the dialect, and :class:`UnterminatedLiteral` on an unclosed
    quote.
    """
    return _parse_tokens(_lex(text))


def _parse_and_count(text: str) -> tuple[SqlQuery, int]:
    """``(parse_sql(text), len(tokenize_sql(text)))`` from one lexing."""
    tokens = _lex(text)
    return _parse_tokens(tokens), len(tokens) - 1  # the end marker is no token


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


def _render_item(item: SelectItem) -> str:
    inner = "*" if isinstance(item.column, Star) else item.column.render()
    if item.agg_op is not AggOp.NONE:
        prefix = "DISTINCT " if item.distinct else ""
        return f"{item.agg_op.value}({prefix}{inner})"
    return ("DISTINCT " if item.distinct else "") + inner


def serialize_sql(query: SqlQuery) -> str:
    """Render a query in canonical form.

    Keywords and identifiers come out uppercase, text literals use double
    quotes (embedded double quotes doubled), and ``parse_sql`` of the
    result reconstructs an equal :class:`SqlQuery`.
    """
    parts = ["SELECT", ", ".join(_render_item(it) for it in query.select_items)]
    parts += ["FROM", query.main_table]
    for join in query.joins:
        parts += ["INNER JOIN", join.table, "ON", join.left.render(), "=", join.right.render()]
    if query.conditions:
        parts.append("WHERE")
        for k, cond in enumerate(query.conditions):
            if k:
                parts.append(cond.connector.value)
            parts += [cond.column.render(), cond.op.value, cond.value.render()]
    return " ".join(parts)


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
