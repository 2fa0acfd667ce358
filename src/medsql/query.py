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

import functools
import re
from collections.abc import Mapping
from dataclasses import dataclass, fields
from enum import Enum

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


# The parser builds its nodes without the public constructors. A frozen
# dataclass's __init__ sets each field through object.__setattr__, and
# SqlQuery's __post_init__ then checks the whole query again; skipping
# both takes a fifth off a parse. The parser already guarantees what
# __post_init__ checks: a non-empty select list and a main table, join
# tables kept distinct by its `seen` set, a connector on every condition
# but the first, and tuples throughout. So a builder creates the object
# and sets each slot through the slot descriptor's __set__, where
# __setattr__ ends. Its source is generated from the class's fields, as
# dataclasses generates __init__: a loop over the fields measured slower
# than the public constructor, so the body is one straight-line call per
# field.
def _builder(cls):
    """A function that takes the fields of ``cls`` in field order and
    returns the node holding them, without ``__init__`` or ``__post_init__``."""
    names = [field.name for field in fields(cls)]
    namespace = {"__name__": __name__, "__new": object.__new__, "__cls": cls}
    namespace.update((f"__set_{name}", getattr(cls, name).__set__) for name in names)
    sets = "".join(f"    __set_{name}(__node, {name})\n" for name in names)
    exec(f"def build({', '.join(names)}):\n    __node = __new(__cls)\n{sets}    return __node\n", namespace)
    build = namespace["build"]
    build.__qualname__ = build.__name__ = f"_build_{cls.__name__}"
    return build


_build_column_ref = _builder(ColumnRef)
_build_select_item = _builder(SelectItem)
_build_join = _builder(JoinClause)
_build_literal = _builder(Literal)
_build_condition = _builder(Condition)
_build_query = _builder(SqlQuery)


# Lexer: one compiled pattern and one findall. Each match takes the
# whitespace before its token and captures the token's text, its lexeme: a
# quoted literal with its quotes and doubled escapes, an operator or
# punctuation mark, or a word. Words are maximal runs of characters that
# are not whitespace, quotes, or operator/punctuation characters; '.' stays
# inside words so qualified names (T.C) and decimals (3.5) are single
# lexemes, and '!' does too unless '=' follows it. A literal's closing
# quote may not be followed by a second quote (that pair is an escape), so
# a literal that ends in an escape matches nothing and falls through to the
# lone-quote alternative, which raises UnterminatedLiteral. Python 3.10 has
# no atomic groups or possessive quantifiers, hence the lookaheads.
#
# A lexeme carries no kind and no offset, so lexing builds no object per
# token. Its kind shows in its text: a literal starts with a quote,
# punctuation is one of _PUNCT, and a word is anything else. Folding a
# literal or punctuation leaves it unequal to every keyword, so the parser
# compares any lexeme's casefold with a keyword without asking its kind.
# The list ends with the end marker "", which no lexeme equals. An offset
# is needed only by an error, and _offset finds it by scanning the text
# again.
_TOKEN_RE = re.compile(
    r"""\s*(
        "[^"]*(?:""[^"]*)*"(?!")      # double-quoted literal
      | '[^']*(?:''[^']*)*'(?!')      # single-quoted literal
      | ["']                          # lone (unterminated) quote
      | <=|>=|!=|<>|[=<>(),*]         # operator or punctuation
      | (?:[^\s"'=<>(),*!]+|!(?!=))+  # word
    )""",
    re.VERBOSE,
)
_PUNCT = frozenset(("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", "*"))

# The text, then its lexemes followed by the end marker "".
_Lexed = tuple[str, list[str]]


def _lex(text: str) -> _Lexed:
    # Trailing whitespace is cut off first, so every search finds a token.
    tokens = _TOKEN_RE.findall(text, 0, len(text.rstrip()))
    if '"' in tokens or "'" in tokens:
        lone = next(k for k, tok in enumerate(tokens) if tok == '"' or tok == "'")
        raise UnterminatedLiteral(_offset(text, lone))
    tokens.append("")
    return text, tokens


def _offset(text: str, k: int) -> int:
    """The offset in ``text`` of its ``k``-th lexeme, or ``len(text)`` for
    the end marker."""
    for j, m in enumerate(_TOKEN_RE.finditer(text, 0, len(text.rstrip()))):
        if j == k:
            return m.start(1)
    return len(text)


def tokenize_sql(text: str) -> list[str]:
    """Normalize SQL text into the token list used for logic-form matching.

    Words are case-folded, punctuation and operators become standalone
    tokens, whitespace is collapsed, and each quoted literal becomes a
    single token in canonical double-quoted form with its original case
    preserved. Raises :class:`UnterminatedLiteral` on an unclosed quote.
    """
    return _normalized(_lex(text))


def _normalized(lexed: _Lexed) -> list[str]:
    """:func:`tokenize_sql` of the text that lexed to ``lexed``."""
    out: list[str] = []
    for tok in lexed[1][:-1]:
        first = tok[0]
        if first == '"':
            out.append(tok)  # a double-quoted lexeme is already canonical
        elif first == "'":
            out.append('"' + tok[1:-1].replace("''", "'").replace('"', '""') + '"')
        else:
            out.append(tok.casefold())  # folding leaves punctuation as it is
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


# Each column spelling is built once per process and its frozen node shared
# by every parse; the key is the lexeme, so there is no key to build. A
# lexeme that spells no column raises and is not kept, so the cache holds at
# most _COLUMN_CACHE_SIZE column spellings, each with about twice its length.
_COLUMN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _column_node(tok: str) -> ColumnRef:
    """The column reference the lexeme ``tok`` spells; ValueError if none."""
    m = _COLUMN_RE.match(tok)
    if m is None:
        raise ValueError(tok)
    head, tail = m.groups()
    return _build_column_ref(tail.upper(), head.upper()) if tail else _build_column_ref(head.upper(), None)


def _column_ref(text: str, tokens: list[str], k: int) -> ColumnRef:
    tok = tokens[k]
    try:
        return _column_node(tok)
    except ValueError:
        pass
    if tok and tok[0] not in "\"'" and tok not in _PUNCT:
        raise ParseError(f"malformed column reference {tok!r}", _offset(text, k), {"column reference"})
    raise ParseError("expected a column reference", _offset(text, k), {"column reference"})


def _table_name(text: str, tokens: list[str], k: int) -> str:
    tok = tokens[k]
    if _IDENT_RE.match(tok):
        return tok.upper()
    if tok == "(" and tokens[k + 1].casefold() == "select":
        raise UnsupportedSyntax("nested queries are outside the dialect", _offset(text, k))
    raise ParseError("expected a table name", _offset(text, k), {"table name"})


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
    lexed = _lex(text)
    return _parse_tokens(lexed), len(lexed[1]) - 1  # the end marker is no token


def _parse_tokens(lexed: _Lexed) -> SqlQuery:
    """:func:`parse_sql` of the text that lexed to ``lexed``.

    ``i`` indexes the current lexeme. The lexeme after one that was just
    read is never past the end marker, so no index needs a bounds check.
    """
    text, tokens = lexed
    if tokens[0].casefold() != "select":
        raise ParseError("unexpected token", _offset(text, 0), {"SELECT"})
    i = 1
    items: list[SelectItem] = []
    while True:
        tok = tokens[i]
        word = tok.casefold()
        distinct = False
        if word == "distinct":
            distinct = True
            i += 1
            tok = tokens[i]
            word = tok.casefold()
        agg = _AGG_WORDS.get(word)
        if tok == "*":
            items.append(_build_select_item(AggOp.NONE, distinct, STAR))
        elif agg is not None and tokens[i + 1] == "(":
            i += 2
            if tokens[i].casefold() == "distinct":
                distinct = True
                i += 1
            column = STAR if tokens[i] == "*" else _column_ref(text, tokens, i)
            i += 1
            if tokens[i] != ")":
                raise ParseError("unexpected token", _offset(text, i), {"')'"})
            items.append(_build_select_item(agg, distinct, column))
        else:
            items.append(_build_select_item(AggOp.NONE, distinct, _column_ref(text, tokens, i)))
        i += 1
        if tokens[i] != ",":
            break
        i += 1
    if tokens[i].casefold() != "from":
        raise ParseError("unexpected token", _offset(text, i), {"FROM"})
    main_table = _table_name(text, tokens, i + 1)
    i += 2
    joins: list[JoinClause] = []
    seen = {main_table}
    word = tokens[i].casefold()
    while word == "inner":
        if tokens[i + 1].casefold() != "join":
            raise ParseError("unexpected token", _offset(text, i + 1), {"JOIN"})
        table = _table_name(text, tokens, i + 2)
        if table in seen:
            raise ParseError(f"table {table} joined twice", _offset(text, i + 2), {"distinct table name"})
        seen.add(table)
        if tokens[i + 3].casefold() != "on":
            raise ParseError("unexpected token", _offset(text, i + 3), {"ON"})
        left = _column_ref(text, tokens, i + 4)
        if tokens[i + 5] != "=":
            raise ParseError("unexpected token", _offset(text, i + 5), {"'='"})
        joins.append(_build_join(table, left, _column_ref(text, tokens, i + 6)))
        i += 7
        word = tokens[i].casefold()
    if word in _UNSUPPORTED_JOINS:
        raise UnsupportedSyntax(
            f"only INNER JOIN is inside the dialect, got {tokens[i].upper()}", _offset(text, i)
        )
    conditions: list[Condition] = []
    if word == "where":
        connector = None
        while True:
            i += 1
            tok = tokens[i]
            word = tok.casefold()
            if word == "not" or word == "exists":
                raise UnsupportedSyntax(f"{tok.upper()} conditions are outside the dialect", _offset(text, i))
            column = _column_ref(text, tokens, i)
            tok = tokens[i + 1]
            op = _COMP_PUNCT.get(tok)
            if op is None:
                word = tok.casefold()
                if word == "like":
                    op = CompOp.LIKE
                elif word in _UNSUPPORTED_OPS:
                    raise UnsupportedSyntax(f"operator {tok.upper()} is outside the dialect", _offset(text, i + 1))
                else:
                    raise ParseError("expected a comparison operator", _offset(text, i + 1), {"comparison operator"})
            i += 2
            tok = tokens[i]
            quote = tok[:1]
            if quote == '"' or quote == "'":
                value = _build_literal(LiteralKind.TEXT, tok[1:-1].replace(quote + quote, quote))
            elif _NUMBER_RE.match(tok):
                value = _build_literal(LiteralKind.NUMBER, tok)
            elif tok == "(" and tokens[i + 1].casefold() == "select":
                raise UnsupportedSyntax("nested queries are outside the dialect", _offset(text, i))
            else:
                raise ParseError("expected a literal value", _offset(text, i), {"string literal", "number"})
            conditions.append(_build_condition(column, op, value, connector))
            i += 1
            word = tokens[i].casefold()
            if word == "and":
                connector = Connector.AND
            elif word == "or":
                connector = Connector.OR
            else:
                break
    tok = tokens[i]
    if tok:
        if tok.casefold() in _UNSUPPORTED_TAIL:
            raise UnsupportedSyntax(f"{tok.upper()} clauses are outside the dialect", _offset(text, i))
        raise ParseError("trailing input after the query", _offset(text, i), {"end of input"})
    return _build_query(tuple(items), main_table, tuple(joins), tuple(conditions))


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
    tables, and the table qualifiers of column references. A mapping that
    makes two FROM/JOIN tables one raises :class:`ValueError`."""
    table = lambda name: mapping.get(name, name)

    def ref(column):
        if getattr(column, "table", None) in mapping:  # STAR has no table
            return _build_column_ref(column.column, mapping[column.table])
        return column

    return SqlQuery(
        [_build_select_item(it.agg_op, it.distinct, ref(it.column)) for it in query.select_items],
        table(query.main_table),
        [_build_join(table(j.table), ref(j.left), ref(j.right)) for j in query.joins],
        [_build_condition(ref(c.column), c.op, c.value, c.connector) for c in query.conditions],
    )
