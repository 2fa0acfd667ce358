from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medsql import query as query_module
from medsql.errors import ParseError, UnsupportedSyntax, UnterminatedLiteral
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
    parse_sql,
    rename_tables,
    serialize_sql,
    tokenize_sql,
)

from . import parser_oracle
from .reference import ref_tokenize

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "INNER", "JOIN", "ON", "DISTINCT",
    "LIKE", "COUNT", "MAX", "MIN", "AVG", "SUM", "GROUP", "ORDER", "HAVING",
    "LIMIT", "UNION", "INTERSECT", "EXCEPT", "BETWEEN", "IN", "IS", "NOT",
    "EXISTS", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL", "AS", "NULL",
}


class TestTokenize:
    def test_words_are_casefolded_and_punctuation_stands_alone(self):
        assert tokenize_sql("SELECT A,B from TABLE") == ["select", "a", ",", "b", "from", "table"]

    def test_quoted_literal_is_one_token_with_case_kept(self):
        assert tokenize_sql('WHERE X = "Port"') == ["where", "x", "=", '"Port"']

    def test_single_and_double_quotes_produce_the_same_token(self):
        assert tokenize_sql("X = 'Port'") == tokenize_sql('X = "Port"')

    def test_multiword_literal_stays_one_token(self):
        assert tokenize_sql('I = "Self Pay"')[-1] == '"Self Pay"'

    def test_escaped_quote_inside_literal(self):
        assert tokenize_sql("A = 'it''s'") == ["a", "=", '"it\'s"']
        assert tokenize_sql('A = "say ""hi"""') == ["a", "=", '"say ""hi"""']

    def test_two_char_operators_are_single_tokens(self):
        assert tokenize_sql("a<=b >= c != d <> e") == [
            "a", "<=", "b", ">=", "c", "!=", "d", "<>", "e",
        ]

    def test_aggregate_call_with_parens(self):
        assert tokenize_sql("select count ( distinct t.a ) FROM T") == [
            "select", "count", "(", "distinct", "t.a", ")", "from", "t",
        ]

    def test_whitespace_runs_collapse(self):
        assert tokenize_sql("SELECT   *\n\t FROM  T") == ["select", "*", "from", "t"]

    def test_empty_input(self):
        assert tokenize_sql("") == []
        assert tokenize_sql("   \n ") == []

    def test_unterminated_literal_reports_opening_offset(self):
        with pytest.raises(UnterminatedLiteral) as exc:
            tokenize_sql('SELECT "A FROM T')
        assert exc.value.offset == 7

    def test_matches_reference_tokenizer_on_dialect_text(self):
        cases = [
            "SELECT A,B from TABLE",
            'SELECT COUNT(DISTINCT T.A) FROM T WHERE T.B = "Self Pay" OR T.C >= 3.5',
            "x<>y x!=y x<=y",
            'name LIKE "%smith%"',
        ]
        for text in cases:
            assert tokenize_sql(text) == ref_tokenize(text)

    @given(st.text(max_size=60))
    def test_retokenizing_joined_tokens_is_identity(self, text):
        try:
            tokens = tokenize_sql(text)
        except UnterminatedLiteral:
            assume(False)
        assert tokenize_sql(" ".join(tokens)) == tokens


def scan_tokens(text: str) -> list[tuple[str, str, int]]:
    """The character-by-character scanner the regex lexer replaced, kept
    here as an oracle: (kind, text, offset) per token, "end" last."""
    punct_two = ("<=", ">=", "!=", "<>")
    punct_one = frozenset("=<>(),*")
    quotes = frozenset("'\"")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in quotes:
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise UnterminatedLiteral(i)
                c = text[j]
                if c == ch:
                    if j + 1 < n and text[j + 1] == ch:
                        parts.append(ch)
                        j += 2
                        continue
                    j += 1
                    break
                parts.append(c)
                j += 1
            tokens.append(("string", "".join(parts), i))
            i = j
            continue
        if text[i : i + 2] in punct_two:
            tokens.append(("punct", text[i : i + 2], i))
            i += 2
            continue
        if ch in punct_one:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        j = i
        while (
            j < n
            and not text[j].isspace()
            and text[j] not in punct_one
            and text[j] not in quotes
            and text[j : j + 2] not in punct_two
        ):
            j += 1
        tokens.append(("word", text[i:j], i))
        i = j
    tokens.append(("end", "", n))
    return tokens


def library_tokens(text: str) -> list[tuple[str, str, int]]:
    """``_lex`` in the scanner's form: each lexeme's kind, text and offset,
    the offset found as an error finds it."""
    _, lexemes = query_module._lex(text)
    tokens = []
    for k, lexeme in enumerate(lexemes):
        offset = query_module._offset(text, k)
        if not lexeme:
            tokens.append(("end", "", offset))
        elif lexeme[0] in "\"'":
            quote = lexeme[0]
            tokens.append(("string", lexeme[1:-1].replace(quote * 2, quote), offset))
        elif lexeme in query_module._PUNCT:
            tokens.append(("punct", lexeme, offset))
        else:
            tokens.append(("word", lexeme, offset))
    return tokens


def lex_or_offset(lex, text: str):
    """The tokens of ``lex``, or the offset of the unterminated literal."""
    try:
        return lex(text)
    except UnterminatedLiteral as exc:
        return exc.offset


# Quotes, doubled quotes, '!' alone and before '=', the two-character
# operators, '.', digits, and three whitespace characters (no-break space,
# space, and the file separator \x1c, which str.isspace counts).
LEX_PIECES = ["'", '"', "''", '""', "!", "!=", "<>", "<=", ">=", ".", "1", "9", "a", "Z",
              "\xa0", " ", "\x1c", "=", "<", ">", "(", ")", ",", "*"]


class TestLexer:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("'a''", 0),
            ('"a"""', [("string", 'a"', 0), ("end", "", 5)]),
            ("a!b", [("word", "a!b", 0), ("end", "", 3)]),
            ("a!=b", [("word", "a", 0), ("punct", "!=", 1), ("word", "b", 3), ("end", "", 4)]),
            ("x = 'it''s' ", [("word", "x", 0), ("punct", "=", 2), ("string", "it's", 4), ("end", "", 12)]),
            ("\xa0a\x1c'b'\xa0", [("word", "a", 1), ("string", "b", 3), ("end", "", 7)]),
        ],
        ids=["single-ends-in-escape", "double-ends-in-escape", "bang-in-word", "bang-equals",
             "escape-and-trailing-space", "unicode-whitespace"],
    )
    def test_pinned_cases(self, text, expected):
        assert lex_or_offset(scan_tokens, text) == expected
        assert lex_or_offset(library_tokens, text) == expected

    @given(st.lists(st.sampled_from(LEX_PIECES), max_size=30).map("".join))
    @settings(max_examples=2000)
    def test_matches_the_character_scanner(self, text):
        assert lex_or_offset(library_tokens, text) == lex_or_offset(scan_tokens, text)

    @given(st.text(max_size=40))
    @settings(max_examples=500)
    def test_matches_the_character_scanner_on_any_text(self, text):
        assert lex_or_offset(library_tokens, text) == lex_or_offset(scan_tokens, text)

    @pytest.mark.parametrize("construct", ["(?>", "*+", "++", "?+"])
    def test_pattern_runs_on_python_3_10(self, construct):
        # Atomic groups and possessive quantifiers arrived in Python 3.11;
        # the package supports 3.10.
        assert construct not in query_module._TOKEN_RE.pattern


class TestParse:
    def test_star_query(self):
        q = parse_sql("SELECT * FROM DEMOGRAPHIC")
        assert q == SqlQuery((SelectItem(column=STAR),), "DEMOGRAPHIC")

    def test_identifiers_are_case_folded_to_upper(self):
        assert parse_sql("select name from demographic") == parse_sql(
            "SELECT NAME FROM DEMOGRAPHIC"
        )

    def test_full_query_shape(self):
        sql = (
            'SELECT COUNT(DISTINCT DEMOGRAPHIC.SUBJECT_ID) FROM DEMOGRAPHIC '
            'INNER JOIN LAB ON DEMOGRAPHIC.HADM_ID = LAB.HADM_ID '
            'WHERE LAB.FLAG = "abnormal" AND DEMOGRAPHIC.AGE > 25'
        )
        q = parse_sql(sql)
        assert q.select_items == (
            SelectItem(AggOp.COUNT, True, ColumnRef("SUBJECT_ID", "DEMOGRAPHIC")),
        )
        assert q.main_table == "DEMOGRAPHIC"
        assert q.joins == (
            JoinClause(
                "LAB",
                ColumnRef("HADM_ID", "DEMOGRAPHIC"),
                ColumnRef("HADM_ID", "LAB"),
            ),
        )
        assert q.conditions == (
            Condition(
                ColumnRef("FLAG", "LAB"), CompOp.EQ, Literal(LiteralKind.TEXT, "abnormal")
            ),
            Condition(
                ColumnRef("AGE", "DEMOGRAPHIC"),
                CompOp.GT,
                Literal(LiteralKind.NUMBER, "25"),
                Connector.AND,
            ),
        )
        assert serialize_sql(q) == sql

    def test_every_comparison_operator(self):
        for op_text, op in [
            ("=", CompOp.EQ),
            ("!=", CompOp.NEQ),
            ("<>", CompOp.NEQ),
            ("<", CompOp.LT),
            ("<=", CompOp.LTE),
            (">", CompOp.GT),
            (">=", CompOp.GTE),
            ("LIKE", CompOp.LIKE),
        ]:
            q = parse_sql(f"SELECT A FROM T WHERE B {op_text} 3")
            assert q.conditions[0].op is op

    def test_neq_serializes_one_way(self):
        assert serialize_sql(parse_sql("SELECT A FROM T WHERE B <> 1")) == (
            "SELECT A FROM T WHERE B != 1"
        )

    def test_number_lexeme_is_preserved(self):
        q = parse_sql("SELECT A FROM T WHERE B = 25.0")
        assert q.conditions[0].value == Literal(LiteralKind.NUMBER, "25.0")
        assert serialize_sql(q).endswith("25.0")

    def test_text_literal_case_and_quote_style(self):
        single = parse_sql("SELECT A FROM T WHERE B = 'Port'")
        double = parse_sql('SELECT A FROM T WHERE B = "Port"')
        assert single == double
        assert single.conditions[0].value.value == "Port"
        assert serialize_sql(single).endswith('"Port"')

    def test_or_connector_kept(self):
        q = parse_sql('SELECT A FROM T WHERE B = 1 OR C = 2 AND D = 3')
        assert [c.connector for c in q.conditions] == [None, Connector.OR, Connector.AND]

    def test_truncated_query_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_sql("SELECT NAME FROM")
        assert exc.value.offset == 16

    def test_empty_input_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_sql("")

    def test_missing_from_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT NAME")

    def test_trailing_garbage_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT A FROM T extra")

    def test_duplicate_join_table_rejected(self):
        with pytest.raises(ParseError):
            parse_sql(
                "SELECT A FROM T INNER JOIN T ON T.X = T.Y"
            )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT A FROM T GROUP BY A",
            "SELECT A FROM T ORDER BY A",
            "SELECT A FROM T WHERE A = 1 HAVING COUNT(*) > 2",
            "SELECT A FROM T LIMIT 5",
            "SELECT A FROM T LEFT JOIN U ON T.X = U.X",
            "SELECT A FROM T JOIN U ON T.X = U.X",
            "SELECT A FROM T CROSS JOIN U ON T.X = U.X",
            "SELECT A FROM (SELECT B FROM U)",
            "SELECT A FROM T WHERE B IN (1, 2)",
            "SELECT A FROM T WHERE B BETWEEN 1 AND 2",
            "SELECT A FROM T WHERE B IS NULL",
            "SELECT A FROM T WHERE NOT B = 1",
            "SELECT A FROM T UNION SELECT A FROM U",
        ],
    )
    def test_unsupported_syntax(self, sql):
        with pytest.raises(UnsupportedSyntax):
            parse_sql(sql)

    @pytest.mark.parametrize("op", ["=", ">", "LIKE"])
    def test_nested_query_as_a_value_is_unsupported(self, op):
        sql = f"SELECT A FROM T WHERE B {op} (SELECT C FROM U)"
        with pytest.raises(UnsupportedSyntax, match="nested queries are outside the dialect") as exc:
            parse_sql(sql)
        assert exc.value.offset == sql.index("(")

    def test_unsupported_is_a_parse_error_subtype(self):
        assert issubclass(UnsupportedSyntax, ParseError)


class TestQueryModel:
    def test_empty_select_list_rejected(self):
        with pytest.raises(ValueError):
            SqlQuery((), "T")

    def test_duplicate_join_tables_rejected(self):
        join = JoinClause("U", ColumnRef("X", "T"), ColumnRef("X", "U"))
        with pytest.raises(ValueError):
            SqlQuery((SelectItem(column=STAR),), "T", (join, join))

    def test_join_on_main_table_rejected(self):
        join = JoinClause("T", ColumnRef("X", "T"), ColumnRef("X", "T"))
        with pytest.raises(ValueError):
            SqlQuery((SelectItem(column=STAR),), "T", (join,))

    def test_first_condition_must_not_carry_a_connector(self):
        cond = Condition(
            ColumnRef("A"), CompOp.EQ, Literal(LiteralKind.NUMBER, "1"), Connector.AND
        )
        with pytest.raises(ValueError):
            SqlQuery((SelectItem(column=STAR),), "T", (), (cond,))

    def test_later_conditions_must_carry_a_connector(self):
        first = Condition(ColumnRef("A"), CompOp.EQ, Literal(LiteralKind.NUMBER, "1"))
        with pytest.raises(ValueError):
            SqlQuery((SelectItem(column=STAR),), "T", (), (first, first))

    def test_nodes_are_frozen_and_slotted(self):
        query = parse_sql('SELECT COUNT(T.A) FROM T INNER JOIN U ON T.K = U.K WHERE T.B = "x"')
        nodes = [query, query.select_items[0], query.select_items[0].column, query.joins[0],
                 query.conditions[0], query.conditions[0].value, STAR]
        for node in nodes:
            assert not hasattr(node, "__dict__")
            for field in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field.name, None)
            # A name that is no field cannot be set either; CPython before
            # 3.12 raises TypeError here for frozen slotted dataclasses.
            with pytest.raises((AttributeError, TypeError)):
                node.extra = 1
        moved = dataclasses.replace(query, main_table="V")
        assert moved.main_table == "V" and moved.joins == query.joins
        assert dataclasses.replace(query) == query
        assert hash(dataclasses.replace(query)) == hash(query)


identifiers = st.from_regex(r"[A-Z_][A-Z0-9_]{0,9}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)
column_refs = st.builds(ColumnRef, column=identifiers, table=st.none() | identifiers)
literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=15
)
literals = st.one_of(
    st.builds(
        Literal,
        kind=st.just(LiteralKind.NUMBER),
        value=st.from_regex(r"[+-]?([0-9]{1,7}(\.[0-9]{0,4})?|\.[0-9]{1,4})", fullmatch=True),
    ),
    st.builds(Literal, kind=st.just(LiteralKind.TEXT), value=literal_text),
)
select_items = st.builds(
    SelectItem,
    agg_op=st.sampled_from(AggOp),
    distinct=st.booleans(),
    column=st.one_of(st.just(STAR), column_refs),
)


@st.composite
def queries(draw) -> SqlQuery:
    n_joins = draw(st.integers(0, 2))
    tables = draw(
        st.lists(identifiers, min_size=1 + n_joins, max_size=1 + n_joins, unique=True)
    )
    joins = tuple(
        JoinClause(table, draw(column_refs), draw(column_refs)) for table in tables[1:]
    )
    items = tuple(draw(st.lists(select_items, min_size=1, max_size=3)))
    conditions = []
    for index in range(draw(st.integers(0, 3))):
        connector = (
            None if index == 0 else draw(st.sampled_from((Connector.AND, Connector.OR)))
        )
        conditions.append(
            Condition(draw(column_refs), draw(st.sampled_from(CompOp)), draw(literals), connector)
        )
    return SqlQuery(items, tables[0], joins, tuple(conditions))


def tree_nodes(query: SqlQuery) -> list:
    """Every node of ``query``, the query first, in a fixed order."""
    nodes: list = [query]
    for item in query.select_items:
        nodes += [item, item.column]
    for join in query.joins:
        nodes += [join, join.left, join.right]
    for cond in query.conditions:
        nodes += [cond, cond.column, cond.value]
    return nodes


def scanned_logic_form(text: str) -> list[str]:
    """The logic-form tokens of the scanner's tokens: words case-folded,
    literals in canonical double-quoted form."""
    out = []
    for kind, tok, _ in scan_tokens(text):
        if kind == "word":
            out.append(tok.casefold())
        elif kind == "string":
            out.append('"' + tok.replace('"', '""') + '"')
        elif kind == "punct":
            out.append(tok)
    return out


def oracle_parse_and_count(text: str) -> tuple[SqlQuery, int]:
    return parser_oracle.parse_and_count(scan_tokens(text))


def parse_outcome(parse_and_count, text: str):
    """The query and token count, or the error's class, message, offset and
    expected set."""
    try:
        return parse_and_count(text)
    except (ParseError, UnterminatedLiteral) as exc:
        return type(exc), str(exc), exc.offset, getattr(exc, "expected", None)


def mixed_case(words: list[str]):
    return st.sampled_from(words).flatmap(
        lambda word: st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
            lambda upper: "".join(c.upper() if up else c.lower() for c, up in zip(word, upper))
        )
    )


# Literals in both quote styles, with doubled quotes and the other quote inside.
LITERAL_PIECES = ['"x"', "'x'", '"say ""hi"""', "'it''s'", "'a\"b'", '"a\'b"', '""', "''"]
PARSE_PIECES = st.one_of(
    mixed_case(["SELECT", "FROM", "WHERE", "AND", "OR", "INNER", "JOIN", "ON", "DISTINCT", "COUNT",
                "MAX", "AVG", "LIKE", "GROUP", "ORDER", "LEFT", "NOT", "IN", "EXISTS"]),
    st.sampled_from(LITERAL_PIECES + [
        "*", "(", ")", ",", "=", "!=", "<>", "<", "<=", ">", ">=", "(SELECT", "!", '"', "'",
        "T", "u", "T.A", "t.b", "T.", "A.B.C", "1T", "x$#", "3", "-2", "+1.5", ".5", "3.", "1e5",
    ]),
)
GAPS = st.sampled_from([" "] * 6 + ["", "\n\t"])


@st.composite
def query_shaped(draw) -> str:
    """SELECT and dialect pieces in any order, or a serialized query with a
    few pieces swapped, inserted, deleted or copied and its words re-cased;
    joined by whitespace or by nothing."""
    if draw(st.booleans()):
        pieces = [draw(mixed_case(["SELECT"]))] + draw(st.lists(PARSE_PIECES, max_size=25))
    else:
        pieces = [
            piece if piece[0] in "\"'" else draw(st.sampled_from([str, str.lower, str.title]))(piece)
            for piece in query_module._TOKEN_RE.findall(serialize_sql(draw(queries())))
        ]
        for _ in range(draw(st.integers(0, 2))):
            edit = draw(st.sampled_from(["swap", "insert", "delete", "copy"]))
            k = draw(st.integers(0, len(pieces) - (edit != "insert")))
            if edit == "insert":
                pieces.insert(k, draw(PARSE_PIECES))
            elif edit == "swap":
                pieces[k] = draw(PARSE_PIECES)
            elif edit == "delete":
                del pieces[k]
            else:  # another piece of the same query, such as a table name
                pieces[k] = draw(st.sampled_from(pieces))
    return "".join(draw(GAPS) + piece for piece in pieces)


# Texts at the edges of the dialect, each a parse or an error.
PINNED_PARSE_CASES = [
    "\u017fELECT * FROM T",  # the long s case-folds to s
    "SELECT COUNT ( * ) , count(distinct t.a), DISTINCT * FROM T",
    "SELECT count FROM T",
    "SELECT COUNT(A FROM T",
    "SELECT A FROM T WHERE B = (SELECT C FROM U)",
    "SELECT A FROM (SELECT",
    "SELECT A FROM T INNER JOIN T ON A = B",
    "SELECT A FROM T INNER JOIN U ON A != B",
    "SELECT A FROM T LEFT JOIN U ON A = B",
    "SELECT A FROM T INNER U",
    "SELECT A FROM T INNER JOIN U A = B",
    "SELECT A FROM 1T",
    "SELECT A, FROM T",
    "SELECT DISTINCT FROM T",
    "SELECT A FROM T WHERE NOT B = 1",
    "SELECT A FROM T WHERE EXISTS (SELECT",
    "SELECT A FROM T WHERE B IN (1)",
    "SELECT A FROM T WHERE B C = 1",
    "SELECT A FROM T WHERE B = C",
    "SELECT A FROM T WHERE B",
    "SELECT A FROM T WHERE B = 1 GROUP BY A",
    "SELECT A FROM T WHERE B = 'it''s' OR C LIKE \"%x\" and D >= -1.5",
    "SELECT A FROM T WHERE B = 'open",
    "SELECT A.B.C FROM T",
    "SELECT \"A\" FROM T",
    "SELECT A FROM T WHERE",
    "SELECT",
    "  ",
    "",
]


class TestOracles:
    """The lexer and parser against the scanner and the recursive-descent
    parser they replaced. CI also runs these under the deep hypothesis
    profile (``-k oracle --hypothesis-profile=deep``), so they set no
    example count of their own."""

    @pytest.mark.parametrize("text", PINNED_PARSE_CASES)
    def test_parse_matches_the_parser_oracle_on_pinned_cases(self, text):
        assert parse_outcome(query_module._parse_and_count, text) == parse_outcome(oracle_parse_and_count, text)

    @given(query_shaped())
    def test_parse_matches_the_parser_oracle_on_dialect_pieces(self, text):
        assert parse_outcome(query_module._parse_and_count, text) == parse_outcome(oracle_parse_and_count, text)

    @given(st.text(max_size=60) | st.text(max_size=40).map("SELECT A FROM T ".__add__))
    def test_parse_matches_the_parser_oracle_on_any_text(self, text):
        assert parse_outcome(query_module._parse_and_count, text) == parse_outcome(oracle_parse_and_count, text)

    @given(st.lists(st.sampled_from(LEX_PIECES + LITERAL_PIECES), max_size=30).map("".join))
    def test_logic_form_tokens_match_the_scanner_oracle(self, text):
        assert lex_or_offset(tokenize_sql, text) == lex_or_offset(scanned_logic_form, text)

    @given(st.text(max_size=60))
    def test_logic_form_tokens_match_the_scanner_oracle_on_any_text(self, text):
        assert lex_or_offset(tokenize_sql, text) == lex_or_offset(scanned_logic_form, text)


class TestRoundTrip:
    @given(queries())
    @settings(max_examples=300)
    def test_parse_inverts_serialize(self, query):
        assert parse_sql(serialize_sql(query)) == query

    @given(queries())
    def test_parser_built_nodes_cannot_be_told_from_constructor_built_ones(self, query):
        # The parser sets its nodes' slots without the public constructors.
        parsed = parse_sql(serialize_sql(query))
        for node, built in zip(tree_nodes(parsed), tree_nodes(query), strict=True):
            assert type(node) is type(built)
            assert dataclasses.replace(node) == node  # passes every __post_init__ check
            assert hash(node) == hash(built) and repr(node) == repr(built)
            for field in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field.name, getattr(node, field.name))
            assert pickle.loads(pickle.dumps(node)) == node
            assert copy.deepcopy(node) == node

    @given(queries())
    def test_serialize_is_canonical(self, query):
        sql = serialize_sql(query)
        assert serialize_sql(parse_sql(sql)) == sql

    @given(queries())
    def test_tokenizing_serialized_sql_is_idempotent(self, query):
        tokens = tokenize_sql(serialize_sql(query))
        assert tokenize_sql(" ".join(tokens)) == tokens


class TestBuilder:
    # The first four are names a generated body might also use for its own.
    NAMES = ("node", "build", "cls", "new", "value", "table")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_built_node_is_the_constructed_one_without_post_init(self, n):
        armed = []

        def post_init(self):
            if armed:
                raise AssertionError("__post_init__ ran")

        cls = dataclasses.make_dataclass(
            f"Node{n}", self.NAMES[:n], namespace={"__post_init__": post_init}, frozen=True, slots=True
        )
        values = [f"v{k}" for k in range(n)]
        constructed = cls(*values)
        armed.append(True)
        with pytest.raises(AssertionError):
            cls(*values)
        built = query_module._builder(cls)(*values)
        assert type(built) is cls and built == constructed and hash(built) == hash(constructed)
        assert [getattr(built, name) for name in self.NAMES[:n]] == values
        assert not hasattr(built, "__dict__")
        for name in self.NAMES[:n]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, None)


class TestRenameTables:
    def test_every_table_position_is_renamed(self):
        q = parse_sql(
            "SELECT COUNT(DISTINCT PROCEDURE.HADM_ID), DIAGNOSES.ICD9_CODE, * FROM PROCEDURE "
            "INNER JOIN DIAGNOSES ON PROCEDURE.HADM_ID = DIAGNOSES.HADM_ID "
            'WHERE PROCEDURE.SHORT_TITLE = "X" OR AGE > 3'
        )
        renamed = rename_tables(q, {"PROCEDURE": "PROCEDURES", "DIAGNOSES": "DIAGNOSIS"})
        assert serialize_sql(renamed) == (
            "SELECT COUNT(DISTINCT PROCEDURES.HADM_ID), DIAGNOSIS.ICD9_CODE, * FROM PROCEDURES "
            "INNER JOIN DIAGNOSIS ON PROCEDURES.HADM_ID = DIAGNOSIS.HADM_ID "
            'WHERE PROCEDURES.SHORT_TITLE = "X" OR AGE > 3'
        )

    def test_names_outside_the_mapping_are_kept(self):
        q = parse_sql("SELECT LAB.FLAG FROM LAB WHERE LAB.ITEMID = 5")
        assert rename_tables(q, {"PROCEDURE": "PROCEDURES"}) == q
        assert rename_tables(q, {}) == q

    def test_column_references_whose_tables_stay_are_kept_as_they_are(self):
        # The dataclasses.replace version rebuilt every column reference, renamed or not.
        q = parse_sql(
            "SELECT LAB.FLAG, COUNT(*), PROCEDURE.ICD9_CODE FROM LAB "
            "INNER JOIN PROCEDURE ON LAB.HADM_ID = PROCEDURE.HADM_ID "
            "INNER JOIN DEMOGRAPHIC ON LAB.HADM_ID = DEMOGRAPHIC.HADM_ID "
            "WHERE LAB.ITEMID = 5 AND PROCEDURE.SHORT_TITLE = 'x'"
        )
        renamed = rename_tables(q, {"PROCEDURE": "PROCEDURES"})
        assert renamed == parser_oracle.rename_tables(q, {"PROCEDURE": "PROCEDURES"})
        kept = [(q.select_items[0].column, renamed.select_items[0].column), (q.joins[0].left, renamed.joins[0].left),
                (q.joins[1].left, renamed.joins[1].left), (q.joins[1].right, renamed.joins[1].right),
                (q.conditions[0].column, renamed.conditions[0].column)]
        assert all(new is old for old, new in kept)
        assert renamed.select_items[2].column == ColumnRef("ICD9_CODE", "PROCEDURES")
        assert renamed.joins[0].right == ColumnRef("HADM_ID", "PROCEDURES")
        assert renamed.conditions[1].column == ColumnRef("SHORT_TITLE", "PROCEDURES")

    @pytest.mark.parametrize(
        "sql, mapping",
        [
            ("SELECT A FROM LAB INNER JOIN LABS ON LAB.X = LABS.X", {"LABS": "LAB"}),
            ("SELECT A FROM T INNER JOIN U ON T.X = U.X INNER JOIN V ON T.X = V.X", {"U": "W", "V": "W"}),
        ],
        ids=["onto-main-table", "two-joins-onto-one"],
    )
    def test_a_mapping_that_merges_two_tables_raises_as_the_rename_oracle_does(self, sql, mapping):
        q = parse_sql(sql)
        for rename in (rename_tables, parser_oracle.rename_tables):
            with pytest.raises(ValueError, match="join tables must be pairwise distinct"):
                rename(q, mapping)

    @given(st.data())
    def test_rename_matches_the_rename_oracle(self, data):
        query = data.draw(queries())
        names = {query.main_table} | {j.table for j in query.joins}
        names |= {node.table for node in tree_nodes(query) if isinstance(node, ColumnRef)}
        pool = st.sampled_from(sorted(names - {None}) + ["FRESH", "FRESH_2"])
        mapping = {data.draw(pool): data.draw(pool) for _ in range(data.draw(st.integers(0, 4)))}
        outcomes = []
        for rename in (rename_tables, parser_oracle.rename_tables):
            try:
                renamed = rename(query, mapping)
            except ValueError as exc:
                outcomes.append((ValueError, str(exc)))
            else:
                outcomes.append((renamed, repr(renamed), serialize_sql(renamed)))
        assert outcomes[0] == outcomes[1]


class TestColumnCache:
    """``query._column_node`` builds each column spelling once per process."""

    def test_queries_that_share_a_column_lexeme_share_its_node(self):
        # Before the cache, each parse built a node of its own.
        a = parse_sql("SELECT DEMOGRAPHIC.NAME FROM DEMOGRAPHIC")
        b = parse_sql('SELECT COUNT(*) FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.NAME = "x"')
        assert a.select_items[0].column is b.conditions[0].column

    @pytest.mark.parametrize("text", PINNED_PARSE_CASES)
    def test_a_cold_parse_equals_a_warm_one_on_the_pinned_oracle_cases(self, text):
        query_module._column_node.cache_clear()
        cold = parse_outcome(query_module._parse_and_count, text)
        warm = parse_outcome(query_module._parse_and_count, text)
        assert cold == warm and repr(cold) == repr(warm)
        assert cold == parse_outcome(oracle_parse_and_count, text)

    @pytest.mark.parametrize(
        "column, message",
        [
            ("A.B.C", "malformed column reference 'A.B.C'"),
            ("'x'", "expected a column reference"),
            ("(", "expected a column reference"),
            ("1", "malformed column reference '1'"),
        ],
    )
    def test_a_malformed_column_fails_alike_the_first_time_and_every_later_time(self, column, message):
        # Each miss must name the lexeme and find its own offset.
        texts = [f"SELECT {column} FROM T", f"SELECT A FROM T WHERE {column} = 1",
                 f"SELECT A FROM T INNER JOIN U ON T.K = {column}"]
        query_module._column_node.cache_clear()
        for text in texts * 3:
            with pytest.raises(ParseError) as raised:
                parse_sql(text)
            offset = text.index(column)
            assert str(raised.value) == f"{message} at offset {offset} (expected column reference)"
            assert raised.value.offset == offset

    def test_a_lexeme_that_spells_no_column_is_not_kept(self):
        # Only column spellings are kept, so junk lexemes from untrusted SQL cannot pile up.
        query_module._column_node.cache_clear()
        for k in range(100):
            with pytest.raises(ParseError, match="malformed column reference"):
                parse_sql(f"SELECT T{k}.{'X' * 1000}.C FROM T")
        assert query_module._column_node.cache_info().currsize == 0

    def test_the_cache_stays_within_its_bound(self):
        # Untrusted SQL may spell any number of distinct columns.
        query_module._column_node.cache_clear()
        for k in range(5000):
            parse_sql(f"SELECT T.C{k} FROM T")
        info = query_module._column_node.cache_info()
        assert info.maxsize == query_module._COLUMN_CACHE_SIZE == 4096
        assert info.currsize == info.maxsize
        assert parse_sql("SELECT T.C0 FROM T").select_items[0].column == ColumnRef("C0", "T")
        query_module._column_node.cache_clear()
