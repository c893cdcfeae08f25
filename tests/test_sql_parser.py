"""Unit tests for the SQL parser."""

import datetime as dt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import _Parser, parse_statement, parse_tokens, scan_insert


class TestSelect:
    def test_simple(self):
        statement = parse_statement("SELECT a, b FROM t")
        assert isinstance(statement, ast.SqlSelect)
        assert [item.expression.name for item in statement.items] == ["a", "b"]
        assert statement.from_table.name == "t"

    def test_star(self):
        statement = parse_statement("SELECT * FROM t")
        assert statement.items == ()

    def test_star_without_from_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT *")

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_aliases(self):
        statement = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_table.alias == "u"

    def test_where_precedence(self):
        statement = parse_statement(
            "SELECT a FROM t WHERE a > 1 AND b < 2 OR NOT c = 3"
        )
        where = statement.where
        assert isinstance(where, ast.SqlBinary) and where.op == "or"
        assert isinstance(where.left, ast.SqlBinary) and where.left.op == "and"
        assert isinstance(where.right, ast.SqlNot)

    def test_is_null(self):
        statement = parse_statement("SELECT a FROM t WHERE a IS NOT NULL")
        assert isinstance(statement.where, ast.SqlIsNull)
        assert statement.where.negated

    def test_arithmetic_precedence(self):
        statement = parse_statement("SELECT a + b * 2 FROM t")
        expression = statement.items[0].expression
        assert expression.op == "+"
        assert expression.right.op == "*"

    def test_unary_minus(self):
        statement = parse_statement("SELECT a FROM t WHERE a > -5")
        assert statement.where.right.value == -5

    def test_group_by_having(self):
        statement = parse_statement(
            "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1"
        )
        assert [column.name for column in statement.group_by] == ["g"]
        assert isinstance(statement.having, ast.SqlBinary)

    def test_order_limit_offset(self):
        statement = parse_statement(
            "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5"
        )
        assert statement.order_by[0].ascending is False
        assert statement.order_by[1].ascending is True
        assert statement.limit == 10
        assert statement.offset == 5

    def test_aggregates(self):
        statement = parse_statement(
            "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b), MIN(c), MAX(d), AVG(e) FROM t"
        )
        aggs = [item.expression for item in statement.items]
        assert aggs[0].argument is None
        assert aggs[1].distinct and aggs[1].argument.name == "a"
        assert [agg.func for agg in aggs] == [
            "count",
            "count",
            "sum",
            "min",
            "max",
            "avg",
        ]

    def test_joins(self):
        statement = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.y LEFT OUTER JOIN c ON b.y = c.z"
        )
        assert [join.kind for join in statement.joins] == ["inner", "left_outer"]
        assert statement.joins[0].on_left.qualifier == "a"

    def test_inner_join_keyword(self):
        statement = parse_statement("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        assert statement.joins[0].kind == "inner"

    def test_non_equi_join_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM a JOIN b ON a.x < b.y")

    def test_derived_table(self):
        statement = parse_statement(
            "SELECT * FROM (SELECT a FROM t GROUP BY a) AS sub"
        )
        assert isinstance(statement.from_table, ast.SqlDerivedTable)
        assert statement.from_table.alias == "sub"

    def test_literals(self):
        statement = parse_statement(
            "SELECT a FROM t WHERE a = 1 OR a = 1.5 OR b = 'x' OR c = TRUE "
            "OR d = DATE '2020-01-02' OR e IS NULL"
        )
        assert statement.where is not None

    def test_date_literal(self):
        statement = parse_statement("SELECT a FROM t WHERE d > DATE '2020-06-01'")
        assert statement.where.right.value == dt.date(2020, 6, 1)

    def test_bad_date_literal(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT a FROM t WHERE d > DATE 'not-a-date'")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT a FROM t garbage !")

    def test_trailing_semicolon_ok(self):
        parse_statement("SELECT a FROM t;")


class TestDdl:
    def test_create_table(self):
        statement = parse_statement(
            "CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR(10), c DATE) PARTITIONS 4"
        )
        assert isinstance(statement, ast.SqlCreateTable)
        assert statement.partitions == 4
        assert statement.columns[0].nullable is False
        assert statement.columns[1].type_name == "varchar"

    def test_create_patchindex_full(self):
        statement = parse_statement(
            "CREATE PATCHINDEX pi ON t(c) TYPE SORTED MODE BITMAP THRESHOLD 0.05"
        )
        assert isinstance(statement, ast.SqlCreatePatchIndex)
        assert statement.kind == "sorted"
        assert statement.mode == "bitmap"
        assert statement.threshold == 0.05

    def test_create_patchindex_defaults(self):
        statement = parse_statement("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
        assert statement.mode == "auto"
        assert statement.threshold == 1.0

    def test_drop_statements(self):
        assert isinstance(parse_statement("DROP TABLE t"), ast.SqlDropTable)
        assert isinstance(
            parse_statement("DROP PATCHINDEX pi"), ast.SqlDropPatchIndex
        )

    def test_insert(self):
        statement = parse_statement(
            "INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', 3.5)"
        )
        assert isinstance(statement, ast.SqlInsert)
        assert statement.rows == ((1, "a", None), (2, "b", 3.5))

    def test_insert_with_columns(self):
        statement = parse_statement("INSERT INTO t (b, a) VALUES ('x', 1)")
        assert statement.columns == ("b", "a")

    def test_insert_non_literal_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("INSERT INTO t VALUES (a + 1)")

    def test_insert_literal_forms(self):
        statement = parse_statement(
            "INSERT INTO t VALUES (-1, - -2.5, -(3), ((NULL)), -TRUE, "
            "(DATE '2020-01-02'), 'it''s', 1e3, -FALSE)"
        )
        assert statement.rows == (
            (-1, 2.5, -3, None, -1, dt.date(2020, 1, 2), "it's", 1000.0, 0),
        )
        assert [type(value) for value in statement.rows[0]] == [
            int, float, int, type(None), int, dt.date, str, float, int,
        ]

    @pytest.mark.parametrize(
        "value", ["x", "-NULL", "-'a'", "-DATE '2020-01-02'", "NOT TRUE", "count(a)"]
    )
    def test_non_literal_reports_its_offset(self, value):
        text = f"INSERT INTO t VALUES (1, {value})"
        with pytest.raises(SqlSyntaxError, match="must be literals") as raised:
            parse_statement(text)
        assert raised.value.position is not None

    def test_unclosed_type_length_is_an_error(self):
        with pytest.raises(SqlSyntaxError, match="expected '\\)'"):
            parse_statement("CREATE TABLE t (a VARCHAR(10")

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(statement, ast.SqlDelete)
        assert statement.where is not None

    def test_explain(self):
        statement = parse_statement("EXPLAIN SELECT a FROM t")
        assert isinstance(statement, ast.SqlExplain)

    def test_unsupported_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("VACUUM t")

    def test_checkpoint(self):
        statement = parse_statement("CHECKPOINT")
        assert isinstance(statement, ast.SqlCheckpoint)

    def test_checkpoint_usable_as_table_name(self):
        statement = parse_statement("SELECT c FROM checkpoint")
        assert isinstance(statement, ast.SqlSelect)


class _ExpressionLiterals(_Parser):
    """The literal rule as it was: a whole expression, then a type check."""

    def _literal_value(self):
        expression = self.expression()
        if isinstance(expression, ast.SqlLiteral):
            return expression.value
        raise SqlSyntaxError("INSERT values must be literals")


def _outcome(parser_class, text):
    """The literal values *text* parses to, or ``"error"``."""
    parser = parser_class(tokenize(text))
    try:
        statement = parser.statement()
        parser.accept_punct(";")
        parser.expect_eof()
    except SqlSyntaxError:
        return "error"
    if isinstance(statement, ast.SqlInsert):
        values = [value for row in statement.rows for value in row]
    else:
        values = list(statement.where.values)
    # repr keeps -0.0 apart from 0.0 and 1 apart from 1.0 and True.
    return [(type(value), repr(value)) for value in values]


_LITERALS = st.recursive(
    st.sampled_from(
        ["1", "0", "007", "2.5", "1e3", "2.5E-2", ".5", "NULL", "TRUE", "FALSE",
         "DATE '2020-01-02'", "DATE 'nope'", "'it''s'", "''", "'x'"]
    ),
    lambda inner: st.one_of(
        inner.map(lambda text: f"- {text}"),
        inner.map(lambda text: f"({text})"),
        inner.map(lambda text: f"( {text} )"),
    ),
    max_leaves=6,
)
_PIECES = st.lists(
    st.sampled_from(
        ["-", "(", ")", "1", "2.5", "1e-3", "NULL", "TRUE", "FALSE", "DATE",
         "'2020-01-02'", "'a''b'", "x", "t.x", "+", "*", "/", "1+2", "IS", "NOT",
         "IN", "AND", "OR", "BETWEEN", "count", "(a)", "=", "<", "CAST"]
    ),
    min_size=1,
    max_size=6,
).map(" ".join)
_ROWS = st.lists(st.one_of(_LITERALS, _PIECES), min_size=1, max_size=3).map(", ".join)


class TestLiteralRuleMatchesExpressions:
    """The literal rule accepts exactly what ``expression()`` turned into
    an ``SqlLiteral``, with the same values, in VALUES rows and IN lists."""

    @settings(max_examples=400, deadline=None)
    @given(_ROWS, st.sampled_from(["values", "in", "not in"]))
    @example("-NULL", "values")
    @example("- - (-(1))", "values")
    @example("-(1+2)", "in")
    @example("- DATE '2020-01-02'", "values")
    @example("(1) + 2", "values")
    def test_random_token_streams(self, row, where):
        if where == "values":
            text = f"INSERT INTO t VALUES ({row}), (1)"
        else:
            text = f"SELECT a FROM t WHERE a {where.upper()} ({row})"
        assert _outcome(_Parser, text) == _outcome(_ExpressionLiterals, text)


def _insert_outcome(parse, text):
    """What *parse* makes of *text*: the table, columns and each value
    with its type, or the error's type and position."""
    try:
        statement = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), getattr(exc, "position", None)
    assert isinstance(statement, ast.SqlInsert)
    # repr keeps -0.0 apart from 0.0 and 1 apart from 1.0 and True.
    rows = [[(type(value), repr(value)) for value in row] for row in statement.rows]
    return statement.table, statement.columns, rows


#: Pieces the VALUES scan reads; a text built only from them must not
#: fall back to the token parser.
_SCANNED_HEADS = [
    "INSERT INTO t VALUES", "insert into T values", "InSeRt\tINTO\nt_1 VALUES",
    "  INSERT INTO t (a, B) VALUES", "INSERT INTO t(a)VALUES", "INSERT INTO té VALUES",
]
_SCANNED_LITERALS = [
    "1", "0", "007", "-1", "-0", "-0.0", "0.0", "2.5", "-2.5", "1.", "-1.", ".5",
    "-.5", "1e3", "1E-3", "2.5e+2", "-1.5e-300", "1e999", "123456789012345678901234",
    "NULL", "null", "TRUE", "true", "FALSE", "False", "'x'", "''", "'it''s'",
    "'a, b)'", "'(1), (2'", "'--'", "'é\n'",
]
_SCANNED_TAILS = ["", ";", " ; ", "\n"]
#: Pieces it declines or that are errors: the token parser decides.
_OTHER_HEADS = [
    'INSERT INTO "T" VALUES', "INSERT INTO type VALUES", "INSERT INTO values VALUES",
    "INSERT INTO t (count) VALUES", "INSERT INTO tvalues", "INSERT INTO t VALUE",
    "INSERT -- c\nINTO t VALUES", "INSERTINTO t VALUES", "INSERT INTO ıt VALUES",
    "INSERT INTO t x VALUES", "INSERT INTO t () VALUES", "INSERT t VALUES",
    "INSERT INTO K VALUES", "INSERT INTO tK VALUES", "INSERT INTO t (a,) VALUES",
    "INSERT INTO select VALUES", "INSERT INTO t (a, null) VALUES",
]
_OTHER_LITERALS = [
    "DATE '2020-01-02'", "DATE 'nope'", "- 1", "- -1", "--1", "(1)", "-NULL", "-TRUE",
    "+1", "1e", "1E+", "12abc", "1.2.3", "1..", ".", "e5", "١", "1١",
    "1.١", "nullx", "NULLé", "x", "'open", "1 2", "1 -- c\n", "/* */",
    "1-2", "ſ", "FALſE", "TRUE'x'",
]
_OTHER_TAILS = [";;", " x", " -- c", "; 1", ")", ",", ", (1"]


@st.composite
def _insert_texts(draw):
    """An INSERT text built from pieces the VALUES scan reads, with at
    most one piece it does not; and whether it has none."""
    head = draw(st.sampled_from(_SCANNED_HEADS))
    rows = [
        [draw(st.sampled_from(_SCANNED_LITERALS)) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    tail = draw(st.sampled_from(_SCANNED_TAILS))
    odd = draw(st.sampled_from(["none", "head", "literal", "tail"]))
    if odd == "head":
        head = draw(st.sampled_from(_OTHER_HEADS))
    elif odd == "literal":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_OTHER_LITERALS))
    elif odd == "tail":
        tail = draw(st.sampled_from(_OTHER_TAILS))
    texts = [
        draw(st.sampled_from(["({})", "( {} )", "(\t{}\n)"])).format(
            draw(st.sampled_from([", ", ",", " , ", ",\n  "])).join(row)
        )
        for row in rows
    ]
    body = draw(st.sampled_from([", ", ",", "\n, "])).join(texts)
    space = draw(st.sampled_from([" ", "", "\n  "]))
    return f"{head}{space}{body}{tail}", odd == "none"


class TestValuesScanMatchesTheTokenParser:
    """The VALUES scan reads exactly what the token parser reads, to the
    same values of the same types; what it declines, the token parser
    reads with its own errors and positions."""

    @settings(max_examples=1500, deadline=None)
    @given(_insert_texts())
    @example(("INSERT INTO t VALUES (1, -0.0, -0, 1.0, TRUE)", True))
    @example(("INSERT INTO t VALUES (12abc)", False))
    @example(("INSERT INTO t VALUES (1e)", False))
    @example(("INSERT INTO t VALUES (١)", False))
    @example(("INSERT INTO tvalues (1)", False))
    @example(("INSERT INTO select VALUES (1)", False))
    @example(("INSERT INTO t (null) VALUES (1)", False))
    def test_generated_inserts(self, case):
        text, scanned = case
        oracle = _insert_outcome(lambda text: parse_tokens(tokenize(text)), text)
        assert _insert_outcome(parse_statement, text) == oracle
        statement = scan_insert(text)
        if scanned:
            assert statement is not None, text
        if statement is not None:
            assert _insert_outcome(lambda text: statement, text) == oracle

    def test_the_benchmark_insert_is_scanned(self):
        values = ", ".join(f"({k}, {k + 800}, {k}, {k % 997})" for k in range(100))
        statement = scan_insert(f"INSERT INTO t VALUES {values}")
        assert statement is not None
        assert statement == parse_tokens(tokenize(f"INSERT INTO t VALUES {values}"))
        assert len(statement.rows) == 100 and statement.rows[-1] == (99, 899, 99, 99)
