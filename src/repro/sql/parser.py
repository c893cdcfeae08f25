"""Recursive-descent parser for the SQL subset.

Expression precedence (loosest to tightest): OR, AND, NOT, comparison /
IS [NOT] NULL, additive (+, -), multiplicative (*, /), unary minus,
primary (literal / column / parenthesized expression / aggregate).
"""

from __future__ import annotations

import datetime as _dt
import re

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import KEYWORDS, Token, number_value, tokenize

_AGG_KEYWORDS = ("count", "sum", "min", "max", "avg")
_KEYWORD_LITERALS = {"null": None, "true": True, "false": False}
#: What :meth:`_Parser._literal_leaf` returns when no literal starts.
_MISSING = object()
_TYPE_KEYWORDS = (
    "integer",
    "bigint",
    "int",
    "float",
    "double",
    "real",
    "varchar",
    "char",
    "text",
    "bool",
    "boolean",
    "date",
    "string",
)


def parse_statement(text: str) -> ast.SqlStatement:
    """Parse one SQL statement (a trailing semicolon is allowed)."""
    return scan_insert(text) or parse_tokens(tokenize(text))


def parse_tokens(tokens: list[Token]) -> ast.SqlStatement:
    """Parse one already-tokenized statement (see :func:`tokenize`)."""
    return _parse(tokens, _Parser.statement)


def parse_select(tokens: list[Token]) -> ast.SqlSelect:
    """Parse tokens that must be one ``SELECT`` (``EXPLAIN``'s operand)."""
    return _parse(tokens, _Parser.select)


def _parse(tokens: list[Token], rule):
    parser = _Parser(tokens)
    statement = rule(parser)
    parser.accept_punct(";")
    parser.expect_eof()
    return statement


# -- the VALUES scan -----------------------------------------------------------
#
# An INSERT's text is almost all literals, and tokenizing it costs a
# Token per literal and per comma and parenthesis.  scan_insert reads
# the common form in two regex passes instead: one match checks the
# whole VALUES body, one findall pulls out its literals and row ends.
# It accepts a strict subset of what _Parser._insert accepts, to the
# same SqlInsert: unquoted non-keyword names, and literals that are
# numbers in the lexer's syntax with an optional ``-`` directly before
# them, strings, NULL, TRUE and FALSE.  A word is ``[A-Za-z_]\w*`` and
# ends at ``\b``, as the lexer's words do.  No pattern is
# case-insensitive: under re.IGNORECASE ``[a-z]`` also matches U+0130,
# U+0131, U+017F and U+212A, so ``FAL\u017fE`` would read as FALSE.
# Digits are ``[0-9]``: ``\d`` matches the non-ASCII digits the lexer
# rejects.  Anything else (a comment, ``DATE '...'``, a parenthesised
# or doubly negated literal, a quoted or keyword name, any error) is
# declined, and parse_tokens reads it with its errors and positions.

_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_STRING = r"'[^']*(?:''[^']*)*'"
_LITERAL = (
    rf"(?:-?{_NUMBER}|{_STRING}"
    r"|(?:[Nn][Uu][Ll][Ll]|[Tt][Rr][Uu][Ee]|[Ff][Aa][Ll][Ss][Ee])\b)"
)
_VALUES_ROW = rf"\(\s*{_LITERAL}\s*(?:,\s*{_LITERAL}\s*)*\)"
#: ``INSERT INTO <table> [(<columns>)] VALUES``, its words as groups.
_INSERT_HEAD = re.compile(
    r"""
    \s*([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\b\s*
    (?:\(\s*([A-Za-z_]\w*\b\s*(?:,\s*[A-Za-z_]\w*\b\s*)*)\)\s*)?
    ([A-Za-z_]\w*)\b\s*
    """,
    re.VERBOSE,
)
#: The rest of the text after VALUES: rows, then an optional ``;``.
_VALUES_BODY = re.compile(rf"{_VALUES_ROW}(?:\s*,\s*{_VALUES_ROW})*\s*(?:;\s*)?")
#: One item of a checked body, after the separators before it: a
#: literal, or the ``)`` that ends a row.
_VALUES_ITEM = re.compile(rf"[\s,(]*(\)|-?{_NUMBER}|{_STRING}|[A-Za-z]+)")


def scan_insert(text: str) -> ast.SqlInsert | None:
    """*text* as the :class:`ast.SqlInsert` :func:`parse_tokens` builds
    for it, when it is an INSERT of the form the VALUES scan reads;
    otherwise None."""
    head = _INSERT_HEAD.match(text)
    if head is None:
        return None
    insert, into, table, names, values = head.groups()
    if (
        insert.lower() != "insert"
        or into.lower() != "into"
        or values.lower() != "values"
        or (table := table.lower()) in KEYWORDS
    ):
        return None
    columns: tuple[str, ...] | None = None
    if names is not None:
        columns = tuple(name.strip().lower() for name in names.split(","))
        if not KEYWORDS.isdisjoint(columns):
            return None
    start = head.end()
    if _VALUES_BODY.fullmatch(text, start) is None:
        return None
    rows: list[tuple[object, ...]] = []
    row: list[object] = []
    for item in _VALUES_ITEM.findall(text, start):
        if item.isdigit():  # number_value's int case, inlined
            row.append(int(item))
        elif item == ")":
            rows.append(tuple(row))
            row = []
        elif item[0] == "'":
            row.append(item[1:-1].replace("''", "'"))
        elif item[0] == "-":
            row.append(-number_value(item[1:]))
        elif item[0].isalpha():
            row.append(_KEYWORD_LITERALS[item.lower()])
        else:
            row.append(number_value(item))
    return ast.SqlInsert(table, tuple(rows), columns)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # Past the end reads the eof token.  A try rather than min():
        # peek runs a few times per token, and a try that does not
        # raise costs nothing.
        try:
            return self._tokens[self._position + offset]
        except IndexError:
            return self._tokens[-1]

    def advance(self) -> Token:
        token = self.peek()
        self._position += 1
        return token

    def accept_keyword(self, *words: str) -> Token | None:
        if self.peek().is_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, *words: str) -> Token:
        token = self.accept_keyword(*words)
        if token is None:
            raise SqlSyntaxError(
                f"expected {' / '.join(word.upper() for word in words)}, "
                f"found {self.peek()}",
                self.peek().position,
            )
        return token

    def accept_punct(self, char: str) -> bool:
        token = self.peek()
        if token.kind == "punct" and token.value == char:
            self._position += 1
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise SqlSyntaxError(
                f"expected {char!r}, found {self.peek()}", self.peek().position
            )

    def accept_operator(self, *operators: str) -> Token | None:
        token = self.peek()
        if token.kind == "operator" and token.value in operators:
            return self.advance()
        return None

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.kind == "identifier":
            return self.advance().value
        # Non-reserved keywords usable as identifiers in practice.
        if token.kind == "keyword" and token.value in _TYPE_KEYWORDS + (
            "type",
            "mode",
            "threshold",
            "checkpoint",
            "count",
            "sum",
            "min",
            "max",
            "avg",
            "values",
        ):
            return self.advance().value
        raise SqlSyntaxError(
            f"expected identifier, found {token}", token.position
        )

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input: {self.peek()}", self.peek().position
            )

    # -- statements ----------------------------------------------------------

    def statement(self) -> ast.SqlStatement:
        token = self.peek()
        if token.is_keyword("select"):
            return self.select()
        if token.is_keyword("explain"):
            self.advance()
            analyze = bool(self.accept_keyword("analyze"))
            return ast.SqlExplain(self.select(), analyze=analyze)
        if token.is_keyword("create"):
            return self._create()
        if token.is_keyword("drop"):
            return self._drop()
        if token.is_keyword("insert"):
            return self._insert()
        if token.is_keyword("delete"):
            return self._delete()
        if token.is_keyword("checkpoint"):
            self.advance()
            return ast.SqlCheckpoint()
        raise SqlSyntaxError(f"unsupported statement: {token}", token.position)

    def _create(self) -> ast.SqlStatement:
        self.expect_keyword("create")
        if self.accept_keyword("table"):
            return self._create_table()
        if self.accept_keyword("patchindex"):
            return self._create_patchindex()
        raise SqlSyntaxError(
            f"expected TABLE or PATCHINDEX after CREATE, found {self.peek()}",
            self.peek().position,
        )

    def _create_table(self) -> ast.SqlCreateTable:
        name = self.expect_identifier()
        self.expect_punct("(")
        columns: list[ast.SqlColumnDef] = []
        while True:
            column_name = self.expect_identifier()
            type_token = self.peek()
            if type_token.kind not in ("keyword", "identifier"):
                raise SqlSyntaxError(
                    f"expected a type name, found {type_token}",
                    type_token.position,
                )
            type_name = self.advance().value
            # Consume a parenthesized length, e.g. VARCHAR(20).
            if self.accept_punct("("):
                while not self.accept_punct(")"):
                    if self.advance().kind == "eof":
                        raise SqlSyntaxError(
                            f"expected ')', found {self.peek()}", self.peek().position
                        )
            nullable = True
            if self.accept_keyword("not"):
                self.expect_keyword("null")
                nullable = False
            columns.append(ast.SqlColumnDef(column_name, type_name, nullable))
            if self.accept_punct(","):
                continue
            self.expect_punct(")")
            break
        partitions = 1
        if self.accept_keyword("partitions"):
            partitions = int(self._expect_number())
        return ast.SqlCreateTable(name, tuple(columns), partitions)

    def _create_patchindex(self) -> ast.SqlCreatePatchIndex:
        name = self.expect_identifier()
        self.expect_keyword("on")
        table = self.expect_identifier()
        self.expect_punct("(")
        column = self.expect_identifier()
        self.expect_punct(")")
        self.expect_keyword("type")
        kind_token = self.expect_keyword("unique", "sorted")
        ascending = True
        if kind_token.value == "sorted":
            if self.accept_keyword("desc", "descending"):
                ascending = False
            else:
                self.accept_keyword("asc", "ascending")
        mode = "auto"
        threshold = 1.0
        scope = "global"
        while True:
            if self.accept_keyword("mode"):
                mode = self.expect_keyword("identifier", "bitmap", "auto").value
                continue
            if self.accept_keyword("threshold"):
                threshold = float(self._expect_number())
                continue
            if self.accept_keyword("scope"):
                scope = self.expect_keyword("global", "partition").value
                continue
            break
        return ast.SqlCreatePatchIndex(
            name, table, column, kind_token.value, mode, threshold, scope,
            ascending,
        )

    def _drop(self) -> ast.SqlStatement:
        self.expect_keyword("drop")
        if self.accept_keyword("table"):
            return ast.SqlDropTable(self.expect_identifier())
        if self.accept_keyword("patchindex"):
            return ast.SqlDropPatchIndex(self.expect_identifier())
        raise SqlSyntaxError(
            f"expected TABLE or PATCHINDEX after DROP, found {self.peek()}",
            self.peek().position,
        )

    def _insert(self) -> ast.SqlInsert:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_identifier()
        columns: tuple[str, ...] | None = None
        if self.accept_punct("("):
            names: list[str] = [self.expect_identifier()]
            while self.accept_punct(","):
                names.append(self.expect_identifier())
            self.expect_punct(")")
            columns = tuple(names)
        self.expect_keyword("values")
        rows: list[tuple[object, ...]] = []
        while True:
            self.expect_punct("(")
            row: list[object] = [self._literal_value()]
            while self.accept_punct(","):
                row.append(self._literal_value())
            self.expect_punct(")")
            rows.append(tuple(row))
            if not self.accept_punct(","):
                break
        return ast.SqlInsert(table, tuple(rows), columns)

    def _delete(self) -> ast.SqlDelete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_identifier()
        where = None
        if self.accept_keyword("where"):
            where = self.expression()
        return ast.SqlDelete(table, where)

    # -- SELECT --------------------------------------------------------------------

    def select(self) -> ast.SqlSelect:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct") is not None
        items: list[ast.SqlSelectItem] = []
        star = False
        if self.accept_operator("*"):
            star = True
        else:
            items.append(self._select_item())
            while self.accept_punct(","):
                items.append(self._select_item())
        from_table: ast.SqlTableRef | None = None
        joins: list[ast.SqlJoinClause] = []
        if self.accept_keyword("from"):
            from_table = self._table_ref()
            while True:
                join = self._join_clause()
                if join is None:
                    break
                joins.append(join)
        where = self.expression() if self.accept_keyword("where") else None
        group_by: list[ast.SqlColumn] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self._column_ref())
            while self.accept_punct(","):
                group_by.append(self._column_ref())
        having = self.expression() if self.accept_keyword("having") else None
        order_by: list[ast.SqlOrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._order_item())
            while self.accept_punct(","):
                order_by.append(self._order_item())
        limit: int | None = None
        offset = 0
        if self.accept_keyword("limit"):
            limit = int(self._expect_number())
            if self.accept_keyword("offset"):
                offset = int(self._expect_number())
        if star and (items or not from_table):
            raise SqlSyntaxError("SELECT * requires a FROM clause")
        return ast.SqlSelect(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SqlSelectItem:
        expression = self.expression()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.peek().kind == "identifier":
            alias = self.advance().value
        return ast.SqlSelectItem(expression, alias)

    def _order_item(self) -> ast.SqlOrderItem:
        expression = self.expression()
        ascending = True
        if self.accept_keyword("desc", "descending"):
            ascending = False
        else:
            self.accept_keyword("asc", "ascending")
        return ast.SqlOrderItem(expression, ascending)

    def _table_ref(self) -> ast.SqlTableRef:
        if self.accept_punct("("):
            query = self.select()
            self.expect_punct(")")
            self.accept_keyword("as")
            alias = self.expect_identifier()
            return ast.SqlDerivedTable(query, alias)
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.peek().kind == "identifier":
            alias = self.advance().value
        return ast.SqlNamedTable(name, alias)

    def _join_clause(self) -> ast.SqlJoinClause | None:
        kind: str | None = None
        if self.accept_keyword("join"):
            kind = "inner"
        elif self.peek().is_keyword("inner") and self.peek(1).is_keyword("join"):
            self.advance()
            self.advance()
            kind = "inner"
        elif self.peek().is_keyword("left"):
            self.advance()
            self.accept_keyword("outer")
            self.expect_keyword("join")
            kind = "left_outer"
        if kind is None:
            return None
        table = self._table_ref()
        self.expect_keyword("on")
        left = self._column_ref()
        operator = self.accept_operator("=")
        if operator is None:
            raise SqlSyntaxError(
                f"only equi-join ON conditions are supported, found {self.peek()}",
                self.peek().position,
            )
        right = self._column_ref()
        return ast.SqlJoinClause(kind, table, left, right)

    # -- expressions --------------------------------------------------------------------

    def expression(self) -> ast.SqlExpr:
        return self._or_expr()

    def _or_expr(self) -> ast.SqlExpr:
        left = self._and_expr()
        while self.accept_keyword("or"):
            left = ast.SqlBinary("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.SqlExpr:
        left = self._not_expr()
        while self.accept_keyword("and"):
            left = ast.SqlBinary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.SqlExpr:
        if self.accept_keyword("not"):
            return ast.SqlNot(self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.SqlExpr:
        left = self._additive()
        if self.accept_keyword("is"):
            negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return ast.SqlIsNull(left, negated)
        negated = False
        if self.peek().is_keyword("not") and self.peek(1).is_keyword(
            "in", "between"
        ):
            self.advance()
            negated = True
        if self.accept_keyword("in"):
            return self._in_list(left, negated)
        if self.accept_keyword("between"):
            low = self._additive()
            self.expect_keyword("and")
            high = self._additive()
            return ast.SqlBetween(left, low, high, negated)
        operator = self.accept_operator("=", "!=", "<>", "<", "<=", ">", ">=")
        if operator is not None:
            return ast.SqlBinary(operator.value, left, self._additive())
        return left

    def _in_list(self, operand: ast.SqlExpr, negated: bool) -> ast.SqlIn:
        self.expect_punct("(")
        values: list[object] = [self._literal_value()]
        while self.accept_punct(","):
            values.append(self._literal_value())
        self.expect_punct(")")
        if any(value is None for value in values):
            raise SqlSyntaxError("NULL is not supported inside IN lists")
        return ast.SqlIn(operand, tuple(values), negated)

    def _additive(self) -> ast.SqlExpr:
        left = self._multiplicative()
        while True:
            operator = self.accept_operator("+", "-")
            if operator is None:
                return left
            left = ast.SqlBinary(operator.value, left, self._multiplicative())

    def _multiplicative(self) -> ast.SqlExpr:
        left = self._unary()
        while True:
            operator = self.accept_operator("*", "/")
            if operator is None:
                return left
            left = ast.SqlBinary(operator.value, left, self._unary())

    def _unary(self) -> ast.SqlExpr:
        if self.accept_operator("-"):
            operand = self._unary()
            if isinstance(operand, ast.SqlLiteral) and isinstance(
                operand.value, (int, float)
            ):
                return ast.SqlLiteral(-operand.value)
            return ast.SqlBinary("-", ast.SqlLiteral(0), operand)
        return self._primary()

    def _primary(self) -> ast.SqlExpr:
        token = self.peek()
        value = self._literal_leaf()
        if value is not _MISSING:
            return ast.SqlLiteral(value, token.slot)
        if token.is_keyword(*_AGG_KEYWORDS):
            return self._aggregate()
        if self.accept_punct("("):
            inner = self.expression()
            self.expect_punct(")")
            return inner
        if token.kind == "identifier":
            return self._column_ref()
        raise SqlSyntaxError(f"unexpected token {token}", token.position)

    def _aggregate(self) -> ast.SqlAggregate:
        func = self.advance().value
        self.expect_punct("(")
        if func == "count" and self.accept_operator("*"):
            self.expect_punct(")")
            return ast.SqlAggregate("count", None)
        distinct = self.accept_keyword("distinct") is not None
        argument = self._column_ref()
        self.expect_punct(")")
        return ast.SqlAggregate(func, argument, distinct)

    def _column_ref(self) -> ast.SqlColumn:
        first = self.expect_identifier()
        if self.accept_punct("."):
            second = self.expect_identifier()
            return ast.SqlColumn(second, qualifier=first)
        return ast.SqlColumn(first)

    # -- literal helpers ---------------------------------------------------------

    def _expect_number(self) -> float:
        token = self.peek()
        if token.kind != "number":
            raise SqlSyntaxError(
                f"expected a number, found {token}", token.position
            )
        self.advance()
        return number_value(token.value)

    def _literal_leaf(self) -> object:
        """Consume a number, string, NULL, TRUE, FALSE or DATE 'x' and
        return its value; return ``_MISSING``, consuming nothing, if the
        next token starts none of them."""
        token = self.peek()
        kind = token.kind
        if kind == "number":
            self.advance()
            return number_value(token.value)
        if kind == "string":
            self.advance()
            return token.value
        if kind == "keyword":
            if token.value in _KEYWORD_LITERALS:
                self.advance()
                return _KEYWORD_LITERALS[token.value]
            if token.value == "date" and self.peek(1).kind == "string":
                self.advance()
                literal = self.advance()
                return _parse_date(literal.value, literal.position)
        return _MISSING

    def _literal_value(self) -> object:
        """One literal of a VALUES row or an IN list: a literal leaf,
        negated or in parentheses.

        Accepts exactly the input whose :meth:`expression` is an
        :class:`ast.SqlLiteral`, with the same value, without climbing
        the expression ladder per literal.
        """
        value = self._literal_leaf()
        if value is not _MISSING:
            return value
        token = self.advance()
        if token.kind == "punct" and token.value == "(":
            value = self._literal_value()
            self.expect_punct(")")
            return value
        if token.kind == "operator" and token.value == "-":
            value = self._literal_value()
            if isinstance(value, (int, float)):
                return -value
        raise SqlSyntaxError("INSERT values must be literals", token.position)


def _parse_date(text: str, position: int) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text)
    except ValueError as exc:
        raise SqlSyntaxError(f"invalid DATE literal {text!r}", position) from exc
