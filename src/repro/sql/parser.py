"""Recursive-descent parser for the SQL subset.

Expression precedence (loosest to tightest): OR, AND, NOT, comparison /
IS [NOT] NULL, additive (+, -), multiplicative (*, /), unary minus,
primary (literal / column / parenthesized expression / aggregate).
"""

from __future__ import annotations

import datetime as _dt

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, number_value, tokenize

_AGG_KEYWORDS = ("count", "sum", "min", "max", "avg")
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
    return parse_tokens(tokenize(text))


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._position + offset, len(self._tokens) - 1)]

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
        if self.peek().kind == "punct" and self.peek().value == char:
            self.advance()
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
                    self.advance()
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
        if token.kind == "number":
            self.advance()
            return ast.SqlLiteral(number_value(token.value), token.slot)
        if token.kind == "string":
            self.advance()
            return ast.SqlLiteral(token.value, token.slot)
        if token.is_keyword("null"):
            self.advance()
            return ast.SqlLiteral(None)
        if token.is_keyword("true"):
            self.advance()
            return ast.SqlLiteral(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.SqlLiteral(False)
        if token.is_keyword("date") and self.peek(1).kind == "string":
            self.advance()
            literal = self.advance()
            return ast.SqlLiteral(_parse_date(literal.value, literal.position))
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

    def _literal_value(self) -> object:
        expression = self.expression()
        if isinstance(expression, ast.SqlLiteral):
            return expression.value
        raise SqlSyntaxError("INSERT values must be literals")


def _parse_date(text: str, position: int) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text)
    except ValueError as exc:
        raise SqlSyntaxError(f"invalid DATE literal {text!r}", position) from exc
