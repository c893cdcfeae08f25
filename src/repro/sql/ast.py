"""Abstract syntax tree for the supported SQL subset.

The AST is purely syntactic: names are unresolved strings, expressions
carry no types.  The :mod:`repro.sql.binder` turns these into logical
plans against a catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- scalar expressions --------------------------------------------------------


class SqlExpr:
    """Base class for syntactic expressions."""


@dataclass(frozen=True)
class SqlColumn(SqlExpr):
    """Column reference: ``name`` or ``qualifier.name``."""

    name: str
    qualifier: str | None = None

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class SqlLiteral(SqlExpr):
    """Literal: int, float, str, bool, datetime.date, or None (NULL).

    ``slot`` is the number/string token the literal was read from
    (:attr:`repro.sql.lexer.Token.slot`); literals the parser folds or
    synthesizes have none.
    """

    value: object
    slot: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SqlBinary(SqlExpr):
    """Binary operation: comparison, arithmetic, AND, OR."""

    op: str
    left: SqlExpr
    right: SqlExpr


@dataclass(frozen=True)
class SqlNot(SqlExpr):
    operand: SqlExpr


@dataclass(frozen=True)
class SqlIsNull(SqlExpr):
    operand: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class SqlIn(SqlExpr):
    """``expr [NOT] IN (literal, ...)``."""

    operand: SqlExpr
    values: tuple[object, ...]
    negated: bool = False


@dataclass(frozen=True)
class SqlBetween(SqlExpr):
    """``expr [NOT] BETWEEN low AND high`` (bounds inclusive)."""

    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class SqlAggregate(SqlExpr):
    """Aggregate call: COUNT/SUM/MIN/MAX/AVG.

    ``argument`` is None for COUNT(*); ``distinct`` marks
    COUNT(DISTINCT col).
    """

    func: str
    argument: SqlColumn | None
    distinct: bool = False

    def display(self) -> str:
        if self.argument is None:
            return f"{self.func}(*)"
        inner = self.argument.display()
        if self.distinct:
            inner = f"distinct {inner}"
        return f"{self.func}({inner})"


# -- table references -------------------------------------------------------------


class SqlTableRef:
    """Base class for FROM items."""


@dataclass(frozen=True)
class SqlNamedTable(SqlTableRef):
    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SqlDerivedTable(SqlTableRef):
    query: "SqlSelect"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass(frozen=True)
class SqlJoinClause:
    """One JOIN item: kind is "inner" or "left_outer"."""

    kind: str
    table: SqlTableRef
    # Equi-join condition: left column = right column (resolved later).
    on_left: SqlColumn
    on_right: SqlColumn


# -- statements ----------------------------------------------------------------------


class SqlStatement:
    """Base class for statements."""


@dataclass(frozen=True)
class SqlSelectItem:
    expression: SqlExpr
    alias: str | None = None


@dataclass(frozen=True)
class SqlOrderItem:
    expression: SqlExpr
    ascending: bool = True


@dataclass(frozen=True)
class SqlSelect(SqlStatement):
    """A SELECT query."""

    items: tuple[SqlSelectItem, ...]  # empty means SELECT *
    from_table: SqlTableRef | None
    joins: tuple[SqlJoinClause, ...] = ()
    where: SqlExpr | None = None
    group_by: tuple[SqlColumn, ...] = ()
    having: SqlExpr | None = None
    order_by: tuple[SqlOrderItem, ...] = ()
    limit: int | None = None
    offset: int = 0
    distinct: bool = False


@dataclass(frozen=True)
class SqlColumnDef:
    name: str
    type_name: str
    nullable: bool = True


@dataclass(frozen=True)
class SqlCreateTable(SqlStatement):
    name: str
    columns: tuple[SqlColumnDef, ...]
    partitions: int = 1


@dataclass(frozen=True)
class SqlDropTable(SqlStatement):
    name: str


@dataclass(frozen=True)
class SqlCreatePatchIndex(SqlStatement):
    """CREATE PATCHINDEX name ON table(column) TYPE UNIQUE|SORTED
    [MODE IDENTIFIER|BITMAP|AUTO] [THRESHOLD <float>]
    [SCOPE GLOBAL|PARTITION]"""

    name: str
    table: str
    column: str
    kind: str
    mode: str = "auto"
    threshold: float = 1.0
    scope: str = "global"
    ascending: bool = True


@dataclass(frozen=True)
class SqlDropPatchIndex(SqlStatement):
    name: str


@dataclass(frozen=True)
class SqlInsert(SqlStatement):
    table: str
    rows: tuple[tuple[object, ...], ...]
    columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SqlDelete(SqlStatement):
    table: str
    where: SqlExpr | None = None


@dataclass(frozen=True)
class SqlCheckpoint(SqlStatement):
    """``CHECKPOINT``: flush durable state through the storage engine."""


@dataclass(frozen=True)
class SqlExplain(SqlStatement):
    query: SqlSelect
    #: EXPLAIN ANALYZE: execute the query and annotate the plan with
    #: actual row counts, wall times and PatchSelect counters.
    analyze: bool = False
