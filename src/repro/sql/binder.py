"""Binder: resolve a parsed SELECT against the catalog into a logical plan.

Naming model
------------
For single-source queries, columns keep their base names, so the
optimizer's pipeline matcher sees base column names directly.  As soon
as a query has joins, every source is wrapped in a rename-only
projection mapping ``col`` to ``alias.col``; collisions become
impossible and the pipeline matcher still recovers base columns through
its rename tracking.

The virtual ``tid`` column (tuple identifiers, used by the paper's NUC
discovery query) is materialized on a scan whenever the query
references it.

Aggregation queries are normalized into::

    Project(final expressions)
      [Filter(HAVING)]
        Aggregate(group keys, collected aggregate calls)
          <bound FROM/WHERE subtree>

with every distinct aggregate call assigned a stable internal alias so
that SELECT, HAVING and ORDER BY can all refer to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BindError
from repro.exec import expressions as ex
from repro.exec.operators.aggregate import AggregateSpec
from repro.exec.operators.scan import TID_COLUMN
from repro.exec.operators.sort import SortKey
from repro.plan import logical as lp
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.types import DataType, common_type


@dataclass
class _Source:
    """One bound FROM item."""

    binding: str  # alias or table name
    plan: lp.LogicalPlan
    columns: list[str]  # column names as visible inside this source
    qualified: bool  # True when plan outputs "binding.col" names

    def output_name(self, column: str) -> str:
        return f"{self.binding}.{column}" if self.qualified else column


class _Scope:
    """Column resolution over the bound sources of one SELECT."""

    def __init__(self, sources: list[_Source]):
        self.sources = sources

    def resolve(self, column: ast.SqlColumn) -> str:
        """Resolve to the bound (possibly qualified) output name."""
        matches: list[str] = []
        for source in self.sources:
            if column.qualifier is not None and source.binding != column.qualifier:
                continue
            if column.name in source.columns:
                matches.append(source.output_name(column.name))
        if not matches:
            raise BindError(f"unknown column: {column.display()}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column: {column.display()}")
        return matches[0]


class Binder:
    """Bind parsed SELECT statements to logical plans."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- entry point ------------------------------------------------------

    def bind_select(self, select: ast.SqlSelect) -> lp.LogicalPlan:
        if select.from_table is None:
            raise BindError("SELECT without FROM is not supported")
        referenced = _collect_columns(select)
        sources = [self._bind_source(select.from_table, select, referenced)]
        qualified = bool(select.joins)
        if qualified:
            sources[0] = self._qualify(sources[0])
        plan = sources[0].plan
        for join in select.joins:
            source = self._qualify(
                self._bind_source(join.table, select, referenced)
            )
            plan = self._bind_join(plan, sources, source, join)
            sources.append(source)
        scope = _Scope(sources)
        # The running plan replaces each source's individual plan for
        # expression binding purposes.
        if select.where is not None:
            plan = lp.LogicalFilter(
                plan, self._bind_expr(select.where, scope, plan)
            )
        has_aggregates = (
            bool(select.group_by)
            or _has_aggregate(select.items)
            or (select.having is not None)
        )
        if has_aggregates:
            plan, output_names = self._bind_aggregate_query(select, scope, plan)
        else:
            plan, output_names = self._bind_plain_select(select, scope, plan)
        if select.distinct:
            plan = lp.LogicalDistinct(plan)
        hidden = False
        if select.order_by:
            # A plain SELECT may sort by a column it does not project.
            plan, hidden = self._bind_order(
                select,
                scope,
                plan,
                hideable=not (has_aggregates or select.distinct),
            )
        if select.limit is not None:
            plan = lp.LogicalLimit(plan, select.limit, select.offset)
        if hidden:
            plan = lp.LogicalProject(
                plan, tuple((name, ex.ColumnRef(name)) for name in output_names)
            )
        return plan

    # -- FROM -----------------------------------------------------------------

    def _bind_source(
        self,
        table_ref: ast.SqlTableRef,
        select: ast.SqlSelect,
        referenced: list[ast.SqlColumn],
    ) -> _Source:
        if isinstance(table_ref, ast.SqlNamedTable):
            table = self.catalog.table(table_ref.name)
            binding = table_ref.binding_name
            with_tid = _references_tid(referenced, binding, table.schema.names)
            # Projection pushdown: scan only the columns the query can
            # possibly touch (SELECT * keeps everything).
            if select.items:
                needed = {
                    column.name
                    for column in referenced
                    if column.qualifier is None or column.qualifier == binding
                }
                projected = tuple(
                    name for name in table.schema.names if name in needed
                )
                if not projected:
                    # Keep at least one column so the scan yields rows
                    # (e.g. SELECT COUNT(*) FROM t).
                    projected = (table.schema.names[0],)
            else:
                projected = None
            scan = lp.LogicalScan(table, projected, with_tid=with_tid)
            columns = (
                list(projected)
                if projected is not None
                else list(table.schema.names)
            )
            if with_tid:
                columns.append(TID_COLUMN)
            return _Source(binding, scan, columns, qualified=False)
        if isinstance(table_ref, ast.SqlDerivedTable):
            subplan = self.bind_select(table_ref.query)
            return _Source(
                table_ref.alias,
                subplan,
                list(subplan.schema.names),
                qualified=False,
            )
        raise BindError(f"unsupported FROM item: {table_ref!r}")

    @staticmethod
    def _qualify(source: _Source) -> _Source:
        """Wrap a source so its outputs are named ``binding.col``."""
        if source.qualified:
            return source
        outputs = tuple(
            (f"{source.binding}.{name}", ex.ColumnRef(name))
            for name in source.columns
        )
        return _Source(
            source.binding,
            lp.LogicalProject(source.plan, outputs),
            source.columns,
            qualified=True,
        )

    def _bind_join(
        self,
        plan: lp.LogicalPlan,
        bound_sources: list[_Source],
        new_source: _Source,
        join: ast.SqlJoinClause,
    ) -> lp.LogicalPlan:
        left_scope = _Scope(bound_sources)
        right_scope = _Scope([new_source])
        left_key, right_key = self._resolve_join_keys(
            join, left_scope, right_scope
        )
        # The keys compare as ``=`` does: same type, or INT64 with FLOAT64.
        common_type(
            plan.schema.field(left_key).dtype,
            new_source.plan.schema.field(right_key).dtype,
        )
        return lp.LogicalJoin(
            plan, new_source.plan, left_key, right_key, join.kind
        )

    @staticmethod
    def _resolve_join_keys(
        join: ast.SqlJoinClause, left_scope: _Scope, right_scope: _Scope
    ) -> tuple[str, str]:
        """Assign the two ON columns to the correct join sides."""

        def try_resolve(scope: _Scope, column: ast.SqlColumn) -> str | None:
            try:
                return scope.resolve(column)
            except BindError:
                return None

        first_left = try_resolve(left_scope, join.on_left)
        first_right = try_resolve(right_scope, join.on_left)
        second_left = try_resolve(left_scope, join.on_right)
        second_right = try_resolve(right_scope, join.on_right)
        if first_left is not None and second_right is not None:
            return first_left, second_right
        if second_left is not None and first_right is not None:
            return second_left, first_right
        raise BindError(
            f"cannot resolve join condition "
            f"{join.on_left.display()} = {join.on_right.display()}"
        )

    # -- plain (non-aggregate) SELECT ---------------------------------------------

    def _bind_plain_select(
        self,
        select: ast.SqlSelect,
        scope: _Scope,
        plan: lp.LogicalPlan,
    ) -> tuple[lp.LogicalPlan, list[str]]:
        if not select.items:  # SELECT *
            return plan, list(plan.schema.names)
        outputs: list[tuple[str, ex.Expression]] = []
        used: set[str] = set()
        for position, item in enumerate(select.items):
            expression = self._bind_expr(item.expression, scope, plan)
            name = _output_name(item, position, used)
            outputs.append((name, expression))
        return lp.LogicalProject(plan, tuple(outputs)), [
            name for name, __ in outputs
        ]

    # -- aggregation ------------------------------------------------------------------

    def _bind_aggregate_query(
        self,
        select: ast.SqlSelect,
        scope: _Scope,
        plan: lp.LogicalPlan,
    ) -> tuple[lp.LogicalPlan, list[str]]:
        group_names = [scope.resolve(column) for column in select.group_by]
        # Collect every distinct aggregate call across SELECT / HAVING /
        # ORDER BY and give each a stable internal alias.
        calls: dict[ast.SqlAggregate, str] = {}
        for item in select.items:
            _collect_aggregates(item.expression, calls)
        if select.having is not None:
            _collect_aggregates(select.having, calls)
        for order in select.order_by:
            _collect_aggregates(order.expression, calls)
        if not calls and not group_names:
            raise BindError("aggregate query without aggregates or GROUP BY")
        specs: list[AggregateSpec] = []
        for call, alias in calls.items():
            specs.append(self._aggregate_spec(call, alias, scope))
        aggregate = lp.LogicalAggregate(plan, tuple(group_names), tuple(specs))
        current: lp.LogicalPlan = aggregate
        agg_scope = _AggScope(group_names, calls, aggregate)
        if select.having is not None:
            current = lp.LogicalFilter(
                current, self._bind_agg_expr(select.having, agg_scope)
            )
        if not select.items:
            raise BindError("aggregate queries require an explicit SELECT list")
        outputs: list[tuple[str, ex.Expression]] = []
        used: set[str] = set()
        for position, item in enumerate(select.items):
            expression = self._bind_agg_expr(item.expression, agg_scope)
            name = _output_name(item, position, used)
            outputs.append((name, expression))
        return lp.LogicalProject(current, tuple(outputs)), [
            name for name, __ in outputs
        ]

    def _aggregate_spec(
        self, call: ast.SqlAggregate, alias: str, scope: _Scope
    ) -> AggregateSpec:
        if call.argument is None:
            return AggregateSpec("count_star", None, alias)
        column = scope.resolve(call.argument)
        if call.func == "count" and call.distinct:
            return AggregateSpec("count_distinct", column, alias)
        if call.distinct:
            raise BindError(f"DISTINCT is only supported inside COUNT")
        return AggregateSpec(call.func, column, alias)

    def _bind_agg_expr(
        self, expression: ast.SqlExpr, agg_scope: "_AggScope"
    ) -> ex.Expression:
        """Bind an expression over aggregate outputs and group keys."""
        if isinstance(expression, ast.SqlAggregate):
            return ex.ColumnRef(agg_scope.alias_of(expression))
        if isinstance(expression, ast.SqlColumn):
            return ex.ColumnRef(agg_scope.resolve_group_column(expression))
        if isinstance(expression, ast.SqlLiteral):
            return self._bind_literal(expression, None)
        if isinstance(expression, ast.SqlBinary):
            return self._combine_binary(
                expression,
                self._bind_agg_expr(expression.left, agg_scope),
                self._bind_agg_expr(expression.right, agg_scope),
                agg_scope.schema,
            )
        if isinstance(expression, ast.SqlNot):
            return ex.Not(self._bind_agg_expr(expression.operand, agg_scope))
        if isinstance(expression, ast.SqlIsNull):
            return ex.IsNull(
                self._bind_agg_expr(expression.operand, agg_scope),
                expression.negated,
            )
        if isinstance(expression, ast.SqlIn):
            return self._bind_in(
                self._bind_agg_expr(expression.operand, agg_scope), expression
            )
        if isinstance(expression, ast.SqlBetween):
            return self._bind_between(
                expression,
                lambda sub: self._bind_agg_expr(sub, agg_scope),
                agg_scope.schema,
            )
        raise BindError(f"unsupported expression: {expression!r}")

    # -- scalar expression binding -------------------------------------------------------

    def _bind_expr(
        self,
        expression: ast.SqlExpr,
        scope: _Scope,
        plan: lp.LogicalPlan,
    ) -> ex.Expression:
        if isinstance(expression, ast.SqlColumn):
            return ex.ColumnRef(scope.resolve(expression))
        if isinstance(expression, ast.SqlLiteral):
            return self._bind_literal(expression, None)
        if isinstance(expression, ast.SqlBinary):
            left = self._bind_expr(expression.left, scope, plan)
            right = self._bind_expr(expression.right, scope, plan)
            return self._combine_binary(expression, left, right, plan.schema)
        if isinstance(expression, ast.SqlNot):
            return ex.Not(self._bind_expr(expression.operand, scope, plan))
        if isinstance(expression, ast.SqlIsNull):
            return ex.IsNull(
                self._bind_expr(expression.operand, scope, plan),
                expression.negated,
            )
        if isinstance(expression, ast.SqlIn):
            return self._bind_in(
                self._bind_expr(expression.operand, scope, plan), expression
            )
        if isinstance(expression, ast.SqlBetween):
            return self._bind_between(
                expression,
                lambda sub: self._bind_expr(sub, scope, plan),
                plan.schema,
            )
        if isinstance(expression, ast.SqlAggregate):
            raise BindError(
                f"aggregate {expression.display()} not allowed here"
            )
        raise BindError(f"unsupported expression: {expression!r}")

    @staticmethod
    def _bind_in(operand: ex.Expression, expression: ast.SqlIn) -> ex.Expression:
        import datetime as _dt

        from repro.types.datatypes import date_to_days

        values = tuple(
            date_to_days(value)
            if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime)
            else value
            for value in expression.values
        )
        return ex.InList(operand, values, expression.negated)

    def _bind_between(
        self, expression: ast.SqlBetween, bind, schema
    ) -> ex.Expression:
        operand = bind(expression.operand)
        low = self._retype_null(bind(expression.low), operand, schema)
        high = self._retype_null(bind(expression.high), operand, schema)
        inside = ex.And(
            ex.Comparison(">=", operand, low),
            ex.Comparison("<=", operand, high),
        )
        return ex.Not(inside) if expression.negated else inside

    def _combine_binary(
        self,
        expression: ast.SqlBinary,
        left: ex.Expression,
        right: ex.Expression,
        schema,
    ) -> ex.Expression:
        op = expression.op
        if op == "and":
            return ex.And(left, right)
        if op == "or":
            return ex.Or(left, right)
        if op in ("+", "-", "*", "/"):
            return ex.Arithmetic(op, left, right)
        # Comparison: give untyped NULL literals the other side's type.
        left = self._retype_null(left, right, schema)
        right = self._retype_null(right, left, schema)
        return ex.Comparison(op, left, right)

    @staticmethod
    def _retype_null(
        candidate: ex.Expression, other: ex.Expression, schema
    ) -> ex.Expression:
        if (
            isinstance(candidate, ex.Literal)
            and candidate.value is None
            and candidate.dtype is None
        ):
            return ex.Literal(None, other.output_type(schema))
        return candidate

    @staticmethod
    def _bind_literal(
        literal: ast.SqlLiteral, dtype: DataType | None
    ) -> ex.Expression:
        if literal.value is None:
            return ex.Literal(None, dtype)
        return ex.literal(literal.value, slot=literal.slot)

    # -- ORDER BY ---------------------------------------------------------------------------

    def _bind_order(
        self,
        select: ast.SqlSelect,
        scope: _Scope,
        plan: lp.LogicalPlan,
        *,
        hideable: bool,
    ) -> tuple[lp.LogicalPlan, bool]:
        """*plan* sorted by the ORDER BY keys, and whether a key had to be
        projected as a hidden column, which the caller drops after the
        sort and any LIMIT.

        A key names an output column.  Failing that, in a plain SELECT
        with a list (*hideable*, and *plan* its Project), it names a
        column of the FROM scope, which the Project then carries too.
        """
        names = plan.schema.names
        project = (
            plan if hideable and isinstance(plan, lp.LogicalProject) else None
        )
        hidden: dict[str, str] = {}  # scope column -> hidden output name
        keys: list[SortKey] = []
        for item in select.order_by:
            expression = item.expression
            if not isinstance(expression, ast.SqlColumn):
                raise BindError("ORDER BY supports column references only")
            name = self._order_output(expression, names)
            if name is None:
                if project is None:
                    raise BindError(
                        f"ORDER BY column {expression.display()} is not in "
                        "the output"
                    )
                column = scope.resolve(expression)
                name = hidden.get(column)
                if name is None:
                    name = f"__order_{len(hidden)}"
                    while name in names:
                        name = f"_{name}"
                    hidden[column] = name
            keys.append(SortKey(name, item.ascending))
        if project is not None and hidden:
            plan = lp.LogicalProject(
                project.child,
                project.outputs
                + tuple(
                    (name, ex.ColumnRef(column)) for column, name in hidden.items()
                ),
            )
        return lp.LogicalSort(plan, tuple(keys)), bool(hidden)

    @staticmethod
    def _order_output(
        expression: ast.SqlColumn, names: tuple[str, ...]
    ) -> str | None:
        """The output column an ORDER BY key names, or None."""
        candidates = [
            name
            for name in names
            if name == expression.name
            or name == f"{expression.qualifier}.{expression.name}"
            or (expression.qualifier is None and name.endswith(f".{expression.name}"))
        ]
        if len(candidates) > 1:
            raise BindError(f"ambiguous ORDER BY column {expression.display()}")
        return candidates[0] if candidates else None


class _AggScope:
    """Resolution scope above an aggregation."""

    def __init__(
        self,
        group_names: list[str],
        calls: dict[ast.SqlAggregate, str],
        aggregate: lp.LogicalAggregate,
    ):
        self._group_names = group_names
        self._calls = calls
        self.schema = aggregate.schema

    def alias_of(self, call: ast.SqlAggregate) -> str:
        try:
            return self._calls[call]
        except KeyError:  # pragma: no cover - collected beforehand
            raise BindError(f"aggregate {call.display()} was not collected")

    def resolve_group_column(self, column: ast.SqlColumn) -> str:
        matches = [
            name
            for name in self._group_names
            if name == column.name
            or name == f"{column.qualifier}.{column.name}"
            or (column.qualifier is None and name.endswith(f".{column.name}"))
        ]
        if not matches:
            raise BindError(
                f"column {column.display()} must appear in GROUP BY"
            )
        if len(matches) > 1:
            raise BindError(f"ambiguous column {column.display()}")
        return matches[0]


# -- AST walking helpers -------------------------------------------------------------


def _collect_columns(select: ast.SqlSelect) -> list[ast.SqlColumn]:
    """All column references in one SELECT (not descending into derived
    tables — those bind in their own scope)."""
    found: list[ast.SqlColumn] = []

    def walk(expression: ast.SqlExpr | None) -> None:
        if expression is None:
            return
        if isinstance(expression, ast.SqlColumn):
            found.append(expression)
        elif isinstance(expression, ast.SqlBinary):
            walk(expression.left)
            walk(expression.right)
        elif isinstance(expression, ast.SqlNot):
            walk(expression.operand)
        elif isinstance(expression, ast.SqlIsNull):
            walk(expression.operand)
        elif isinstance(expression, ast.SqlIn):
            walk(expression.operand)
        elif isinstance(expression, ast.SqlBetween):
            walk(expression.operand)
            walk(expression.low)
            walk(expression.high)
        elif isinstance(expression, ast.SqlAggregate):
            if expression.argument is not None:
                found.append(expression.argument)

    for item in select.items:
        walk(item.expression)
    for join in select.joins:
        found.append(join.on_left)
        found.append(join.on_right)
    walk(select.where)
    found.extend(select.group_by)
    walk(select.having)
    for order in select.order_by:
        walk(order.expression)
    return found


def _references_tid(
    referenced: list[ast.SqlColumn],
    binding: str,
    table_columns: tuple[str, ...],
) -> bool:
    if TID_COLUMN in table_columns:
        return False  # a real column shadows the virtual one
    for column in referenced:
        if column.name != TID_COLUMN:
            continue
        if column.qualifier is None or column.qualifier == binding:
            return True
    return False


def _has_aggregate(items: tuple[ast.SqlSelectItem, ...]) -> bool:
    def walk(expression: ast.SqlExpr) -> bool:
        if isinstance(expression, ast.SqlAggregate):
            return True
        if isinstance(expression, ast.SqlBinary):
            return walk(expression.left) or walk(expression.right)
        if isinstance(expression, ast.SqlNot):
            return walk(expression.operand)
        if isinstance(expression, ast.SqlIsNull):
            return walk(expression.operand)
        if isinstance(expression, (ast.SqlIn, ast.SqlBetween)):
            return walk(expression.operand)
        return False

    return any(walk(item.expression) for item in items)


def _collect_aggregates(
    expression: ast.SqlExpr, calls: dict[ast.SqlAggregate, str]
) -> None:
    if isinstance(expression, ast.SqlAggregate):
        if expression not in calls:
            calls[expression] = f"__agg_{len(calls)}"
        return
    if isinstance(expression, ast.SqlBinary):
        _collect_aggregates(expression.left, calls)
        _collect_aggregates(expression.right, calls)
    elif isinstance(expression, ast.SqlNot):
        _collect_aggregates(expression.operand, calls)
    elif isinstance(expression, ast.SqlIsNull):
        _collect_aggregates(expression.operand, calls)
    elif isinstance(expression, (ast.SqlIn, ast.SqlBetween)):
        _collect_aggregates(expression.operand, calls)


def _output_name(
    item: ast.SqlSelectItem, position: int, used: set[str]
) -> str:
    if item.alias:
        name = item.alias
    elif isinstance(item.expression, ast.SqlColumn):
        name = item.expression.name
    elif isinstance(item.expression, ast.SqlAggregate):
        name = item.expression.display()
    else:
        name = f"col_{position}"
    base = name
    suffix = 1
    while name in used:
        name = f"{base}_{suffix}"
        suffix += 1
    used.add(name)
    return name
