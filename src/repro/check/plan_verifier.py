"""Pre-execution verification of physical plans.

The optimizer rewrites queries into patched plans (distinct / sort /
join over ``R \\ P_c ∪ P_c``, paper §VI-B).  Each rewrite is only correct
under invariants that the operator constructors cannot see — a
MergeUnion is a sort-preserving union *only if* both inputs really are
globally sorted, a PatchSelect pair reconstructs the relation *only if*
the two branches partition the same scan with the same index.  This
module proves those invariants statically, in one O(plan-size) pass,
before any batch flows.

:func:`verify_plan` walks the operator tree bottom-up and propagates
:class:`PlanProperties` — the output schema plus a proven
:class:`OrderProperty` (sort keys and whether the order holds globally
or per partition).  Order is *established* by Sort / TopN and by
the exclude-patches branch of an NSC PatchSelect
(the kept subsequence is sorted by construction, paper §IV), and
*preserved* by Filter, Project (modulo renames), Limit, MergeUnion and
the left side of MergeJoin.  Everything else destroys it.

Violations raise :class:`~repro.errors.PlanInvariantError` whose
``rule`` attribute names the violated invariant:

``patchselect-placement``
    PatchSelect must sit directly on a TableScan of the index's table
    (batch rowids must be contiguous tuple identifiers, §VI-A1), and a
    PatchCount must count the index's own table.
``patchselect-partitioning``
    use/exclude branches of a rewrite union must partition one scan
    with one PatchIndex — same index + mode in two branches, or the
    two modes over different row sets, is a broken ``R \\ P ∪ P``.
    Two scans cover the same rows when they have the same fixed ranges
    and the same prune predicate (which derives their ranges at open).
    A PatchCount is a PatchSelect over an unpruned scan of its table.
``nuc-use-distinct``
    in a distinct rewrite over a nearly-unique column the use-patches
    branch carries the duplicates and must pass through a Distinct.
``merge-input-order``
    MergeUnion inputs must carry a proven sort order (MergeJoin checks
    the order of its inputs at run time instead).
``patch-design``
    an index's partition patch sets must share one physical design and
    an AUTO-designed index must honor the 1/64 crossover (§V).
``limit-order``
    LIMIT / TopN must not sit below order-destroying operators, and
    Sort must not reorder an already-truncated result.
``scan-ranges``
    fixed scan ranges must be ascending, disjoint, and within the
    table, and a scan with a prune predicate has none (the ranges it
    derives at open are normalized by construction).
``expression-binding``
    every expression / key / aggregate must resolve in its input
    schema.
``union-types``
    union inputs must agree on column names and types.

The verifier is always on: :meth:`repro.plan.physical.PhysicalPlanner.plan`
runs it on every plan it produces, and EXPLAIN surfaces the result as a
``verified: ok`` line.  A plan-cache hit reruns a tree verified when it
was built, with other values for its slotted literals; that is sound
because nothing here reads a literal's value — scans carry their prune
predicate, not ranges derived from it, and a
:class:`~repro.exec.expressions.SlotLiteral` compares by slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.patches import CROSSOVER_RATE
from repro.errors import PlanInvariantError, SchemaError
from repro.exec.expressions import ColumnRef, Expression
from repro.exec.operators.aggregate import AggregateSpec, HashAggregate
from repro.exec.operators.base import Operator
from repro.exec.operators.distinct import Distinct
from repro.exec.operators.filter import Filter
from repro.exec.operators.hash_join import HashJoin
from repro.exec.operators.limit import Limit
from repro.exec.operators.merge_join import MergeJoin
from repro.exec.operators.merge_union import MergeUnion
from repro.exec.operators.patch_select import (
    PatchCount,
    PatchSelect,
    PatchSelectMode,
)
from repro.exec.operators.project import Project
from repro.exec.operators.scan import TableScan
from repro.exec.operators.sort import Sort, SortKey
from repro.exec.operators.topn import TopN
from repro.exec.operators.union import UnionAll
from repro.storage.schema import Schema

#: Ordering scopes: proven across the whole input vs. only within each
#: table partition (the §VI-A2 partition-local NSC case).
GLOBAL = "global"
PARTITION = "partition"

#: Operators whose output row order has no relation to their input
#: order; a Limit/TopN below one of these truncates rows in an order
#: the parent then scrambles, which the planner never produces.
_ORDER_DESTROYERS = (Distinct, HashAggregate, HashJoin, UnionAll)


@dataclass(frozen=True)
class OrderProperty:
    """A proven sort order: key prefix plus the scope it holds in."""

    keys: tuple[SortKey, ...]
    scope: str = GLOBAL

    def covers(
        self, keys: tuple[SortKey, ...], require_global: bool = True
    ) -> bool:
        """Does this proven order satisfy a requirement for *keys*?"""
        if require_global and self.scope != GLOBAL:
            return False
        if len(keys) > len(self.keys):
            return False
        return self.keys[: len(keys)] == tuple(keys)


@dataclass(frozen=True)
class PlanProperties:
    """Bottom-up plan properties: output schema and proven ordering."""

    schema: Schema
    ordering: OrderProperty | None = None


@dataclass(frozen=True)
class _PatchUse:
    """One PatchSelect (or PatchCount) found inside a union branch."""

    index: object
    mode: PatchSelectMode
    #: True when a Distinct sits between this PatchSelect and the union.
    deduped: bool
    #: (table identity, fixed ranges, prune predicate) of the scan.
    scan_signature: tuple


def verify_plan(operator: Operator) -> PlanProperties:
    """Verify a physical plan, returning its proven properties.

    Raises :class:`~repro.errors.PlanInvariantError` on the first
    violated invariant; see the module docstring for the rule
    catalogue.  The pass is O(plan size) and side-effect free.
    """
    return _Verifier().verify(operator)


class _Verifier:
    """Single-pass bottom-up property propagation (see module doc)."""

    def verify(
        self, op: Operator, under_distinct: bool = False
    ) -> PlanProperties:
        if isinstance(op, TableScan):
            return self._verify_scan(op)
        if isinstance(op, PatchSelect):
            return self._verify_patch_select(op)
        if isinstance(op, PatchCount):
            return self._verify_patch_count(op)
        if isinstance(op, Filter):
            return self._verify_filter(op, under_distinct)
        if isinstance(op, Project):
            return self._verify_project(op, under_distinct)
        if isinstance(op, Sort):
            return self._verify_sort(op, under_distinct)
        if isinstance(op, TopN):
            return self._verify_topn(op, under_distinct)
        if isinstance(op, Limit):
            child = self.verify(op.child, under_distinct)
            return PlanProperties(op.schema, child.ordering)
        if isinstance(op, Distinct):
            return self._verify_distinct(op)
        if isinstance(op, HashAggregate):
            return self._verify_aggregate(op)
        if isinstance(op, UnionAll):
            return self._verify_union_all(op, under_distinct)
        if isinstance(op, MergeUnion):
            return self._verify_merge_union(op, under_distinct)
        if isinstance(op, MergeJoin):
            return self._verify_merge_join(op)
        if isinstance(op, HashJoin):
            return self._verify_hash_join(op)
        # Unknown operator (e.g. a test double): verify the subtrees,
        # claim nothing about the output order.
        for child in op.children():
            self.verify(child, under_distinct)
        return PlanProperties(op.schema)

    # -- leaves ------------------------------------------------------------

    def _verify_scan(self, op: TableScan) -> PlanProperties:
        ranges = op.scan_ranges
        if op.prune is not None and ranges is not None:
            raise PlanInvariantError(
                "scan-ranges",
                f"scan of {op.table.name!r} has both fixed ranges and a "
                "prune predicate",
            )
        if ranges is not None:
            previous_stop = 0
            for start, stop in ranges:
                if start >= stop or start < previous_stop:
                    raise PlanInvariantError(
                        "scan-ranges",
                        f"scan of {op.table.name!r} has unordered or "
                        f"overlapping range [{start}, {stop})",
                    )
                previous_stop = stop
            if previous_stop > op.table.row_count:
                raise PlanInvariantError(
                    "scan-ranges",
                    f"scan range ends at {previous_stop} but table "
                    f"{op.table.name!r} has {op.table.row_count} rows",
                )
        return PlanProperties(op.schema)

    def _verify_patch_select(self, op: PatchSelect) -> PlanProperties:
        if not isinstance(op.child, TableScan):
            raise PlanInvariantError(
                "patchselect-placement",
                f"PatchSelect({op.index.name}) sits on "
                f"{type(op.child).__name__}; it must sit directly on a "
                "TableScan so batch rowids are contiguous tuple ids",
            )
        if op.child.table is not op.index.table:
            raise PlanInvariantError(
                "patchselect-placement",
                f"PatchSelect({op.index.name}) scans table "
                f"{op.child.table.name!r} but the index patches "
                f"{op.index.table.name!r}",
            )
        self._verify_patch_design(op.index)
        self.verify(op.child)
        ordering = None
        if (
            op.mode == PatchSelectMode.EXCLUDE_PATCHES
            and op.index.kind == "sorted"
            and op.index.column_name in op.schema
        ):
            # The kept subsequence of an NSC column is sorted in rowid
            # order by construction (paper §IV) — globally when the
            # index proved global scope or the table is unpartitioned.
            scope = (
                GLOBAL
                if op.index.scope == GLOBAL
                or op.index.table.partition_count == 1
                else PARTITION
            )
            ordering = OrderProperty(
                (SortKey(op.index.column_name, op.index.ascending),), scope
            )
        return PlanProperties(op.schema, ordering)

    def _verify_patch_count(self, op: PatchCount) -> PlanProperties:
        if op.table is not op.index.table:
            raise PlanInvariantError(
                "patchselect-placement",
                f"PatchCount({op.index.name}) counts table "
                f"{op.table.name!r} but the index patches "
                f"{op.index.table.name!r}",
            )
        self._verify_patch_design(op.index)
        return PlanProperties(op.schema)

    def _verify_patch_design(self, index) -> None:
        designs = {
            index.partition_patches(pid).design
            for pid in range(index.table.partition_count)
        }
        if not designs <= {"identifier", "bitmap"}:
            raise PlanInvariantError(
                "patch-design",
                f"index {index.name!r} has unknown patch design(s) "
                f"{sorted(designs - {'identifier', 'bitmap'})}",
            )
        if len(designs) > 1:
            raise PlanInvariantError(
                "patch-design",
                f"index {index.name!r} mixes patch designs across "
                f"partitions ({sorted(designs)}); partition-transparent "
                "access requires one design",
            )
        mode = getattr(index, "mode", None)
        if mode is None or not designs:
            return
        design = next(iter(designs))
        if mode.value in ("identifier", "bitmap"):
            if design != mode.value:
                raise PlanInvariantError(
                    "patch-design",
                    f"index {index.name!r} was pinned to "
                    f"{mode.value} but carries {design} patch sets",
                )
            return
        # AUTO design must honor the 1/64 crossover at creation time.
        # Conservative incremental maintenance can legitimately drift
        # the rate past the crossover without re-choosing the design,
        # so the check only applies while the index is drift-free.
        if index.maintenance_stats() is None:
            expected = mode.resolve(index.exception_rate)
            if design != expected:
                raise PlanInvariantError(
                    "patch-design",
                    f"index {index.name!r} uses {design} patches at "
                    f"exception rate {index.exception_rate:.4f}; the "
                    f"1/64 crossover ({CROSSOVER_RATE:.4f}) selects "
                    f"{expected}",
                )

    # -- row-preserving operators ------------------------------------------

    def _verify_filter(self, op: Filter, under_distinct: bool) -> PlanProperties:
        child = self.verify(op.child, under_distinct)
        self._bind_expression(op.predicate, child.schema, "filter predicate")
        return PlanProperties(op.schema, child.ordering)

    def _verify_project(
        self, op: Project, under_distinct: bool
    ) -> PlanProperties:
        child = self.verify(op.child, under_distinct)
        for name, expression in op.outputs:
            self._bind_expression(
                expression, child.schema, f"projection {name!r}"
            )
        return PlanProperties(
            op.schema, _project_ordering(child.ordering, op.outputs)
        )

    # -- order-establishing operators --------------------------------------

    def _verify_sort(self, op: Sort, under_distinct: bool) -> PlanProperties:
        if isinstance(op.child, (Limit, TopN)):
            raise PlanInvariantError(
                "limit-order",
                "Sort above a Limit/TopN reorders an already-truncated "
                "result; the planner fuses ORDER BY + LIMIT into TopN",
            )
        child = self.verify(op.child, under_distinct)
        self._bind_keys(op.keys, child.schema, "Sort")
        return PlanProperties(op.schema, OrderProperty(tuple(op.keys)))

    def _verify_topn(self, op: TopN, under_distinct: bool) -> PlanProperties:
        if isinstance(op.child, (Limit, TopN)):
            raise PlanInvariantError(
                "limit-order",
                "TopN above a Limit/TopN truncates twice with "
                "conflicting orders",
            )
        child = self.verify(op.child, under_distinct)
        self._bind_keys(op.keys, child.schema, "TopN")
        return PlanProperties(op.schema, OrderProperty(tuple(op.keys)))

    # -- order-destroying operators ----------------------------------------

    def _verify_distinct(self, op: Distinct) -> PlanProperties:
        self._reject_limit_below(op, op.child)
        child = self.verify(op.child, under_distinct=True)
        missing = [
            name for name in op.column_names if name not in child.schema
        ]
        if missing:
            raise PlanInvariantError(
                "expression-binding",
                f"Distinct keys {missing} missing from input schema",
            )
        return PlanProperties(op.schema)

    def _verify_aggregate(self, op: HashAggregate) -> PlanProperties:
        self._reject_limit_below(op, op.child)
        child = self.verify(op.child)
        self._bind_aggregates(op.group_by, op.aggregates, child.schema)
        return PlanProperties(op.schema)

    def _verify_hash_join(self, op: HashJoin) -> PlanProperties:
        self._reject_limit_below(op, op.probe)
        self._reject_limit_below(op, op.build)
        probe = self.verify(op.probe)
        build = self.verify(op.build)
        if op.probe_key not in probe.schema:
            raise PlanInvariantError(
                "expression-binding",
                f"HashJoin probe key {op.probe_key!r} missing from "
                "probe schema",
            )
        if op.build_key not in build.schema:
            raise PlanInvariantError(
                "expression-binding",
                f"HashJoin build key {op.build_key!r} missing from "
                "build schema",
            )
        return PlanProperties(op.schema)

    # -- unions and merges -------------------------------------------------

    def _verify_union_all(
        self, op: UnionAll, under_distinct: bool
    ) -> PlanProperties:
        for branch in op.inputs:
            self._reject_limit_below(op, branch)
            self.verify(branch, under_distinct)
        self._check_union_types(op.schema, [b.schema for b in op.inputs])
        self._check_patch_partitioning(op.inputs, under_distinct)
        return PlanProperties(op.schema)

    def _verify_merge_union(
        self, op: MergeUnion, under_distinct: bool
    ) -> PlanProperties:
        left = self.verify(op.left, under_distinct)
        right = self.verify(op.right, under_distinct)
        self._check_union_types(op.schema, [left.schema, right.schema])
        self._bind_keys(op.keys, left.schema, "MergeUnion")
        keys = tuple(op.keys)
        for side, props in (("left", left), ("right", right)):
            if props.ordering is None or not props.ordering.covers(keys):
                raise PlanInvariantError(
                    "merge-input-order",
                    f"MergeUnion {side} input has no proven global "
                    f"order on ({', '.join(map(str, keys))}); merging "
                    "unsorted runs silently reorders the result",
                )
        self._check_patch_partitioning([op.left, op.right], under_distinct)
        return PlanProperties(op.schema, OrderProperty(keys))

    def _verify_merge_join(self, op: MergeJoin) -> PlanProperties:
        left = self.verify(op.left)
        right = self.verify(op.right)
        if op.left_key not in left.schema:
            raise PlanInvariantError(
                "expression-binding",
                f"MergeJoin left key {op.left_key!r} missing from left "
                "schema",
            )
        if op.right_key not in right.schema:
            raise PlanInvariantError(
                "expression-binding",
                f"MergeJoin right key {op.right_key!r} missing from "
                "right schema",
            )
        # No order rule: MergeJoin checks both inputs' order at run time.
        return PlanProperties(op.schema, left.ordering)

    # -- shared checks -----------------------------------------------------

    def _reject_limit_below(self, op: Operator, child: Operator) -> None:
        if isinstance(op, _ORDER_DESTROYERS) and isinstance(
            child, (Limit, TopN)
        ):
            raise PlanInvariantError(
                "limit-order",
                f"{type(child).__name__} below {type(op).__name__} "
                "truncates rows in an order the parent then destroys",
            )

    def _bind_expression(
        self, expression: Expression, schema: Schema, what: str
    ) -> None:
        missing = expression.referenced_columns() - set(schema.names)
        if missing:
            raise PlanInvariantError(
                "expression-binding",
                f"{what} references columns {sorted(missing)} missing "
                "from the input schema",
            )
        try:
            expression.output_type(schema)
        except SchemaError as exc:
            raise PlanInvariantError(
                "expression-binding", f"{what} does not type-check: {exc}"
            ) from exc

    def _bind_keys(
        self, keys: list[SortKey], schema: Schema, what: str
    ) -> None:
        if not keys:
            raise PlanInvariantError(
                "expression-binding", f"{what} has no sort keys"
            )
        for key in keys:
            if key.column not in schema:
                raise PlanInvariantError(
                    "expression-binding",
                    f"{what} key {key.column!r} missing from the input "
                    "schema",
                )

    def _bind_aggregates(
        self,
        group_by: list[str],
        aggregates: list[AggregateSpec],
        schema: Schema,
    ) -> None:
        for column in group_by:
            if column not in schema:
                raise PlanInvariantError(
                    "expression-binding",
                    f"group-by column {column!r} missing from the input "
                    "schema",
                )
        for spec in aggregates:
            if spec.column is not None and spec.column not in schema:
                raise PlanInvariantError(
                    "expression-binding",
                    f"aggregate {spec.func}({spec.column}) references a "
                    "column missing from the input schema",
                )

    def _check_union_types(
        self, schema: Schema, branch_schemas: list[Schema]
    ) -> None:
        expected = [(field.name, field.dtype) for field in schema.fields]
        for number, branch in enumerate(branch_schemas):
            actual = [(field.name, field.dtype) for field in branch.fields]
            if actual != expected:
                raise PlanInvariantError(
                    "union-types",
                    f"union branch {number} produces {actual} but the "
                    f"union output is {expected}",
                )

    def _check_patch_partitioning(
        self, branches: list[Operator], under_distinct: bool
    ) -> None:
        """The ``R \\ P_c ∪ P_c`` disjointness rule over union branches."""
        by_key: dict[tuple, tuple[int, _PatchUse]] = {}
        for number, branch in enumerate(branches):
            for use in _collect_patch_uses(branch, under_distinct):
                key = (id(use.index), use.mode)
                prior = by_key.get(key)
                if prior is not None and prior[0] != number:
                    raise PlanInvariantError(
                        "patchselect-partitioning",
                        f"union branches {prior[0]} and {number} both "
                        f"apply index {use.index.name!r} in mode "
                        f"{use.mode.value}; the branches overlap instead "
                        "of partitioning the relation",
                    )
                by_key.setdefault(key, (number, use))
        for (index_id, mode), (number, use) in by_key.items():
            if mode != PatchSelectMode.EXCLUDE_PATCHES:
                continue
            paired = by_key.get((index_id, PatchSelectMode.USE_PATCHES))
            if paired is None or paired[0] == number:
                # No counterpart (a lone branch) or both modes in the
                # same branch (a full-relation reconstruction): not a
                # cross-branch partition.
                continue
            use_number, use_side = paired
            if use.scan_signature != use_side.scan_signature:
                raise PlanInvariantError(
                    "patchselect-partitioning",
                    f"union branches {number} and {use_number} apply "
                    f"index {use.index.name!r} to different row sets; "
                    "exclude and use branches must partition one scan",
                )
            if use.index.kind == "unique" and not use_side.deduped:
                raise PlanInvariantError(
                    "nuc-use-distinct",
                    f"the use-patches branch of index {use.index.name!r} "
                    "carries the duplicate values of a nearly-unique "
                    "column and must pass through a Distinct",
                )


def _project_ordering(
    ordering: OrderProperty | None,
    outputs: list[tuple[str, Expression]],
) -> OrderProperty | None:
    """Proven ordering after a projection: renamed keys survive, the
    prefix stops at the first dropped or computed key column."""
    if ordering is None:
        return None
    renames: dict[str, str] = {}
    for name, expression in outputs:
        if isinstance(expression, ColumnRef) and expression.name not in renames:
            renames[expression.name] = name
    kept: list[SortKey] = []
    for key in ordering.keys:
        if key.column not in renames:
            break
        kept.append(SortKey(renames[key.column], key.ascending))
    if not kept:
        return None
    return OrderProperty(tuple(kept), ordering.scope)


def _collect_patch_uses(
    op: Operator, deduped: bool
) -> list[_PatchUse]:
    """PatchSelects and PatchCounts reachable from a union branch, with
    dedup context.

    The walk stops at nested UnionAll/MergeUnion nodes — those verify
    their own partitioning — and records whether a Distinct lies
    between the union and each patch use.
    """
    if isinstance(op, (UnionAll, MergeUnion)):
        return []
    if isinstance(op, Distinct):
        deduped = True
    if isinstance(op, PatchSelect):
        child = op.child
        signature: tuple = (type(child).__name__,)
        if isinstance(child, TableScan):
            signature = _scan_signature(child)
        return [_PatchUse(op.index, op.mode, deduped, signature)]
    if isinstance(op, PatchCount):
        # It counts the whole table: an unpruned scan's rows.
        whole = (id(op.table), ((0, op.table.row_count),), None)
        return [_PatchUse(op.index, op.mode, deduped, whole)]
    uses: list[_PatchUse] = []
    for child in op.children():
        uses.extend(_collect_patch_uses(child, deduped))
    return uses


def _scan_signature(op: TableScan) -> tuple:
    """(table identity, fixed rowid ranges, prune predicate) of a scan:
    equal signatures cover the same rows in every run."""
    ranges = op.scan_ranges
    covered = (
        tuple(ranges) if ranges is not None else ((0, op.table.row_count),)
    )
    return (id(op.table), covered, op.prune)
