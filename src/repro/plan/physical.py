"""Physical planning: logical plan → executable operator tree.

Mostly a 1:1 mapping, plus three physical decisions:

- **Scan-range derivation**: a filter directly above a scan, or above
  the PatchSelect over one, is evaluated against the per-block min/max
  sketches — every ``column <op> literal`` / ``column IN (...)``
  conjunct, ANDs intersecting and ORs (of two prunable arms) uniting
  the surviving blocks — and the surviving rowid ranges are pushed into
  the scan (the filter itself is kept — block pruning is conservative).
  This is the paper's "small materialized aggregates" scan-range path
  that the PatchSelect then merges with (§VI-A3).
- **Counting from the patch set**: an ungrouped ``COUNT(*)`` directly
  over a PatchSelect becomes a ``PatchCount`` leaf — covered rows minus
  (or, for use_patches, just) the patches among them, with no scan.
- **Hash-join build-side choice**: the smaller estimated input builds
  the join's key directory (§VI-B3); a projection restores the original column
  order when the sides were swapped.

Execution is serial: every operator runs on the caller's thread (why
is DESIGN.md, "Why serial").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.plan_verifier import verify_plan
from repro.errors import PlanError, TypeMismatchError
from repro.exec.batch import DEFAULT_BATCH_SIZE
from repro.exec.expressions import (
    FLIPPED_OPS,
    And,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Or,
)
from repro.exec.operators import (
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    MergeJoin,
    MergeUnion,
    Operator,
    PatchCount,
    PatchSelect,
    PatchSelectMode,
    Project,
    Sort,
    TableScan,
    TopN,
    UnionAll,
)
from repro.exec.operators.scan import normalize_ranges
from repro.plan import logical as lp
from repro.plan.cardinality import estimate_rows
from repro.types.datatypes import DataType, coerce_scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database


class PhysicalPlanner:
    """Translate logical plans into operator trees."""

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        derive_scan_ranges: bool = True,
        parallelism: int = 1,
        verify: bool = True,
        backend: str | None = None,
        database: "Database | None" = None,
    ):
        self.batch_size = batch_size
        self.derive_scan_ranges = derive_scan_ranges
        self.verify = verify
        # Only caller: bench_e2e/tracing.py passes parallelism=1.
        if parallelism != 1:
            raise PlanError(
                f"execution is serial, got parallelism={parallelism!r}"
            )
        # Only caller: bench_e2e/tracing.py passes backend="thread".
        if backend not in (None, "thread"):
            raise PlanError(
                f"serial execution is the only backend, got {backend!r}"
            )
        # Only caller: bench_e2e/tracing.py passes database=; unread.
        del database
        self._depth = 0

    def plan(self, logical: lp.LogicalPlan) -> Operator:
        self._depth += 1
        try:
            operator = self._plan_node(logical)
        finally:
            self._depth -= 1
        if operator.estimated_rows is None:
            # Stamp the optimizer's cardinality estimate so EXPLAIN
            # ANALYZE can report actual vs. estimated rows per operator.
            operator.estimated_rows = estimate_rows(logical)
        if self.verify and self._depth == 0:
            # Always-on invariant pass over the finished plan (the
            # depth guard skips the recursive calls for subtrees).
            verify_plan(operator)
        return operator

    def _plan_node(self, logical: lp.LogicalPlan) -> Operator:
        count = _try_patch_count(logical)
        if count is not None:
            return count
        if isinstance(logical, lp.LogicalScan):
            return self._plan_scan(logical)
        if isinstance(logical, lp.LogicalPatchSelect):
            scan = self._plan_scan(logical.child)
            scan.estimated_rows = estimate_rows(logical.child)
            mode = (
                PatchSelectMode.USE_PATCHES
                if logical.use_patches
                else PatchSelectMode.EXCLUDE_PATCHES
            )
            return PatchSelect(scan, logical.index, mode)
        if isinstance(logical, lp.LogicalFilter):
            return self._plan_filter(logical)
        if isinstance(logical, lp.LogicalProject):
            return Project(self.plan(logical.child), list(logical.outputs))
        if isinstance(logical, lp.LogicalDistinct):
            return Distinct(self.plan(logical.child))
        if isinstance(logical, lp.LogicalAggregate):
            return HashAggregate(
                self.plan(logical.child),
                list(logical.group_by),
                list(logical.aggregates),
            )
        if isinstance(logical, lp.LogicalSort):
            return Sort(self.plan(logical.child), list(logical.keys))
        if isinstance(logical, lp.LogicalLimit):
            if isinstance(logical.child, lp.LogicalSort):
                # Fuse ORDER BY + LIMIT into a partial-sort TopN.
                return TopN(
                    self.plan(logical.child.child),
                    list(logical.child.keys),
                    logical.limit,
                    logical.offset,
                )
            return Limit(self.plan(logical.child), logical.limit, logical.offset)
        if isinstance(logical, lp.LogicalJoin):
            return self._plan_join(logical)
        if isinstance(logical, lp.LogicalMergeJoin):
            # The optimizer proved the right side sorted from *data*
            # (a zero-patch NSC or a cached column check), which the
            # static verifier cannot re-derive; MergeJoin checks the
            # order of both inputs as it reads them.
            return MergeJoin(
                self.plan(logical.left),
                self.plan(logical.right),
                logical.left_key,
                logical.right_key,
            )
        if isinstance(logical, lp.LogicalUnionAll):
            return UnionAll([self.plan(child) for child in logical.inputs])
        if isinstance(logical, lp.LogicalMergeUnion):
            return MergeUnion(
                self.plan(logical.left),
                self.plan(logical.right),
                list(logical.keys),
            )
        raise PlanError(f"cannot plan logical node {type(logical).__name__}")

    # -- scans & filters ---------------------------------------------------

    def _plan_scan(self, logical: lp.LogicalScan) -> TableScan:
        if not isinstance(logical, lp.LogicalScan):
            raise PlanError("PatchSelect child must plan to a scan")
        return TableScan(
            logical.table,
            list(logical.columns) if logical.columns is not None else None,
            scan_ranges=(
                list(logical.scan_ranges)
                if logical.scan_ranges is not None
                else None
            ),
            with_tid=logical.with_tid,
            batch_size=self.batch_size,
        )

    def _plan_filter(self, logical: lp.LogicalFilter) -> Operator:
        """A filter directly on a scan, or on the PatchSelect over one,
        restricts that scan to the blocks its predicate can match.  Both
        branches of a rewrite carry the same filter, so they derive the
        same ranges and still partition one scan."""
        child = logical.child
        scan = child.child if isinstance(child, lp.LogicalPatchSelect) else child
        if (
            self.derive_scan_ranges
            and isinstance(scan, lp.LogicalScan)
            and scan.scan_ranges is None
        ):
            ranges = self._ranges_for_predicate(scan, logical.predicate)
            if ranges is not None:
                ranged = lp.LogicalScan(
                    scan.table, scan.columns, scan.with_tid, tuple(ranges)
                )
                if child is scan:
                    return Filter(self._plan_scan(ranged), logical.predicate)
                child = child.with_children([ranged])
        return Filter(self.plan(child), logical.predicate)

    def _ranges_for_predicate(
        self, scan: lp.LogicalScan, predicate: Expression
    ) -> list[tuple[int, int]] | None:
        """Global rowid ranges of the blocks *predicate* cannot rule out.

        ``None`` when the min/max sketches say nothing about it.  AND
        intersects whatever its arms can tell (one prunable arm is
        enough); OR unites, and so needs both; IN is the OR of its
        equalities; anything else — NOT, arithmetic, column-to-column
        comparisons, IS NULL — never prunes.  The ranges come out
        sorted and disjoint.
        """
        if isinstance(predicate, (And, Or)):
            left = self._ranges_for_predicate(scan, predicate.left)
            right = self._ranges_for_predicate(scan, predicate.right)
            if left is None or right is None:
                if isinstance(predicate, Or):
                    return None
                return left if right is None else right
            if isinstance(predicate, And):
                return _intersect_ranges(left, right)
            return normalize_ranges(left + right, scan.table.row_count)
        conjunct = _prunable_conjunct(predicate, scan)
        if conjunct is None:
            return None
        column, op, values = conjunct
        ranges: list[tuple[int, int]] = []
        for partition in scan.table.partitions:
            base = partition.base_rowid
            for value in values:
                for start, stop in partition.scan_ranges_for_predicate(
                    column, op, value
                ):
                    ranges.append((base + start, base + stop))
        if len(values) > 1:  # an IN-list's blocks overlap and interleave
            return normalize_ranges(ranges, scan.table.row_count)
        return ranges

    # -- joins ------------------------------------------------------------------

    def _plan_join(self, logical: lp.LogicalJoin) -> Operator:
        left = self.plan(logical.left)
        right = self.plan(logical.right)
        if logical.join_type == "left_outer":
            # Outer semantics pin the probe side to the preserved input.
            return HashJoin(
                left, right, logical.left_key, logical.right_key, "left_outer"
            )
        if estimate_rows(logical.right) <= estimate_rows(logical.left):
            return HashJoin(left, right, logical.left_key, logical.right_key)
        # Build on the (smaller) left side; restore column order after.
        swapped = HashJoin(right, left, logical.right_key, logical.left_key)
        outputs = [
            (name, ColumnRef(name)) for name in logical.schema.names
        ]
        return Project(swapped, outputs)


def _try_patch_count(logical: lp.LogicalPlan) -> PatchCount | None:
    """An ungrouped ``COUNT(*)`` directly over a PatchSelect, planned
    as the leaf that counts from the patch set (no scan below it)."""
    if not (
        isinstance(logical, lp.LogicalAggregate)
        and isinstance(logical.child, lp.LogicalPatchSelect)
        and not logical.group_by
        and len(logical.aggregates) == 1
        and logical.aggregates[0].func == "count_star"
    ):
        return None
    patch = logical.child
    scan = patch.child
    if not isinstance(scan, lp.LogicalScan):
        raise PlanError("PatchSelect child must plan to a scan")
    return PatchCount(
        scan.table,
        patch.index,
        PatchSelectMode.USE_PATCHES
        if patch.use_patches
        else PatchSelectMode.EXCLUDE_PATCHES,
        logical.aggregates[0].alias,
        list(scan.scan_ranges) if scan.scan_ranges is not None else None,
    )


def _prunable_conjunct(
    predicate: Expression, scan: lp.LogicalScan
) -> tuple[str, str, list[object]] | None:
    """``(column, op, literals)`` when *predicate* is ``column <op>
    literal`` (either way round) or ``column IN (literals)``."""
    candidates: tuple[object, ...]
    if isinstance(predicate, InList):
        if predicate.negated or not isinstance(predicate.operand, ColumnRef):
            return None
        column, op, candidates = predicate.operand.name, "=", predicate.values
    elif isinstance(predicate, Comparison):
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, Literal):
            left, right, op = right, left, FLIPPED_OPS[op]
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            return None
        column, candidates = left.name, (right.value,)
    else:
        return None
    # Base columns only: the virtual tid column has no sketches.
    if column not in scan.table.schema or None in candidates:
        return None
    dtype = scan.table.schema.field(column).dtype
    try:
        return column, op, [_sketch_literal(value, dtype) for value in candidates]
    except TypeMismatchError:
        return None


def _sketch_literal(value: object, dtype: DataType) -> object:
    """*value* as a block sketch's bounds compare with it.  An int
    against a FLOAT64 column stays an int: Python compares it with the
    float bounds exactly, as the filter does, where ``float(value)``
    rounds (or overflows) and would prune blocks that match."""
    if dtype == DataType.FLOAT64 and type(value) is int:
        return value
    return coerce_scalar(value, dtype)


def _intersect_ranges(
    left: list[tuple[int, int]], right: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Intersection of two sorted, disjoint range lists."""
    ranges: list[tuple[int, int]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        stop = min(left[i][1], right[j][1])
        if start < stop:
            ranges.append((start, stop))
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return ranges
