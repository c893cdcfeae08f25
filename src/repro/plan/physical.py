"""Physical planning: logical plan → executable operator tree.

Mostly a 1:1 mapping, plus three physical decisions:

- **Block pruning**: a filter directly above a scan, or above the
  PatchSelect over one, hands its predicate to that scan
  (:attr:`~repro.exec.operators.scan.TableScan.prune`); each run of the
  tree derives the scan's rowid ranges from it when the scan opens,
  against the per-block min/max sketches (the filter itself is kept —
  block pruning is conservative).  This is the paper's "small
  materialized aggregates" scan-range path that the PatchSelect then
  merges with (§VI-A3).  The tree holds nothing that depends on a
  literal's value, so the plan cache runs one verified tree for every
  binding of a statement (:mod:`repro.plan.cache`).
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
from repro.errors import PlanError
from repro.exec.batch import DEFAULT_BATCH_SIZE
from repro.exec.expressions import (
    ColumnRef,
    Expression,
    Literal,
    Parameters,
    SlotLiteral,
    map_literals,
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
from repro.plan import logical as lp
from repro.plan.cardinality import estimate_rows

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
        self._parameters: Parameters | None = None

    def plan(
        self, logical: lp.LogicalPlan, parameters: Parameters | None = None
    ) -> Operator:
        """The verified operator tree of *logical*; given *parameters*,
        its slotted literals read their values from them (a tree the
        plan cache reruns with each execution's values)."""
        if self._depth == 0:
            self._parameters = parameters
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
            return Project(
                self.plan(logical.child),
                [(name, self._slotted(value)) for name, value in logical.outputs],
            )
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
            with_tid=logical.with_tid,
            batch_size=self.batch_size,
        )

    def _plan_filter(self, logical: lp.LogicalFilter) -> Operator:
        """A filter directly on a scan, or on the PatchSelect over one,
        restricts that scan to the blocks its predicate can match.  Both
        branches of a rewrite carry the same filter, so their scans
        derive the same ranges and still partition one scan."""
        child = self.plan(logical.child)
        predicate = self._slotted(logical.predicate)
        scan = child.child if isinstance(child, PatchSelect) else child
        if self.derive_scan_ranges and isinstance(scan, TableScan):
            scan.prune = predicate
        return Filter(child, predicate)

    def _slotted(self, expression: Expression) -> Expression:
        """*expression* with each slotted literal reading the tree's
        parameters (unchanged when the tree has none)."""
        if self._parameters is None:
            return expression
        parameters: Parameters = self._parameters

        def slot(literal: Literal) -> Literal:
            if literal.slot is None or literal.dtype is None:
                return literal
            return SlotLiteral(literal.dtype, literal.slot, parameters)

        return map_literals(expression, slot)

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
    )
