"""Physical planning: logical plan → executable operator tree.

Mostly a 1:1 mapping, plus four physical decisions:

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
- **Morsel-driven parallelism**: a Distinct, Sort or Aggregate directly
  on a scan pipeline (Scan, optionally PatchSelect, then Filter/Project
  chains) becomes its parallel-aware counterpart, with per-worker
  partials over contiguous rowid morsels, when the pipeline splits into
  at least two morsels and hands the terminal more than one morsel's
  worth of rows (``morsel_size``).  Nothing else fans out: a pipeline
  with no such terminal above it, an exclude-patches pipeline (the run
  merge of a partition-scoped NSC sort rewrite), and an aggregate mixing
  COUNT(DISTINCT) with other aggregates plan serial.  The degree of
  parallelism comes from the ``parallelism`` knob (default:
  ``REPRO_THREADS`` or the CPU count) and does not enter the gate;
  EXPLAIN shows it on every parallel operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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
from repro.exec.parallel import (
    DEFAULT_MORSEL_SIZE,
    Morsel,
    ParallelAggregate,
    ParallelDistinct,
    ParallelSort,
    default_parallelism,
    morsels_for_table,
)
from repro.exec.parallel.terminals import FragmentFactory
from repro.plan import logical as lp
from repro.plan.cardinality import estimate_rows
from repro.types.datatypes import coerce_scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database


@dataclass
class _Fragment:
    """A parallelizable scan pipeline matched in the logical plan.

    ``build`` reconstructs the physical fragment restricted to a set of
    global rowid ranges — the planner hands it to the parallel terminal,
    which calls it once per morsel (``None`` ranges = the unrestricted
    template used for schema/EXPLAIN).
    """

    build: Callable[[list[tuple[int, int]] | None], Operator]
    ranges: list[tuple[int, int]] | None
    morsels: list[Morsel]

    def template(self) -> Operator:
        return self.build(self.ranges)

    def operator_args(
        self, parallelism: int
    ) -> tuple[FragmentFactory, Operator, list[Morsel], int]:
        """The leading arguments every parallel operator shares."""
        return self.build, self.template(), self.morsels, parallelism


class PhysicalPlanner:
    """Translate logical plans into operator trees."""

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        derive_scan_ranges: bool = True,
        parallelism: int | None = None,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        verify: bool = True,
        backend: str | None = None,
        database: "Database | None" = None,
    ):
        self.batch_size = batch_size
        self.derive_scan_ranges = derive_scan_ranges
        self.parallelism = (
            default_parallelism() if parallelism is None else max(1, parallelism)
        )
        self.morsel_size = morsel_size
        self.verify = verify
        # Only caller: bench_e2e/tracing.py passes backend="thread".
        if backend not in (None, "thread"):
            raise PlanError(
                f"the thread pool is the only backend, got {backend!r}"
            )
        # Only callers: bench_e2e/tracing.py and
        # benchmarks/bench_profile_overhead.py pass database=; unread.
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
        parallel = self._try_parallel(logical)
        if parallel is not None:
            return parallel
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

    # -- morsel-driven parallelism ------------------------------------------

    def _try_parallel(self, logical: lp.LogicalPlan) -> Operator | None:
        """Parallel plan for this node, or None to fall through to serial.

        Only a Distinct, a Sort or an Aggregate directly over a scan
        pipeline fans out: each pushes partial work into the morsel
        workers.  Any other node returns None — its children still get
        their own chance when the serial dispatch recurses.
        """
        if self.parallelism <= 1 or not isinstance(
            logical, (lp.LogicalDistinct, lp.LogicalSort, lp.LogicalAggregate)
        ):
            return None
        if (
            isinstance(logical, lp.LogicalAggregate)
            and len(logical.aggregates) > 1
            and any(spec.func == "count_distinct" for spec in logical.aggregates)
        ):
            # COUNT(DISTINCT) beside other aggregates has no partial form.
            return None
        fragment = self._match_fragment(logical.child)
        if fragment is None:
            return None
        args = fragment.operator_args(self.parallelism)
        if isinstance(logical, lp.LogicalDistinct):
            return ParallelDistinct(*args)
        if isinstance(logical, lp.LogicalSort):
            return ParallelSort(*args, list(logical.keys))
        return ParallelAggregate(
            *args, list(logical.group_by), list(logical.aggregates)
        )

    def _match_fragment(self, logical: lp.LogicalPlan) -> _Fragment | None:
        """Match a Filter/Project chain over (PatchSelect over) a scan,
        and accept it for parallel execution if it is worth a fan-out."""
        nodes: list[lp.LogicalPlan] = []
        patch: lp.LogicalPatchSelect | None = None
        current = logical
        while True:
            if isinstance(current, lp.LogicalScan):
                scan = current
                break
            if isinstance(current, lp.LogicalPatchSelect):
                patch = current
                scan = current.child
                break
            if isinstance(current, (lp.LogicalFilter, lp.LogicalProject)):
                nodes.append(current)
                current = current.child
                continue
            return None
        if patch is not None and not patch.use_patches:
            # An exclude branch is already sorted runs: sorting them per
            # morsel and merging the runs measured 1.30-2.23x the serial
            # run merge in every cell (EXPERIMENTS.md, *Parallel shapes*).
            return None

        ranges = (
            list(scan.scan_ranges) if scan.scan_ranges is not None else None
        )
        if (
            ranges is None
            and self.derive_scan_ranges
            and nodes
            and isinstance(nodes[-1], lp.LogicalFilter)
        ):
            # Same rule as the serial path: block-prune only when the
            # filter sits directly on the scan or its PatchSelect.
            ranges = self._ranges_for_predicate(scan, nodes[-1].predicate)
        normalized = normalize_ranges(ranges, scan.table.row_count)
        terminal_rows = (
            sum(stop - start for start, stop in normalized)
            if normalized is not None
            else scan.table.row_count
        )
        if patch is not None:
            # The use branch hands its terminal only the exceptions.
            terminal_rows = min(terminal_rows, patch.index.patch_count)
        # The gate: a morsel is the work that amortizes one dispatch, so
        # fan out only when the terminal gets more than one morsel's
        # worth of rows, and only when there are two morsels to share out.
        if terminal_rows <= self.morsel_size:
            return None
        morsels = morsels_for_table(scan.table, normalized, self.morsel_size)
        if len(morsels) < 2:
            return None

        def build(
            morsel_ranges: list[tuple[int, int]] | None,
        ) -> Operator:
            operator: Operator = TableScan(
                scan.table,
                list(scan.columns) if scan.columns is not None else None,
                scan_ranges=morsel_ranges,
                with_tid=scan.with_tid,
                batch_size=self.batch_size,
            )
            if patch is not None:
                operator = PatchSelect(
                    operator, patch.index, PatchSelectMode.USE_PATCHES
                )
            for node in reversed(nodes):
                if isinstance(node, lp.LogicalFilter):
                    operator = Filter(operator, node.predicate)
                else:
                    operator = Project(operator, list(node.outputs))
            return operator

        return _Fragment(build, normalized, morsels)

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
        return column, op, [coerce_scalar(value, dtype) for value in candidates]
    except TypeMismatchError:
        return None


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
