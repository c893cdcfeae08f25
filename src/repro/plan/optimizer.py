"""PatchIndex-aware query optimization (paper §VI-B, Figure 3).

The optimizer walks the logical plan bottom-up and applies three rewrite
rules when a matching PatchIndex exists and its exception rate is below
the rewrite's breakeven:

**Distinct rewrite** (NUC, §VI-B1).  ``Distinct(X(Scan T))`` — with X a
pipeline of selections and non-arithmetic projections — becomes::

    UnionAll(
        X(PatchSelect[exclude](Scan T)),            # already unique
        Distinct(X(PatchSelect[use](Scan T))),      # only the patches
    )

A COUNT(DISTINCT c) aggregation over such a pipeline becomes the sum of
the two branches' counts::

    SUM(UnionAll(
        COUNT(*) over X(PatchSelect[exclude](Scan T)),
        COUNT(c) over Distinct(Project_c(X(PatchSelect[use](Scan T)))),
    ))

The exclude branch contributes no NULLs (NULLs are always patches) and
no duplicates (NUC1), and condition NUC2 rules out cross-branch
duplicates, so its COUNT(*) is its distinct count.  When X selects
nothing, the exclude branch drops it (projections do not change a
COUNT(*)): the count then sits directly on the PatchSelect, and the
physical planner answers it from the patch set alone (``PatchCount``).

**Sort rewrite** (NSC, §VI-B2).  ``Sort(X(Scan T))`` on the indexed
column becomes a merge of the already-sorted exclude branch with a sort
of only the patches.  Since NSC discovery is partition-local (§VI-A2),
the exclude branch of a multi-partition table is a set of sorted *runs*
— one per partition — merged by a run-merging Sort.

**Join rewrite** (NSC, §VI-B3).  A join whose probe side is a pipeline
over the indexed table and whose other side is sorted on the join key
becomes::

    UnionAll(
        MergeJoin(Y(PatchSelect[exclude](Scan T)), X),   # sorted majority
        HashJoin(Y(PatchSelect[use](Scan T)), X),        # patches only
    )

MergeJoin tolerates partition-local sortedness on its streaming side
(the paper's "sorts and MergeJoins can also be evaluated locally"), so
no partition merge is needed here.

Every rewrite is gated by its measured breakeven exception rate
(:data:`~repro.core.patches.REWRITE_BREAKEVEN`): it fires iff the
index's exact ``|P_c|`` is below that share of the estimated input rows.
``always_rewrite`` bypasses the gate (used by benchmarks that sweep
exception rates), each rule can be disabled individually, and every
refusal is recorded in :attr:`Optimizer.refused`.

Besides DDL the optimizer reads data through :func:`observe` only, and
:attr:`Optimizer.observed` records each value it saw, so the plan cache
can re-check a plan on new data (:meth:`repro.plan.cache.CachedPlan.holds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.constraints import values_are_sorted
from repro.core.patches import rewrite_pays_off
from repro.errors import PlanInvariantError
from repro.exec.expressions import ColumnRef
from repro.exec.operators.aggregate import AggregateSpec
from repro.exec.operators.sort import SortKey
from repro.plan import logical as lp
from repro.plan.cardinality import predicate_selectivity
from repro.storage.catalog import Catalog
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.patch_index import PatchIndex


@dataclass(frozen=True)
class OptimizerOptions:
    """Tuning knobs for the optimizer (hashable: part of the plan
    cache's key)."""

    use_patch_indexes: bool = True
    always_rewrite: bool = False


@dataclass(frozen=True)
class _Pipeline:
    """A chain of Filter / rename-only Project nodes over one scan.

    ``column_map`` maps the pipeline's *output* column names to base
    table column names (identity unless a projection renamed them).
    """

    scan: lp.LogicalScan
    nodes: tuple[lp.LogicalPlan, ...]  # top-down, excluding the scan
    column_map: dict[str, str]

    @property
    def table(self) -> Table:
        return self.scan.table

    def rebuild(self, new_leaf: lp.LogicalPlan) -> lp.LogicalPlan:
        """Re-root the pipeline on a replacement leaf."""
        plan = new_leaf
        for node in reversed(self.nodes):
            plan = node.with_children([plan])
        return plan


def match_scan_pipeline(plan: lp.LogicalPlan) -> _Pipeline | None:
    """Match the paper's subtree X: selections and non-arithmetic
    projections over a single table scan.  Returns None on any other
    shape (joins, aggregates, computed projections, ...)."""
    nodes: list[lp.LogicalPlan] = []
    current = plan
    while True:
        if isinstance(current, lp.LogicalScan):
            scan = current
            break
        if isinstance(current, lp.LogicalFilter):
            nodes.append(current)
            current = current.child
            continue
        if isinstance(current, lp.LogicalProject):
            if not all(
                isinstance(expression, ColumnRef)
                for __, expression in current.outputs
            ):
                return None
            nodes.append(current)
            current = current.child
            continue
        return None
    # Walk bottom-up to build the output-name → base-name mapping.
    column_map = {name: name for name in scan.schema.names}
    for node in reversed(nodes):
        if isinstance(node, lp.LogicalProject):
            column_map = {
                alias: column_map[expression.name]
                for alias, expression in node.outputs
                if expression.name in column_map
            }
    return _Pipeline(scan, tuple(nodes), column_map)


def observe(catalog: Catalog, probe: tuple) -> object:
    """What *probe* reads from data: ``("gate", use case, table, index,
    filter selectivities)`` (rows estimated as ``estimate_rows`` does),
    ``("partitions", table)``, ``("zero_patches", index)`` or, for a
    column read directly, ``("version", table)``."""
    kind, *names = probe
    if kind == "gate":
        use_case, table, index, selectivities = names
        rows = catalog.table(table).row_count
        for selectivity in selectivities:
            rows = max(1, int(rows * selectivity))
        return rewrite_pays_off(use_case, rows, catalog.index(index).patch_count)
    if kind == "partitions":
        return catalog.table(names[0]).partition_count
    if kind == "version":
        return catalog.table(names[0]).data_version
    return catalog.index(names[0]).patch_count == 0


class Optimizer:
    """Rule-driven logical plan optimizer."""

    def __init__(self, catalog: Catalog, options: OptimizerOptions | None = None):
        self.catalog = catalog
        self.options = options or OptimizerOptions()
        self._sorted_column_cache: dict[tuple[str, str], bool] = {}
        #: The use case of each rewrite the breakeven gate refused.
        self.refused: list[str] = []
        #: Each :func:`observe` probe the plan rests on, with its value.
        self.observed: dict[tuple, object] = {}

    # -- entry point ----------------------------------------------------

    def optimize(self, plan: lp.LogicalPlan) -> lp.LogicalPlan:
        children = [self.optimize(child) for child in plan.children()]
        plan = plan.with_children(children) if children else plan
        if not self.options.use_patch_indexes:
            return plan
        for rule in (
            self._try_distinct,
            self._try_count_distinct,
            self._try_sort,
            self._try_join,
        ):
            rewritten = rule(plan)
            if rewritten is not None:
                return self._check_rewrite(plan, rewritten)
        return plan

    def _check_rewrite(
        self, original: lp.LogicalPlan, rewritten: lp.LogicalPlan
    ) -> lp.LogicalPlan:
        """A rewrite must be schema-preserving: same columns, same
        types, same order.  Anything else means the rule replaced the
        query with a different one — fail fast at plan time instead of
        returning wrong rows (rule ``rewrite-schema``)."""
        before = [(f.name, f.dtype) for f in original.schema.fields]
        after = [(f.name, f.dtype) for f in rewritten.schema.fields]
        if before != after:
            raise PlanInvariantError(
                "rewrite-schema",
                f"rewrite of {original.label()} changed the output "
                f"schema from {before} to {after}",
            )
        return rewritten

    # -- shared helpers ---------------------------------------------------

    def _find_index(
        self, table: Table, column: str, kind: str
    ) -> "PatchIndex | None":
        return self.catalog.find_index(table.name, column, kind)

    def _observe(self, *probe: object) -> object:
        """:func:`observe`, read once per plan and recorded."""
        if probe not in self.observed:
            self.observed[probe] = observe(self.catalog, probe)
        return self.observed[probe]

    def _accept(self, use_case: str, pipeline: _Pipeline, index: "PatchIndex") -> bool:
        selectivities = tuple(
            predicate_selectivity(node.predicate)
            for node in reversed(pipeline.nodes)
            if isinstance(node, lp.LogicalFilter)
        )
        if self.options.always_rewrite or self._observe(
            "gate", use_case, pipeline.table.name, index.name, selectivities
        ):
            return True
        self.refused.append(use_case)
        return False

    @staticmethod
    def _patched_leaf(
        pipeline: _Pipeline, index: "PatchIndex", use_patches: bool
    ) -> lp.LogicalPlan:
        return pipeline.rebuild(
            lp.LogicalPatchSelect(pipeline.scan, index, use_patches=use_patches)
        )

    # -- distinct rewrite (NUC) -----------------------------------------------

    def _try_distinct(self, plan: lp.LogicalPlan) -> lp.LogicalPlan | None:
        if not isinstance(plan, lp.LogicalDistinct):
            return None
        pipeline = match_scan_pipeline(plan.child)
        if pipeline is None:
            return None
        index = self._nuc_index_for_any(pipeline, plan.child.schema.names)
        if index is None:
            return None
        if not self._accept("distinct", pipeline, index):
            return None
        exclude = self._patched_leaf(pipeline, index, use_patches=False)
        use = lp.LogicalDistinct(
            self._patched_leaf(pipeline, index, use_patches=True)
        )
        return lp.LogicalUnionAll((exclude, use))

    def _try_count_distinct(self, plan: lp.LogicalPlan) -> lp.LogicalPlan | None:
        if not isinstance(plan, lp.LogicalAggregate):
            return None
        if plan.group_by or len(plan.aggregates) != 1:
            return None
        spec = plan.aggregates[0]
        if spec.func != "count_distinct":
            return None
        pipeline = match_scan_pipeline(plan.child)
        if pipeline is None:
            return None
        base_column = pipeline.column_map.get(spec.column)
        if base_column is None:
            return None
        index = self._find_index(pipeline.table, base_column, "unique")
        if index is None:
            return None
        if not self._accept("distinct", pipeline, index):
            return None
        project = ((spec.column, ColumnRef(spec.column)),)
        exclude: lp.LogicalPlan = lp.LogicalPatchSelect(
            pipeline.scan, index, use_patches=False
        )
        if any(isinstance(node, lp.LogicalFilter) for node in pipeline.nodes):
            exclude = pipeline.rebuild(exclude)
        use = lp.LogicalDistinct(
            lp.LogicalProject(
                self._patched_leaf(pipeline, index, use_patches=True), project
            )
        )
        alias = spec.alias
        union = lp.LogicalUnionAll(
            (
                lp.LogicalAggregate(
                    exclude, (), (AggregateSpec("count_star", None, alias),)
                ),
                lp.LogicalAggregate(
                    use, (), (AggregateSpec("count", spec.column, alias),)
                ),
            )
        )
        return lp.LogicalAggregate(
            union, (), (AggregateSpec("sum", alias, alias),)
        )

    def _nuc_index_for_any(
        self, pipeline: _Pipeline, output_names: tuple[str, ...]
    ) -> "PatchIndex | None":
        """A NUC index on any distinct-output column makes the whole
        row combination unique (a superset of a unique key is unique)."""
        for name in output_names:
            base = pipeline.column_map.get(name)
            if base is None:
                continue
            index = self._find_index(pipeline.table, base, "unique")
            if index is not None:
                return index
        return None

    # -- sort rewrite (NSC) -------------------------------------------------------

    def _try_sort(self, plan: lp.LogicalPlan) -> lp.LogicalPlan | None:
        if not isinstance(plan, lp.LogicalSort):
            return None
        if len(plan.keys) != 1:
            return None
        key = plan.keys[0]
        pipeline = match_scan_pipeline(plan.child)
        if pipeline is None:
            return None
        base_column = pipeline.column_map.get(key.column)
        if base_column is None:
            return None
        index = self._find_index(pipeline.table, base_column, "sorted")
        if index is None or index.ascending != key.ascending:
            return None
        if not self._accept("sort", pipeline, index):
            return None
        exclude = self._exclude_runs_merged(pipeline, index, (key,))
        use = lp.LogicalSort(
            self._patched_leaf(pipeline, index, use_patches=True), (key,)
        )
        return lp.LogicalMergeUnion(exclude, use, (key,))

    def _exclude_runs_merged(
        self,
        pipeline: _Pipeline,
        index: "PatchIndex",
        keys: tuple[SortKey, ...],
    ) -> lp.LogicalPlan:
        """The exclude branch as a globally sorted stream.

        NSC patch sets are partition-local (§VI-A2), so each partition's
        exclude stream is a sorted *run*; the runs must be merged into
        one sorted stream.  A single-partition table needs nothing (the
        shape of the paper's Figure 3).  For multi-partition tables the
        paper merges the parallel partition streams in its exchange
        operators; this serial engine realizes the K-way run merge with
        a Sort whose stable, run-detecting kernel (timsort) degenerates
        to exactly a K-way merge over K presorted runs.
        """
        exclude = self._patched_leaf(pipeline, index, use_patches=False)
        if index.scope == "global" or self._observe("partitions", index.table_name) == 1:
            return exclude
        return lp.LogicalSort(exclude, keys)

    # -- join rewrite (NSC) ------------------------------------------------------------

    def _try_join(self, plan: lp.LogicalPlan) -> lp.LogicalPlan | None:
        if not isinstance(plan, lp.LogicalJoin) or plan.join_type != "inner":
            return None
        # Try the PatchIndex on either input; the other side must be
        # sorted on its join key.
        attempt = self._join_with_index(
            plan, indexed=plan.left, other=plan.right,
            indexed_key=plan.left_key, other_key=plan.right_key,
        )
        if attempt is not None:
            return attempt
        return self._join_with_index(
            plan, indexed=plan.right, other=plan.left,
            indexed_key=plan.right_key, other_key=plan.left_key,
        )

    def _join_with_index(
        self,
        plan: lp.LogicalJoin,
        indexed: lp.LogicalPlan,
        other: lp.LogicalPlan,
        indexed_key: str,
        other_key: str,
    ) -> lp.LogicalPlan | None:
        pipeline = match_scan_pipeline(indexed)
        if pipeline is None:
            return None
        base_column = pipeline.column_map.get(indexed_key)
        if base_column is None:
            return None
        index = self._find_index(pipeline.table, base_column, "sorted")
        if index is None or not index.ascending:
            return None
        if not self._side_is_sorted(other, other_key):
            return None
        if not self._accept("join", pipeline, index):
            return None
        exclude = self._patched_leaf(pipeline, index, use_patches=False)
        use = self._patched_leaf(pipeline, index, use_patches=True)
        merge_branch: lp.LogicalPlan = lp.LogicalMergeJoin(
            exclude, other, indexed_key, other_key
        )
        hash_branch: lp.LogicalPlan = lp.LogicalJoin(
            use, other, indexed_key, other_key
        )
        # Restore the original output column order (left ++ right).
        target = plan.schema.names
        merge_branch = _reorder(merge_branch, target)
        hash_branch = _reorder(hash_branch, target)
        return lp.LogicalUnionAll((merge_branch, hash_branch))

    def _side_is_sorted(self, plan: lp.LogicalPlan, key: str) -> bool:
        """Is this join input sorted on *key*?

        True when it is a pipeline over a base table whose column is
        globally sorted — established either by an NSC PatchIndex with
        zero patches or by a (cached) direct check of the data, the
        engine-metadata analogue of "dimension tables are typically
        sorted on their primary key" (§VII-A1).
        """
        pipeline = match_scan_pipeline(plan)
        if pipeline is None:
            return False
        base_column = pipeline.column_map.get(key)
        if base_column is None:
            return False
        table = pipeline.table
        index = self._find_index(table, base_column, "sorted")
        if index is not None and index.ascending:
            # Zero patches still only certifies partition-local order;
            # fall through to the global check for multi-partition tables.
            if self._observe("zero_patches", index.name) and (
                self._observe("partitions", table.name) == 1
            ):
                return True
        cache_key = (table.name, base_column)
        if cache_key not in self._sorted_column_cache:
            self._observe("version", table.name)
            # NULL keys never join, and MergeJoin skips them: only the
            # values need to be in order.
            column = table.read_column(base_column)
            values = column.values
            if column.validity is not None:
                values = values[column.validity]
            self._sorted_column_cache[cache_key] = values_are_sorted(
                values, ascending=True
            )
        return self._sorted_column_cache[cache_key]


def _reorder(plan: lp.LogicalPlan, target_names: tuple[str, ...]) -> lp.LogicalPlan:
    """Project to a target column order; no-op when already in order."""
    if plan.schema.names == tuple(target_names):
        return plan
    return lp.LogicalProject(
        plan, tuple((name, ColumnRef(name)) for name in target_names)
    )
