"""Tests for the PatchIndex query rewrites (paper §VI-B, Figure 3).

The central property: for every rewrite, the optimized plan returns the
same multiset of rows as the unoptimized plan, across random data,
exception rates, partition counts and pipeline shapes.
"""

from hypothesis import given, settings, strategies as st

from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.exec.expressions import ColumnRef, Comparison, Literal
from repro.exec.operators.aggregate import AggregateSpec
from repro.exec.operators.sort import SortKey
from repro.exec.result import collect
from repro.plan import logical as lp
from repro.plan.optimizer import Optimizer, OptimizerOptions, match_scan_pipeline
from repro.plan.physical import PhysicalPlanner
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def build_catalog(
    values, kind, partition_count=2, mode=PatchIndexMode.AUTO, scope="global"
):
    table = Table.from_pydict(
        "t",
        Schema([Field("c", DataType.INT64), Field("pay", DataType.INT64)]),
        {"c": values, "pay": list(range(len(values)))},
        partition_count=partition_count,
    )
    catalog = Catalog()
    catalog.add_table(table)
    index = PatchIndex.create("pi", table, "c", kind, mode=mode, scope=scope)
    catalog.add_index(index)
    return catalog, table, index


def run(plan):
    return collect(PhysicalPlanner().plan(plan))


def optimizer(catalog, always=True, **kwargs):
    return Optimizer(catalog, OptimizerOptions(always_rewrite=always, **kwargs))


def plan_contains(plan, node_type) -> bool:
    if isinstance(plan, node_type):
        return True
    return any(plan_contains(child, node_type) for child in plan.children())


class TestPipelineMatcher:
    def test_matches_scan(self):
        catalog, table, __ = build_catalog([1, 2], "unique")
        pipeline = match_scan_pipeline(lp.LogicalScan(table))
        assert pipeline is not None
        assert pipeline.column_map == {"c": "c", "pay": "pay"}

    def test_matches_filter_project_chain(self):
        catalog, table, __ = build_catalog([1, 2], "unique")
        plan = lp.LogicalProject(
            lp.LogicalFilter(
                lp.LogicalScan(table),
                Comparison(">", ColumnRef("c"), Literal(0)),
            ),
            (("renamed", ColumnRef("c")),),
        )
        pipeline = match_scan_pipeline(plan)
        assert pipeline is not None
        assert pipeline.column_map == {"renamed": "c"}

    def test_rejects_computed_projection(self):
        from repro.exec.expressions import Arithmetic

        catalog, table, __ = build_catalog([1, 2], "unique")
        plan = lp.LogicalProject(
            lp.LogicalScan(table),
            (("x", Arithmetic("+", ColumnRef("c"), Literal(1))),),
        )
        assert match_scan_pipeline(plan) is None

    def test_rejects_aggregate(self):
        catalog, table, __ = build_catalog([1, 2], "unique")
        plan = lp.LogicalAggregate(
            lp.LogicalScan(table), (), (AggregateSpec("count_star", None, "n"),)
        )
        assert match_scan_pipeline(plan) is None


class TestDistinctRewrite:
    def test_plan_shape(self):
        catalog, table, __ = build_catalog([1, 1, 2, 3], "unique")
        plan = lp.LogicalDistinct(lp.LogicalScan(table, ("c",)))
        optimized = optimizer(catalog).optimize(plan)
        assert isinstance(optimized, lp.LogicalUnionAll)
        assert plan_contains(optimized, lp.LogicalPatchSelect)

    def test_disabled_by_option(self):
        catalog, table, __ = build_catalog([1, 1, 2, 3], "unique")
        plan = lp.LogicalDistinct(lp.LogicalScan(table, ("c",)))
        options = OptimizerOptions(rewrite_distinct=False, always_rewrite=True)
        optimized = Optimizer(catalog, options).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)

    def test_no_index_no_rewrite(self):
        catalog, table, index = build_catalog([1, 1, 2, 3], "sorted")
        plan = lp.LogicalDistinct(lp.LogicalScan(table, ("c",)))
        optimized = optimizer(catalog).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)

    def test_cost_model_gates_high_rates(self):
        # Every value duplicated: the patched plan cannot win.
        catalog, table, __ = build_catalog([1, 1, 2, 2], "unique")
        plan = lp.LogicalDistinct(lp.LogicalScan(table, ("c",)))
        optimized = optimizer(catalog, always=False).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)

    def test_multi_column_distinct_uses_any_nuc(self):
        catalog, table, __ = build_catalog([1, 1, 2, 3], "unique")
        plan = lp.LogicalDistinct(lp.LogicalScan(table))  # (c, pay)
        optimized = optimizer(catalog).optimize(plan)
        assert plan_contains(optimized, lp.LogicalPatchSelect)
        got = sorted(run(optimized).to_pylist())
        expected = sorted(run(plan).to_pylist())
        assert got == expected

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 10)), max_size=60),
        st.integers(1, 3),
        st.sampled_from([PatchIndexMode.IDENTIFIER, PatchIndexMode.BITMAP]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalence(self, values, partitions, mode, with_filter):
        catalog, table, __ = build_catalog(
            values, "unique", partition_count=partitions, mode=mode
        )
        child: lp.LogicalPlan = lp.LogicalScan(table, ("c",))
        if with_filter:
            child = lp.LogicalFilter(
                child, Comparison(">", ColumnRef("c"), Literal(2))
            )
        plan = lp.LogicalDistinct(child)
        optimized = optimizer(catalog).optimize(plan)
        assert plan_contains(optimized, lp.LogicalPatchSelect) == bool(values) or not values
        got = sorted(run(optimized).column("c").to_pylist(), key=str)
        expected = sorted(run(plan).column("c").to_pylist(), key=str)
        assert got == expected


class TestCountDistinctRewrite:
    def make_plan(self, table):
        return lp.LogicalAggregate(
            lp.LogicalScan(table, ("c",)),
            (),
            (AggregateSpec("count_distinct", "c", "n"),),
        )

    def test_plan_shape(self):
        catalog, table, __ = build_catalog([1, 1, 2, 3], "unique")
        optimized = optimizer(catalog).optimize(self.make_plan(table))
        assert isinstance(optimized, lp.LogicalAggregate)
        assert optimized.aggregates[0].func == "sum"
        union = optimized.child
        assert isinstance(union, lp.LogicalUnionAll)
        assert [branch.aggregates[0].func for branch in union.inputs] == [
            "count_star",
            "count",
        ]
        for branch in union.inputs:
            assert plan_contains(branch, lp.LogicalPatchSelect)

    def test_group_by_not_rewritten(self):
        catalog, table, __ = build_catalog([1, 1, 2, 3], "unique")
        plan = lp.LogicalAggregate(
            lp.LogicalScan(table),
            ("pay",),
            (AggregateSpec("count_distinct", "c", "n"),),
        )
        optimized = optimizer(catalog).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)

    @given(st.lists(st.one_of(st.none(), st.integers(0, 8)), max_size=60), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_equivalence(self, values, partitions):
        catalog, table, __ = build_catalog(
            values, "unique", partition_count=partitions
        )
        plan = self.make_plan(table)
        optimized = optimizer(catalog).optimize(plan)
        assert run(optimized).scalar() == run(plan).scalar()


class TestSortRewrite:
    def test_plan_shape_single_partition(self):
        catalog, table, __ = build_catalog([1, 9, 2, 3], "sorted", partition_count=1)
        plan = lp.LogicalSort(lp.LogicalScan(table, ("c",)), (SortKey("c"),))
        optimized = optimizer(catalog).optimize(plan)
        assert isinstance(optimized, lp.LogicalMergeUnion)

    def test_partition_scope_multi_partition_merges_runs(self):
        catalog, table, __ = build_catalog(
            list(range(8)), "sorted", partition_count=3, scope="partition"
        )
        plan = lp.LogicalSort(lp.LogicalScan(table, ("c",)), (SortKey("c"),))
        optimized = optimizer(catalog).optimize(plan)
        assert isinstance(optimized, lp.LogicalMergeUnion)
        # Partition-local patch sets leave per-partition sorted runs;
        # the exclude branch carries a run-merging Sort on top of the
        # PatchSelect (a K-way merge in this serial engine).
        exclude_branch = optimized.left
        assert isinstance(exclude_branch, lp.LogicalSort)
        assert plan_contains(exclude_branch, lp.LogicalPatchSelect)

    def test_global_scope_needs_no_run_merge(self):
        catalog, table, __ = build_catalog(
            list(range(8)), "sorted", partition_count=3, scope="global"
        )
        plan = lp.LogicalSort(lp.LogicalScan(table, ("c",)), (SortKey("c"),))
        optimized = optimizer(catalog).optimize(plan)
        assert isinstance(optimized, lp.LogicalMergeUnion)
        assert not isinstance(optimized.left, lp.LogicalSort)

    def test_single_partition_needs_no_run_merge(self):
        catalog, table, __ = build_catalog(
            list(range(8)), "sorted", partition_count=1, scope="partition"
        )
        plan = lp.LogicalSort(lp.LogicalScan(table, ("c",)), (SortKey("c"),))
        optimized = optimizer(catalog).optimize(plan)
        assert isinstance(optimized, lp.LogicalMergeUnion)
        assert not isinstance(optimized.left, lp.LogicalSort)

    def test_direction_mismatch_no_rewrite(self):
        catalog, table, __ = build_catalog([1, 9, 2, 3], "sorted")
        plan = lp.LogicalSort(
            lp.LogicalScan(table, ("c",)), (SortKey("c", ascending=False),)
        )
        optimized = optimizer(catalog).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)

    def test_multi_key_not_rewritten(self):
        catalog, table, __ = build_catalog([1, 9, 2, 3], "sorted")
        plan = lp.LogicalSort(
            lp.LogicalScan(table), (SortKey("c"), SortKey("pay"))
        )
        optimized = optimizer(catalog).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 30)), max_size=60),
        st.integers(1, 4),
        st.sampled_from([PatchIndexMode.IDENTIFIER, PatchIndexMode.BITMAP]),
        st.booleans(),
        st.sampled_from(["global", "partition"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalence(self, values, partitions, mode, with_filter, scope):
        catalog, table, __ = build_catalog(
            values, "sorted", partition_count=partitions, mode=mode, scope=scope
        )
        child: lp.LogicalPlan = lp.LogicalScan(table, ("c",))
        if with_filter:
            child = lp.LogicalFilter(
                child, Comparison("<", ColumnRef("c"), Literal(20))
            )
        plan = lp.LogicalSort(child, (SortKey("c"),))
        optimized = optimizer(catalog).optimize(plan)
        got = run(optimized).column("c").to_pylist()
        expected = run(plan).column("c").to_pylist()
        assert got == expected


class TestJoinRewrite:
    def make_catalog(self, fact_values, dim_keys, partitions=2):
        catalog, fact, index = build_catalog(
            fact_values, "sorted", partition_count=partitions
        )
        dim = Table.from_pydict(
            "d",
            Schema([Field("k", DataType.INT64), Field("label", DataType.INT64)]),
            {"k": dim_keys, "label": [i * 10 for i in range(len(dim_keys))]},
        )
        catalog.add_table(dim)
        return catalog, fact, dim

    def test_plan_shape(self):
        catalog, fact, dim = self.make_catalog([1, 9, 2, 3], sorted({1, 2, 3, 9}))
        plan = lp.LogicalJoin(
            lp.LogicalScan(fact, ("c",)), lp.LogicalScan(dim), "c", "k"
        )
        optimized = optimizer(catalog).optimize(plan)
        assert isinstance(optimized, lp.LogicalUnionAll)
        assert plan_contains(optimized, lp.LogicalMergeJoin)

    def test_unsorted_other_side_no_rewrite(self):
        catalog, fact, dim = self.make_catalog([1, 9, 2, 3], [9, 1, 3, 2])
        plan = lp.LogicalJoin(
            lp.LogicalScan(fact, ("c",)), lp.LogicalScan(dim), "c", "k"
        )
        optimized = optimizer(catalog).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalMergeJoin)

    def test_null_keys_do_not_unsort_the_other_side(self):
        # NULL keys never join, and MergeJoin skips them.
        catalog, fact, dim = self.make_catalog(
            [1, 9, 2, 3, None], [None, 1, 2, None, 3, 9]
        )
        plan = lp.LogicalJoin(
            lp.LogicalScan(fact, ("c",)), lp.LogicalScan(dim), "c", "k"
        )
        optimized = optimizer(catalog).optimize(plan)
        assert plan_contains(optimized, lp.LogicalMergeJoin)
        assert sorted(run(optimized).to_pylist()) == sorted(run(plan).to_pylist())

    def test_left_outer_not_rewritten(self):
        catalog, fact, dim = self.make_catalog([1, 2], [1, 2])
        plan = lp.LogicalJoin(
            lp.LogicalScan(fact, ("c",)),
            lp.LogicalScan(dim),
            "c",
            "k",
            "left_outer",
        )
        optimized = optimizer(catalog).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalMergeJoin)

    def test_output_column_order_preserved(self):
        catalog, fact, dim = self.make_catalog([1, 9, 2, 3], [1, 2, 3, 9])
        plan = lp.LogicalJoin(
            lp.LogicalScan(fact, ("c",)), lp.LogicalScan(dim), "c", "k"
        )
        optimized = optimizer(catalog).optimize(plan)
        assert optimized.schema.names == plan.schema.names

    def test_index_on_right_side_also_matches(self):
        catalog, fact, dim = self.make_catalog([1, 9, 2, 3], [1, 2, 3, 9])
        plan = lp.LogicalJoin(
            lp.LogicalScan(dim), lp.LogicalScan(fact, ("c",)), "k", "c"
        )
        optimized = optimizer(catalog).optimize(plan)
        assert plan_contains(optimized, lp.LogicalMergeJoin)
        got = sorted(run(optimized).to_pylist())
        expected = sorted(run(plan).to_pylist())
        assert got == expected

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 20)), max_size=50),
        st.lists(st.integers(0, 20), max_size=20, unique=True).map(sorted),
        st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalence(self, fact_values, dim_keys, partitions):
        catalog, fact, dim = self.make_catalog(
            fact_values, dim_keys, partitions
        )
        plan = lp.LogicalJoin(
            lp.LogicalScan(fact, ("c",)), lp.LogicalScan(dim), "c", "k"
        )
        optimized = optimizer(catalog).optimize(plan)
        got = sorted(run(optimized).to_pylist())
        expected = sorted(run(plan).to_pylist())
        assert got == expected


class TestOptimizerOptions:
    def test_use_patch_indexes_master_switch(self):
        catalog, table, __ = build_catalog([1, 1, 2, 3], "unique")
        plan = lp.LogicalDistinct(lp.LogicalScan(table, ("c",)))
        options = OptimizerOptions(use_patch_indexes=False, always_rewrite=True)
        optimized = Optimizer(catalog, options).optimize(plan)
        assert not plan_contains(optimized, lp.LogicalPatchSelect)
