"""Tests for the physical planner: scan pruning, build side."""


from repro.exec.expressions import And, ColumnRef, Comparison, Literal
from repro.exec.operators import Filter, HashJoin, Project, TableScan
from repro.exec.result import collect
from repro.plan import logical as lp
from repro.plan.physical import PhysicalPlanner
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(n=100, partition_count=2, block_size=10):
    return Table.from_pydict(
        "t",
        Schema([Field("x", DataType.INT64)]),
        {"x": list(range(n))},
        partition_count=partition_count,
        block_size=block_size,
    )


class TestScanRangeDerivation:
    def test_filter_over_scan_prunes_blocks(self):
        table = make_table()
        plan = lp.LogicalFilter(
            lp.LogicalScan(table),
            Comparison(">=", ColumnRef("x"), Literal(80)),
        )
        operator = PhysicalPlanner().plan(plan)
        assert isinstance(operator, Filter)
        scan = operator.child
        assert isinstance(scan, TableScan)
        assert scan.scan_ranges is None and scan.prune == plan.predicate
        assert scan.ranges() is not None
        covered = sum(stop - start for start, stop in scan.ranges())
        assert covered < table.row_count
        # The result is still exact (the filter re-checks).
        assert collect(operator).column("x").to_pylist() == list(range(80, 100))

    def test_flipped_literal_comparison(self):
        table = make_table()
        plan = lp.LogicalFilter(
            lp.LogicalScan(table),
            Comparison("<", Literal(20), ColumnRef("x")),  # 20 < x
        )
        operator = PhysicalPlanner().plan(plan)
        result = collect(operator)
        assert result.column("x").to_pylist() == list(range(21, 100))
        assert operator.child.ranges() is not None

    def test_conjunct_inside_and(self):
        table = make_table()
        predicate = And(
            Comparison(">", ColumnRef("x"), Literal(90)),
            Comparison("<", ColumnRef("x"), Literal(95)),
        )
        operator = PhysicalPlanner().plan(
            lp.LogicalFilter(lp.LogicalScan(table), predicate)
        )
        assert collect(operator).column("x").to_pylist() == [91, 92, 93, 94]

    def test_derivation_can_be_disabled(self):
        table = make_table()
        plan = lp.LogicalFilter(
            lp.LogicalScan(table),
            Comparison(">=", ColumnRef("x"), Literal(80)),
        )
        operator = PhysicalPlanner(derive_scan_ranges=False).plan(plan)
        assert operator.child.prune is None
        assert operator.child.ranges() is None

    def test_no_prunable_conjunct(self):
        table = make_table()
        plan = lp.LogicalFilter(
            lp.LogicalScan(table),
            Comparison("=", ColumnRef("x"), ColumnRef("x")),
        )
        operator = PhysicalPlanner().plan(plan)
        assert operator.child.ranges() is None


class TestBuildSideChoice:
    def make_join(self, left_rows, right_rows):
        left = Table.from_pydict(
            "l",
            Schema([Field("lk", DataType.INT64)]),
            {"lk": list(range(left_rows))},
        )
        right = Table.from_pydict(
            "r",
            Schema([Field("rk", DataType.INT64)]),
            {"rk": list(range(right_rows))},
        )
        return lp.LogicalJoin(
            lp.LogicalScan(left), lp.LogicalScan(right), "lk", "rk"
        )

    def test_small_right_builds_right(self):
        operator = PhysicalPlanner().plan(self.make_join(1000, 10))
        assert isinstance(operator, HashJoin)
        assert operator.build.table.name == "r"

    def test_small_left_builds_left_with_reorder(self):
        plan = self.make_join(10, 1000)
        operator = PhysicalPlanner().plan(plan)
        # Swapped: a projection restores the (lk, rk) column order.
        assert isinstance(operator, Project)
        assert operator.schema.names == plan.schema.names
        result = collect(operator)
        assert result.row_count == 10


class TestCardinality:
    def test_estimates(self):
        from repro.plan.cardinality import estimate_rows

        table = make_table(n=1000)
        scan = lp.LogicalScan(table)
        assert estimate_rows(scan) == 1000
        filtered = lp.LogicalFilter(
            scan, Comparison("=", ColumnRef("x"), Literal(1))
        )
        assert estimate_rows(filtered) == 100  # 10% equality selectivity
        assert estimate_rows(lp.LogicalLimit(scan, 5)) == 5
        assert (
            estimate_rows(lp.LogicalAggregate(scan, (), ()))
            == 1
        )

    def test_patch_select_estimate_is_exact(self):
        from repro.core.patch_index import PatchIndex
        from repro.plan.cardinality import estimate_rows

        table = Table.from_pydict(
            "t",
            Schema([Field("c", DataType.INT64)]),
            {"c": [1, 1, 2, 3]},
        )
        index = PatchIndex.create("pi", table, "c", "unique")
        scan = lp.LogicalScan(table)
        use = lp.LogicalPatchSelect(scan, index, use_patches=True)
        exclude = lp.LogicalPatchSelect(scan, index, use_patches=False)
        assert estimate_rows(use) == 2
        assert estimate_rows(exclude) == 2
