"""Seeded-mutation tests for the plan verifier (repro.check).

Each mutation takes a plan shape the planner could legitimately
produce, breaks exactly one invariant the optimizer relies on, and
asserts the verifier rejects it with a typed
:class:`~repro.errors.PlanInvariantError` naming the violated rule.
Clean planner output must keep verifying, so the corpus brackets the
verifier from both sides: no false negatives on the mutations, no
false positives on real plans.
"""

import pytest

from repro import Database
from repro.check import OrderProperty, verify_plan
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.errors import ExecutionError, PlanInvariantError
from repro.exec.expressions import ColumnRef, Comparison, Literal
from repro.exec.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    MergeJoin,
    MergeUnion,
    PatchSelect,
    PatchSelectMode,
    Sort,
    SortKey,
    TableScan,
    TopN,
    UnionAll,
)
from repro.exec.result import collect
from repro.plan.optimizer import OptimizerOptions
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

EXCLUDE = PatchSelectMode.EXCLUDE_PATCHES
USE = PatchSelectMode.USE_PATCHES


def make_table(name="t", n=256, partition_count=2):
    """Nearly-sorted column s, nearly-unique column u, group column g."""
    s = list(range(n))
    s[10], s[100] = 0, 3  # two sorted-order exceptions
    u = list(range(n))
    u[5] = u[40] = u[90] = 7  # a duplicated value
    schema = Schema(
        [
            Field("s", DataType.INT64),
            Field("u", DataType.INT64),
            Field("g", DataType.INT64),
        ]
    )
    return Table.from_pydict(
        name,
        schema,
        {"s": s, "u": u, "g": [i % 4 for i in range(n)]},
        partition_count=partition_count,
    )


def make_dim(n=32):
    """A single-partition dimension table with distinct column names."""
    return Table.from_pydict(
        "dim",
        Schema([Field("k", DataType.INT64)]),
        {"k": list(range(n))},
    )


@pytest.fixture
def table() -> Table:
    return make_table()


@pytest.fixture
def nsc(table) -> PatchIndex:
    return PatchIndex.create("nsc_s", table, "s", "sorted")


@pytest.fixture
def nuc(table) -> PatchIndex:
    return PatchIndex.create("nuc_u", table, "u", "unique")


def rejects(rule: str, operator) -> PlanInvariantError:
    with pytest.raises(PlanInvariantError) as excinfo:
        verify_plan(operator)
    assert excinfo.value.rule == rule
    assert f"[{rule}]" in str(excinfo.value)
    return excinfo.value


# -- clean plans keep verifying ------------------------------------------------


class TestCleanPlans:
    def test_exclude_patchselect_proves_global_order(self, table, nsc):
        props = verify_plan(PatchSelect(TableScan(table), nsc, EXCLUDE))
        assert props.ordering == OrderProperty((SortKey("s", True),), "global")

    def test_sort_establishes_global_order(self, table):
        props = verify_plan(Sort(TableScan(table), [SortKey("u", False)]))
        assert props.ordering == OrderProperty((SortKey("u", False),))

    def test_canonical_nsc_sort_rewrite(self, table, nsc):
        keys = [SortKey("s", True)]
        plan = MergeUnion(
            PatchSelect(TableScan(table), nsc, EXCLUDE),
            Sort(PatchSelect(TableScan(table), nsc, USE), keys),
            keys,
        )
        props = verify_plan(plan)
        assert props.ordering == OrderProperty(tuple(keys))

    def test_canonical_nuc_distinct_rewrite(self, table, nuc):
        plan = Distinct(
            UnionAll(
                [
                    PatchSelect(TableScan(table), nuc, EXCLUDE),
                    Distinct(PatchSelect(TableScan(table), nuc, USE)),
                ]
            )
        )
        assert verify_plan(plan).ordering is None

    def test_planner_output_verifies_end_to_end(self):
        db = Database()
        db.sql("CREATE TABLE v (x BIGINT) PARTITIONS 2")
        db.sql(
            "INSERT INTO v VALUES "
            + ", ".join(f"({i})" for i in [3, 1, 2, 2, 5, 9, 7, 4])
        )
        db.sql("CREATE PATCHINDEX vx ON v(x) TYPE UNIQUE")
        result = db.sql(
            "SELECT DISTINCT x FROM v",
            optimizer_options=OptimizerOptions(always_rewrite=True),
        )
        assert sorted(result.column("x").to_pylist()) == [1, 2, 3, 4, 5, 7, 9]

    def test_explain_reports_verified(self):
        db = Database()
        db.sql("CREATE TABLE e (x BIGINT)")
        db.sql("INSERT INTO e VALUES (1), (2)")
        assert "verified: ok" in db.explain("SELECT x FROM e ORDER BY x")


# -- patchselect-placement / patch-design --------------------------------------


class TestPatchSelectRules:
    def test_patchselect_above_filter(self, table, nsc):
        plan = PatchSelect(TableScan(table), nsc, EXCLUDE)
        plan.child = Filter(
            TableScan(table), Comparison(">", ColumnRef("s"), Literal(3))
        )
        rejects("patchselect-placement", plan)

    def test_patchselect_on_wrong_table(self, table, nsc):
        plan = PatchSelect(TableScan(table), nsc, EXCLUDE)
        plan.child = TableScan(make_table(name="other"))
        rejects("patchselect-placement", plan)

    def test_pinned_mode_contradicts_design(self, table, nsc):
        nsc.mode = PatchIndexMode.BITMAP  # carries identifier patch sets
        rejects("patch-design", PatchSelect(TableScan(table), nsc, EXCLUDE))

    def test_auto_design_must_honor_crossover(self, table, monkeypatch):
        n = table.row_count
        # Duplicate half the column: AUTO resolves to bitmap patches.
        for rowid in range(0, n, 2):
            table.update_rowid(rowid, "g", 1)
        heavy = PatchIndex.create("heavy_g", table, "g", "unique")
        assert heavy.design == "bitmap"
        # Mutation: the observed rate says identifier-side of 1/64.
        monkeypatch.setattr(
            PatchIndex, "exception_rate", property(lambda self: 0.0)
        )
        rejects("patch-design", PatchSelect(TableScan(table), heavy, EXCLUDE))

    def test_mixed_designs_across_partitions(self, table, nsc, monkeypatch):
        class _FakeSet:
            def __init__(self, design):
                self.design = design

        monkeypatch.setattr(
            nsc,
            "partition_patches",
            lambda pid: _FakeSet("identifier" if pid == 0 else "bitmap"),
        )
        rejects("patch-design", PatchSelect(TableScan(table), nsc, EXCLUDE))


# -- patchselect-partitioning / nuc-use-distinct -------------------------------


class TestPartitioningRules:
    def test_both_branches_exclude(self, table, nsc):
        plan = UnionAll(
            [
                PatchSelect(TableScan(table), nsc, EXCLUDE),
                PatchSelect(TableScan(table), nsc, EXCLUDE),
            ]
        )
        rejects("patchselect-partitioning", plan)

    def test_both_branches_use(self, table, nuc):
        plan = UnionAll(
            [
                Distinct(PatchSelect(TableScan(table), nuc, USE)),
                Distinct(PatchSelect(TableScan(table), nuc, USE)),
            ]
        )
        rejects("patchselect-partitioning", plan)

    def test_branches_cover_different_row_sets(self, table, nuc):
        plan = UnionAll(
            [
                PatchSelect(
                    TableScan(table, scan_ranges=[(0, 32)]), nuc, EXCLUDE
                ),
                Distinct(PatchSelect(TableScan(table), nuc, USE)),
            ]
        )
        rejects("patchselect-partitioning", plan)

    def test_nuc_use_branch_missing_distinct(self, table, nuc):
        plan = UnionAll(
            [
                PatchSelect(TableScan(table), nuc, EXCLUDE),
                PatchSelect(TableScan(table), nuc, USE),
            ]
        )
        rejects("nuc-use-distinct", plan)

    def test_distinct_on_wrong_branch(self, table, nuc):
        plan = UnionAll(
            [
                Distinct(PatchSelect(TableScan(table), nuc, EXCLUDE)),
                PatchSelect(TableScan(table), nuc, USE),
            ]
        )
        rejects("nuc-use-distinct", plan)


# -- merge-input-order ---------------------------------------------------------


class TestMergeRules:
    def test_merge_union_right_input_unsorted(self, table, nsc):
        keys = [SortKey("s", True)]
        plan = MergeUnion(
            PatchSelect(TableScan(table), nsc, EXCLUDE),
            PatchSelect(TableScan(table), nsc, USE),  # dropped Sort
            keys,
        )
        rejects("merge-input-order", plan)

    def test_partition_local_order_is_not_global(self, table):
        local = PatchIndex.create(
            "nsc_local", table, "s", "sorted", scope="partition"
        )
        keys = [SortKey("s", True)]
        plan = MergeUnion(
            PatchSelect(TableScan(table), local, EXCLUDE),
            Sort(PatchSelect(TableScan(table), local, USE), keys),
            keys,
        )
        rejects("merge-input-order", plan)

    def test_merge_join_unsorted_input_fails_at_run_time(self, table):
        plan = MergeJoin(
            TableScan(table),  # no proven order on the left, and unsorted
            Sort(TableScan(make_dim()), [SortKey("k", True)]),
            "s",
            "k",
        )
        verify_plan(plan)
        with pytest.raises(ExecutionError, match="left input is not sorted"):
            collect(plan)

    def test_merge_join_runtime_guard_accepted(self, table):
        plan = MergeJoin(
            TableScan(table),
            Sort(TableScan(make_dim()), [SortKey("k", True)]),
            "s",
            "k",
        )
        verify_plan(plan)


# -- limit-order ---------------------------------------------------------------


class TestLimitOrderRules:
    def test_sort_above_limit(self, table):
        plan = Sort(Limit(TableScan(table), 5), [SortKey("s", True)])
        rejects("limit-order", plan)

    def test_topn_above_topn(self, table):
        keys = [SortKey("s", True)]
        plan = TopN(TopN(TableScan(table), keys, 5), keys, 3)
        rejects("limit-order", plan)

    def test_limit_below_distinct(self, table):
        rejects("limit-order", Distinct(Limit(TableScan(table), 5)))

    def test_limit_below_union_branch(self, table):
        plan = UnionAll([Limit(TableScan(table), 5), TableScan(table)])
        rejects("limit-order", plan)


# -- scan-ranges ---------------------------------------------------------------


class TestScanRangeRules:
    def test_inverted_scan_range(self, table):
        plan = TableScan(table)
        plan.scan_ranges = [(16, 4)]  # post-construction corruption
        rejects("scan-ranges", plan)

    def test_scan_range_beyond_table(self, table):
        plan = TableScan(table)
        plan.scan_ranges = [(0, table.row_count + 8)]
        rejects("scan-ranges", plan)


# -- expression-binding / union-types ------------------------------------------


class TestBindingRules:
    def test_filter_references_unknown_column(self, table):
        plan = Filter(
            TableScan(table), Comparison(">", ColumnRef("nope"), Literal(1))
        )
        rejects("expression-binding", plan)

    def test_sort_key_missing_from_schema(self, table):
        plan = Sort(TableScan(table, columns=["s"]), [SortKey("u", True)])
        rejects("expression-binding", plan)

    def test_hash_join_probe_key_missing(self, table):
        plan = HashJoin(
            TableScan(table, columns=["s"]), TableScan(make_dim()), "s", "k"
        )
        plan.probe_key = "u"  # post-construction corruption
        rejects("expression-binding", plan)

    def test_aggregate_over_unknown_column(self, table):
        plan = HashAggregate(
            TableScan(table), ["g"], [AggregateSpec("min", "s", "lo")]
        )
        plan.child = TableScan(table, columns=["g"])
        rejects("expression-binding", plan)

    def test_union_branches_disagree_on_names(self, table):
        other = Table.from_pydict(
            "o",
            Schema([Field("x", DataType.INT64)]),
            {"x": [1, 2, 3]},
        )
        plan = UnionAll(
            [TableScan(table, columns=["s"]), TableScan(other)]
        )
        rejects("union-types", plan)
