"""Unit and property tests for NUC/NSC discovery.

Properties verified against the formal validators of
:mod:`repro.core.constraints`:

- NUC discovery always satisfies NUC1 + NUC2 and is minimal (the patch
  set is exactly the duplicated-or-NULL rows).
- NSC discovery always satisfies NSC1 and is minimal (cardinality
  equals ``n - LIS(valid values)``).
- Table-level discovery honours the paper's partition semantics.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import check_nsc, check_nuc
from repro.core.discovery import (
    discover,
    discover_nsc_patches,
    discover_nuc_patches,
    discover_table_nsc,
    discover_table_nuc,
    nuc_discovery_sql,
)
from repro.core.lis import longest_sorted_subsequence_length
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType
from tests.test_lis import near_sorted, reference_positions

int_or_none = st.one_of(st.none(), st.integers(0, 20))


def col(items):
    return ColumnVector.from_pylist(DataType.INT64, items)


class TestNucDiscovery:
    def test_paper_figure2_example(self):
        # Values 3 and 6 occur twice: all four occurrences are patches.
        patches = discover_nuc_patches(col([1, 3, 4, 3, 2, 6, 7, 6]))
        assert patches.tolist() == [1, 3, 5, 7]

    def test_all_unique(self):
        assert discover_nuc_patches(col([5, 2, 9])).tolist() == []

    def test_all_duplicates(self):
        assert discover_nuc_patches(col([1, 1, 1])).tolist() == [0, 1, 2]

    def test_nulls_are_patches(self):
        assert discover_nuc_patches(col([1, None, 2, None])).tolist() == [1, 3]

    def test_empty(self):
        assert discover_nuc_patches(col([])).tolist() == []

    def test_strings(self):
        column = ColumnVector.from_pylist(
            DataType.STRING, ["a", "b", "a", None]
        )
        assert discover_nuc_patches(column).tolist() == [0, 2, 3]

    @given(st.lists(int_or_none, max_size=80))
    @settings(max_examples=150)
    def test_satisfies_nuc_and_minimal(self, items):
        column = col(items)
        patches = discover_nuc_patches(column)
        assert check_nuc(column, patches)
        # Minimality: exactly the duplicated-or-null positions.
        counts: dict[int, int] = {}
        for item in items:
            if item is not None:
                counts[item] = counts.get(item, 0) + 1
        expected = [
            position
            for position, item in enumerate(items)
            if item is None or counts[item] > 1
        ]
        assert patches.tolist() == expected


class TestNscDiscovery:
    def test_minimal_patch_count(self):
        column = col([1, 3, 4, 3, 2, 6, 7, 6])
        patches = discover_nsc_patches(column)
        assert len(patches) == 3

    def test_sorted_input(self):
        assert discover_nsc_patches(col([1, 2, 2, 9])).tolist() == []

    def test_nulls_are_patches(self):
        patches = discover_nsc_patches(col([1, None, 2]))
        assert 1 in patches.tolist()

    def test_descending(self):
        patches = discover_nsc_patches(col([9, 5, 7, 3]), ascending=False)
        assert len(patches) == 1

    @given(st.lists(int_or_none, max_size=80), st.booleans(), st.booleans())
    @settings(max_examples=150)
    def test_satisfies_nsc_and_minimal(self, items, ascending, strict):
        column = col(items)
        patches = discover_nsc_patches(column, ascending=ascending, strict=strict)
        assert check_nsc(column, patches, ascending=ascending, strict=strict)
        valid = [item for item in items if item is not None]
        lis = longest_sorted_subsequence_length(
            np.array(valid, dtype=np.int64), ascending=ascending, strict=strict
        )
        assert len(patches) == len(items) - lis


class TestTableLevelDiscovery:
    def make_table(self, values, partition_count):
        return Table.from_pydict(
            "t",
            Schema([Field("c", DataType.INT64)]),
            {"c": values},
            partition_count=partition_count,
        )

    def test_nuc_grouping_is_global(self):
        # 5 appears once in each partition: both occurrences are patches
        # even though each partition sees it only once locally.
        table = self.make_table([5, 1, 2, 5, 3, 4], partition_count=2)
        result = discover_table_nuc(table, "c")
        assert result.global_rowids().tolist() == [0, 3]
        assert result.per_partition_rowids[0].tolist() == [0]
        assert result.per_partition_rowids[1].tolist() == [0]  # local id

    def test_nsc_partition_scope(self):
        # Each partition is locally sorted; globally the sequence drops
        # at the partition boundary.  Partition-scope discovery (the
        # paper's §VI-A2 design) finds 0 patches.
        table = self.make_table([10, 20, 30, 1, 2, 3], partition_count=2)
        result = discover_table_nsc(table, "c", scope="partition")
        assert result.patch_count == 0

    def test_nsc_global_scope(self):
        # Global scope (this engine's default) sees the drop at the
        # partition boundary and patches one side of it.
        table = self.make_table([10, 20, 30, 1, 2, 3], partition_count=2)
        result = discover_table_nsc(table, "c", scope="global")
        assert result.patch_count == 3
        # Patches are still stored partition-locally.
        assert len(result.per_partition_rowids) == 2

    def test_nsc_unknown_scope(self):
        table = self.make_table([1, 2], partition_count=1)
        with pytest.raises(ValueError):
            discover_table_nsc(table, "c", scope="cluster")

    def test_exception_rate_and_satisfies(self):
        table = self.make_table([1, 1, 2, 3], partition_count=1)
        result = discover_table_nuc(table, "c")
        assert result.exception_rate == 0.5
        assert result.satisfies(0.5)
        assert not result.satisfies(0.49)

    def test_discover_dispatch(self):
        table = self.make_table([1, 2, 2], partition_count=1)
        assert discover(table, "c", "unique").patch_count == 2
        assert discover(table, "c", "sorted").patch_count == 0


class TestDiscoverySql:
    def test_sql_shape(self):
        sql = nuc_discovery_sql("tab", "c")
        assert "left outer join" in sql
        assert "group by c" in sql
        assert "having count(*) > 1" in sql
        assert "tab.c is null" in sql


# -- the run-at-a-time kernel against the per-row loop it replaced -----------


def reference_nsc_patches(column, ascending=True, strict=False) -> list[int]:
    """``discover_nsc_patches`` over the per-row loop kept in test_lis."""
    valid = np.flatnonzero(column.validity_or_all_true())
    kept = reference_positions(column.values[valid], ascending, strict)
    return sorted(set(range(len(column))) - set(valid[kept].tolist()))


def column_of(dtype):
    """Lists for a *dtype* column, ~1 in 6 values NULL."""
    values = {
        DataType.INT64: st.integers(-30, 30),
        DataType.DATE: st.integers(10_000, 10_040),  # days since epoch
        DataType.FLOAT64: st.floats(-5, 5, allow_nan=False) | st.just(float("nan")),
        DataType.BOOL: st.booleans(),
    }[dtype]
    return st.lists(st.one_of(st.none(), *[values] * 5), max_size=100).map(
        lambda items: ColumnVector.from_pylist(dtype, items)
    )


class TestSamePatchSetAsPerRowLoop:
    @pytest.mark.parametrize(
        "dtype", [DataType.INT64, DataType.DATE, DataType.FLOAT64, DataType.BOOL]
    )
    @given(data=st.data(), ascending=st.booleans(), strict=st.booleans())
    @settings(max_examples=100)
    def test_every_orderable_numeric_type_with_nulls(
        self, dtype, data, ascending, strict
    ):
        column = data.draw(column_of(dtype))
        patches = discover_nsc_patches(column, ascending=ascending, strict=strict)
        assert patches.dtype == np.int64
        assert patches.tolist() == reference_nsc_patches(column, ascending, strict)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_one_percent_exceptions_with_nulls(self, ascending):
        values = near_sorted(20_000, 0.01, seed=7)
        validity = np.random.default_rng(8).random(20_000) > 0.005
        column = ColumnVector(DataType.INT64, values, validity)
        patches = discover_nsc_patches(column, ascending=ascending)
        assert patches.tolist() == reference_nsc_patches(column, ascending)

    @pytest.mark.parametrize("scope", ["partition", "global"])
    def test_four_partitions(self, scope):
        values = near_sorted(4_000, 0.02, seed=9)
        table = Table.from_pydict(
            "t",
            Schema([Field("c", DataType.INT64)]),
            {"c": values.tolist()},
            partition_count=4,
        )
        result = discover_table_nsc(table, "c", scope=scope)
        if scope == "partition":
            expected = [
                reference_nsc_patches(partition.column("c"))
                for partition in table.partitions
            ]
            assert [p.tolist() for p in result.per_partition_rowids] == expected
            assert result.runs >= 4
        else:
            assert result.global_rowids().tolist() == reference_nsc_patches(
                table.read_column("c")
            )

    def test_int64_min_descending_keeps_a_descending_set(self):
        # -INT64_MIN wraps to itself: negating to reduce descending to
        # ascending used to keep INT64_MIN, 3, 1 as a "descending" set.
        lowest = np.iinfo(np.int64).min
        column = col([5, lowest, 3, 1])
        patches = discover_nsc_patches(column, ascending=False)
        assert check_nsc(column, patches, ascending=False)
        assert patches.tolist() == [1]

    def test_sorted_desc_index_over_int64_min_orders_like_a_plain_sort(self):
        from repro import Database
        from repro.plan.optimizer import OptimizerOptions

        lowest = np.iinfo(np.int64).min
        db = Database()
        db.create_table_from_pydict(
            "t",
            Schema([Field("s", DataType.INT64)]),
            {"s": [9, 5, lowest, 3, 1, 0, -1, lowest, -7]},
        )
        db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED DESC")
        query = "SELECT s FROM t ORDER BY s DESC"
        rewritten = OptimizerOptions(always_rewrite=True)
        assert "PatchSelect" in db.explain(query, optimizer_options=rewritten)
        plain = db.sql(
            query, optimizer_options=OptimizerOptions(use_patch_indexes=False)
        )
        assert (
            db.sql(query, optimizer_options=rewritten).column("s").to_pylist()
            == plain.column("s").to_pylist()
            == [9, 5, 3, 1, 0, -1, -7, lowest, lowest]
        )


class TestDiscoveryEffort:
    """A near-sorted column costs a step per run, and a column that is not
    leaves a trace saying so."""

    def test_steps_follow_runs_not_rows(self):
        # Deterministic stand-in for a timing test: count the binary
        # searches (every patience step, scalar or batched, makes exactly
        # one), whichever spelling of searchsorted the kernel uses.
        values = near_sorted(50_000, 0.01, seed=3)
        runs = 1 + int(np.count_nonzero(values[1:] < values[:-1]))
        column = ColumnVector(DataType.INT64, values)
        searches = 0

        def count_searches(frame, event, arg):
            nonlocal searches
            if event == "c_call" and getattr(arg, "__name__", "") == "searchsorted":
                searches += 1

        sys.setprofile(count_searches)
        try:
            patches = discover_nsc_patches(column)
        finally:
            sys.setprofile(None)
        assert len(patches) <= 500
        assert 0 < searches <= 4 * runs < 50_000 // 8

    def test_result_reports_runs_and_scalar_steps(self):
        table = Table.from_pydict(
            "t",
            Schema([Field("c", DataType.INT64)]),
            {"c": list(range(100)) + [3] + list(range(100, 200))},
        )
        result = discover_table_nsc(table, "c")
        assert (result.runs, result.scalar_steps) == (2, 0)
        shuffled = Table.from_pydict(
            "u", Schema([Field("c", DataType.INT64)]), {"c": list(range(200, 0, -1))}
        )
        result = discover_table_nsc(shuffled, "c")
        assert (result.runs, result.scalar_steps) == (200, 200)
        nuc = discover_table_nuc(table, "c")
        assert (nuc.runs, nuc.scalar_steps) == (0, 0)

    def test_database_publishes_nsc_effort(self):
        from repro import Database

        def effort(db):
            return tuple(
                db.metrics().counter(f"core.discovery.nsc.{name}").value
                for name in ("rows", "runs", "scalar_steps")
            )

        db = Database()
        db.create_table_from_pydict(
            "t",
            Schema([Field("k", DataType.INT64), Field("s", DataType.INT64)]),
            {"k": list(range(300)), "s": list(range(300, 0, -1))},
        )
        db.sql("CREATE PATCHINDEX pk ON t(k) TYPE UNIQUE")
        assert effort(db) == (0, 0, 0)
        db.sql("CREATE PATCHINDEX pk_sorted ON t(k) TYPE SORTED")
        assert effort(db) == (300, 1, 0)
        # Not nearly sorted: every row took the slow path, and it shows.
        db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED")
        assert effort(db) == (600, 301, 300)
        db.catalog.index("pk_sorted").rebuild()
        assert effort(db) == (900, 302, 300)
