"""Unit and property tests for Sort and MergeUnion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import PlanError
from repro.exec.operators.merge_union import MergeUnion, merge_permutation
from repro.exec.operators.scan import TableScan
from repro.exec.operators.sort import Sort, SortKey
from repro.exec.parallel import ParallelSort, morsels_for_table
from repro.exec.result import collect
from repro.plan.optimizer import OptimizerOptions
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def int_table(values, name="t", partition_count=1):
    return Table.from_pydict(
        name,
        Schema([Field("v", DataType.INT64), Field("tag", DataType.INT64)]),
        {"v": values, "tag": list(range(len(values)))},
        partition_count=partition_count,
    )


class TestSort:
    def test_ascending_with_nulls_last(self):
        table = int_table([3, None, 1, 2])
        result = collect(Sort(TableScan(table), [SortKey("v")]))
        assert result.column("v").to_pylist() == [1, 2, 3, None]

    def test_descending_nulls_first(self):
        table = int_table([3, None, 1, 2])
        result = collect(Sort(TableScan(table), [SortKey("v", ascending=False)]))
        assert result.column("v").to_pylist() == [None, 3, 2, 1]

    def test_stability_on_ties(self):
        table = int_table([2, 1, 2, 1])
        result = collect(Sort(TableScan(table), [SortKey("v")]))
        # Equal keys keep input order (tags 1, 3 then 0, 2).
        assert result.column("tag").to_pylist() == [1, 3, 0, 2]

    def test_descending_stability(self):
        table = int_table([2, 1, 2, 1])
        result = collect(
            Sort(TableScan(table), [SortKey("v", ascending=False)])
        )
        assert result.column("tag").to_pylist() == [0, 2, 1, 3]

    def test_multi_key(self):
        table = Table.from_pydict(
            "t",
            Schema([Field("a", DataType.INT64), Field("b", DataType.INT64)]),
            {"a": [1, 2, 1, 2], "b": [9, 8, 7, 6]},
        )
        result = collect(
            Sort(TableScan(table), [SortKey("a"), SortKey("b", ascending=False)])
        )
        assert result.to_pylist() == [(1, 9), (1, 7), (2, 8), (2, 6)]

    def test_strings(self):
        table = Table.from_pydict(
            "t",
            Schema([Field("s", DataType.STRING)]),
            {"s": ["b", None, "a"]},
        )
        result = collect(Sort(TableScan(table), [SortKey("s")]))
        assert result.column("s").to_pylist() == ["a", "b", None]

    def test_empty(self):
        table = int_table([])
        result = collect(Sort(TableScan(table), [SortKey("v")]))
        assert result.row_count == 0

    @given(st.lists(st.one_of(st.none(), st.integers(-100, 100)), max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_sorted(self, values):
        table = int_table(values, partition_count=1)
        result = collect(Sort(TableScan(table, batch_size=9), [SortKey("v")]))
        got = result.column("v").to_pylist()
        non_null = sorted(v for v in values if v is not None)
        nulls = [None] * values.count(None)
        assert got == non_null + nulls


class TestMergePermutation:
    def test_basic_interleave(self):
        left = np.array([1.0, 3.0, 5.0])
        right = np.array([2.0, 3.0])
        left_pos, right_pos = merge_permutation(left, right)
        merged = np.empty(5)
        merged[left_pos] = left
        merged[right_pos] = right
        assert merged.tolist() == [1.0, 2.0, 3.0, 3.0, 5.0]

    def test_left_wins_ties(self):
        left = np.array([2.0])
        right = np.array([2.0])
        left_pos, right_pos = merge_permutation(left, right)
        assert left_pos.tolist() == [0]
        assert right_pos.tolist() == [1]

    def test_empty_sides(self):
        left_pos, right_pos = merge_permutation(np.array([]), np.array([1.0]))
        assert left_pos.tolist() == []
        assert right_pos.tolist() == [0]


class TestMergeUnion:
    def run_merge(self, left_values, right_values, ascending=True):
        left = int_table(left_values, name="l")
        right = int_table(right_values, name="r")
        key = [SortKey("v", ascending)]
        return collect(
            MergeUnion(
                Sort(TableScan(left), key),
                Sort(TableScan(right), key),
                key,
            )
        ).column("v").to_pylist()

    def test_merges_sorted_streams(self):
        assert self.run_merge([1, 5, 9], [2, 5, 10]) == [1, 2, 5, 5, 9, 10]

    def test_descending(self):
        assert self.run_merge([9, 5, 1], [10, 2], ascending=False) == [
            10,
            9,
            5,
            2,
            1,
        ]

    def test_one_side_empty(self):
        assert self.run_merge([], [3, 1]) == [1, 3]
        assert self.run_merge([3, 1], []) == [1, 3]
        assert self.run_merge([], []) == []

    def test_nulls_sort_last(self):
        got = self.run_merge([1, None], [2])
        assert got == [1, 2, None]

    @given(
        st.lists(st.integers(-50, 50), max_size=60),
        st.lists(st.integers(-50, 50), max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_concat(self, left_values, right_values):
        got = self.run_merge(left_values, right_values)
        assert got == sorted(left_values + right_values)

    def test_multi_key_object_path(self):
        # No plan merges on two keys: the sort rewrite has one.
        schema = Schema([Field("s", DataType.STRING), Field("v", DataType.INT64)])
        left = Table.from_pydict("l", schema, {"s": ["a", "c"], "v": [1, 2]})
        right = Table.from_pydict("r", schema, {"s": ["b"], "v": [3]})
        keys = [SortKey("s"), SortKey("v")]
        with pytest.raises(PlanError, match="exactly one sort key"):
            MergeUnion(TableScan(left), TableScan(right), keys)


# -- exact keys: one order for Sort, TopN, ParallelSort and MergeUnion -----

BIG = 2**60
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Beyond 2**53, where float64 keys collapse neighbours into ties.
SHUFFLED_BIG = [BIG + 3, 7, BIG + 1, BIG, 5, BIG + 2]

VALUE_STRATEGIES = {
    DataType.INT64: st.one_of(
        st.integers(INT64_MIN, INT64_MAX),
        st.sampled_from(
            [INT64_MIN, INT64_MAX, 2**62, -(2**62), 2**62 + 1, BIG, BIG + 1, 0]
        ),
    ),
    DataType.FLOAT64: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    ),
    DataType.STRING: st.text(max_size=4),
    DataType.DATE: st.dates(),
    DataType.BOOL: st.booleans(),
}


@st.composite
def keyed_tables(draw, max_keys=3):
    """A table of 1-3 key columns k0.. (each its own dtype, its values
    drawn from a small pool so ties are common, NULLs included) and a
    ``tag`` column numbering the rows, with one direction per key."""
    n = draw(st.integers(0, 40))
    key_count = draw(st.integers(1, max_keys))
    fields, data, directions = [], {}, []
    for position in range(key_count):
        dtype = draw(st.sampled_from(sorted(VALUE_STRATEGIES, key=str)))
        pool = draw(st.lists(VALUE_STRATEGIES[dtype], min_size=1, max_size=5))
        values = st.sampled_from(pool + [None])
        name = f"k{position}"
        fields.append(Field(name, dtype))
        data[name] = draw(st.lists(values, min_size=n, max_size=n))
        directions.append(draw(st.booleans()))
    fields.append(Field("tag", DataType.INT64))
    data["tag"] = list(range(n))
    partitions = draw(st.integers(1, 3))
    table = Table.from_pydict(
        "t", Schema(fields), data, partition_count=partitions, block_size=4
    )
    keys = [SortKey(f"k{i}", asc) for i, asc in enumerate(directions)]
    return table, data, keys


def rule_key(value):
    """The stated order, ascending: values, then NaN, then NULL."""
    if value is None:
        return (2, 0)
    if isinstance(value, float) and value != value:
        return (1, 0)
    return (0, value)


def reference_tags(data, keys):
    """Row tags in Python ``sorted`` order under :func:`rule_key`
    (stable passes, last key first; ``reverse`` keeps ties stable)."""
    rows = list(range(len(data["tag"])))
    for key in reversed(keys):
        column = data[key.column]
        rows = sorted(
            rows, key=lambda row: rule_key(column[row]), reverse=not key.ascending
        )
    return rows


def comparable(values):
    """Key values with NaN made equal to itself."""
    return [
        "NaN" if isinstance(v, float) and v != v else v for v in values
    ]


def bigint_db(values):
    """A database whose table ``t`` holds *values* in one BIGINT ``v``."""
    db = Database()
    db.sql("CREATE TABLE t (v BIGINT)")
    rows = ", ".join("(NULL)" if v is None else f"({v})" for v in values)
    db.sql(f"INSERT INTO t VALUES {rows}")
    return db


def sorted_tags(operator):
    return collect(operator).column("tag").to_pylist()


class TestExactKeys:
    """Each ordering path compares the values as stored."""

    def test_sort_big_int64_with_a_null(self):
        values = SHUFFLED_BIG[:3] + [None] + SHUFFLED_BIG[3:]
        got = bigint_db(values).sql("SELECT v FROM t ORDER BY v")
        assert got.column("v").to_pylist() == sorted(SHUFFLED_BIG) + [None]

    def test_merge_union_descending_past_2_53(self):
        n = 20_000
        rng = np.random.default_rng(35)
        values = BIG + np.arange(n, 0, -1, dtype=np.int64)
        displaced = rng.choice(n, n // 100, replace=False)
        values[displaced] = BIG + rng.integers(0, n, len(displaced))
        db = Database()
        db.create_table("t", Schema([Field("v", DataType.INT64)]))
        db.table("t").load_columns(
            {"v": ColumnVector.from_numpy(DataType.INT64, values)}
        )
        db.sql("CREATE PATCHINDEX pv ON t(v) TYPE SORTED DESC")
        query = "SELECT v FROM t ORDER BY v DESC"
        options = OptimizerOptions(always_rewrite=True)
        assert "MergeUnion" in db.explain(query, optimizer_options=options)
        got = db.sql(query, optimizer_options=options).column("v").to_pylist()
        assert got == sorted(values.tolist(), reverse=True)

    def test_parallel_sort_descending_past_2_53(self):
        rng = np.random.default_rng(35)
        values = BIG + rng.integers(0, 1000, 400_000)
        db = Database()
        db.create_table("t", Schema([Field("v", DataType.INT64)]), 4)
        db.table("t").load_columns(
            {"v": ColumnVector.from_numpy(DataType.INT64, values)}
        )
        query = "SELECT v FROM t ORDER BY v DESC"
        assert "ParallelSort" in db.explain(query, parallelism=2)
        got = db.sql(query, parallelism=2).column("v").to_pylist()
        assert got == sorted(values.tolist(), reverse=True)

    @given(keyed_tables())
    @settings(max_examples=150, deadline=None)
    def test_sort_matches_python_sorted(self, drawn):
        table, data, keys = drawn
        got = sorted_tags(Sort(TableScan(table, batch_size=7), keys))
        assert got == reference_tags(data, keys)

    @given(keyed_tables())
    @settings(max_examples=100, deadline=None)
    def test_parallel_sort_equals_sort(self, drawn):
        table, data, keys = drawn
        morsels = morsels_for_table(table, None, morsel_size=4)
        parallel = ParallelSort(
            lambda ranges: TableScan(table, scan_ranges=ranges),
            TableScan(table),
            morsels,
            2,
            keys,
        )
        got = sorted_tags(parallel) if data["tag"] else []
        assert got == reference_tags(data, keys)

    @given(keyed_tables(max_keys=1), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_merge_union_of_sorted_halves_equals_sort(self, drawn, cut):
        table, data, keys = drawn
        cut = min(cut, table.row_count)
        halves = [
            Sort(TableScan(table, scan_ranges=ranges), keys)
            for ranges in ([(0, cut)], [(cut, table.row_count)])
        ]
        got = sorted_tags(MergeUnion(*halves, keys)) if data["tag"] else []
        assert got == reference_tags(data, keys)
