"""Tests for the TopN operator and its Limit∘Sort fusion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import PlanError
from repro.exec.operators import TableScan, TopN
from repro.exec.operators.sort import SortKey
from repro.exec.result import collect
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType
from tests.test_operators_sort import (
    BIG,
    SHUFFLED_BIG,
    bigint_db,
    comparable,
    keyed_tables,
    reference_tags,
)


def make_table(values, partition_count=2):
    return Table.from_pydict(
        "t",
        Schema([Field("v", DataType.INT64), Field("w", DataType.STRING)]),
        {"v": values, "w": [str(i) for i in range(len(values))]},
        partition_count=partition_count,
    )


class TestTopN:
    def test_ascending(self):
        table = make_table([5, 1, 9, 3, 7])
        result = collect(TopN(TableScan(table), [SortKey("v")], 3))
        assert result.column("v").to_pylist() == [1, 3, 5]

    def test_descending(self):
        table = make_table([5, 1, 9, 3, 7])
        result = collect(
            TopN(TableScan(table), [SortKey("v", ascending=False)], 2)
        )
        assert result.column("v").to_pylist() == [9, 7]

    def test_offset(self):
        table = make_table([5, 1, 9, 3, 7])
        result = collect(TopN(TableScan(table), [SortKey("v")], 2, offset=2))
        assert result.column("v").to_pylist() == [5, 7]

    def test_limit_exceeds_rows(self):
        table = make_table([2, 1])
        result = collect(TopN(TableScan(table), [SortKey("v")], 100))
        assert result.column("v").to_pylist() == [1, 2]

    def test_limit_zero(self):
        table = make_table([1, 2])
        result = collect(TopN(TableScan(table), [SortKey("v")], 0))
        assert result.row_count == 0

    def test_nulls_last_ascending(self):
        table = make_table([3, None, 1, None, 2])
        result = collect(TopN(TableScan(table), [SortKey("v")], 4))
        assert result.column("v").to_pylist() == [1, 2, 3, None]

    def test_nulls_first_descending(self):
        table = make_table([3, None, 1])
        result = collect(
            TopN(TableScan(table), [SortKey("v", ascending=False)], 2)
        )
        assert result.column("v").to_pylist() == [None, 3]

    def test_string_key_fallback(self):
        table = make_table([1, 2, 3])
        result = collect(TopN(TableScan(table), [SortKey("w", False)], 2))
        assert result.column("w").to_pylist() == ["2", "1"]

    def test_multi_key_fallback(self):
        table = make_table([1, 1, 2])
        result = collect(
            TopN(TableScan(table), [SortKey("v"), SortKey("w", False)], 2)
        )
        assert result.to_pylist() == [(1, "1"), (1, "0")]

    def test_validation(self):
        table = make_table([1])
        with pytest.raises(PlanError):
            TopN(TableScan(table), [], 1)
        with pytest.raises(PlanError):
            TopN(TableScan(table), [SortKey("v")], -1)

    @given(
        st.lists(st.one_of(st.none(), st.integers(-50, 50)), max_size=60),
        st.integers(0, 20),
        st.integers(0, 10),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_slice(self, values, limit, offset, ascending):
        table = make_table(values, partition_count=1)
        result = collect(
            TopN(TableScan(table), [SortKey("v", ascending)], limit, offset)
        )
        non_null = sorted(
            (v for v in values if v is not None), reverse=not ascending
        )
        nulls = [None] * values.count(None)
        reference = (
            non_null + nulls if ascending else nulls + non_null
        )[offset : offset + limit]
        assert result.column("v").to_pylist() == reference


class TestFusion:
    def test_planner_fuses_limit_over_sort(self):
        db = Database()
        db.sql("CREATE TABLE t (v BIGINT)")
        db.sql("INSERT INTO t VALUES (3), (1), (2)")
        plan = db.explain("SELECT v FROM t ORDER BY v LIMIT 2")
        assert "TopN" in plan
        result = db.sql("SELECT v FROM t ORDER BY v LIMIT 2")
        assert result.column("v").to_pylist() == [1, 2]

    def test_fusion_respects_patch_rewrite(self):
        # When the sort rewrite fires, the MergeUnion sits between Limit
        # and Sort: no fusion, but results still correct.
        db = Database()
        db.sql("CREATE TABLE t (v BIGINT)")
        rows = ", ".join(f"({i})" for i in range(300))
        db.sql(f"INSERT INTO t VALUES {rows}")
        db.sql("INSERT INTO t VALUES (5)")
        db.sql("CREATE PATCHINDEX pi ON t(v) TYPE SORTED")
        plan = db.explain("SELECT v FROM t ORDER BY v LIMIT 3")
        assert "MergeUnion" in plan
        result = db.sql("SELECT v FROM t ORDER BY v LIMIT 3")
        assert result.column("v").to_pylist() == [0, 1, 2]


class TestExactKeys:
    """TopN picks and orders its rows by the values as stored."""

    def run(self, query):
        db = bigint_db(SHUFFLED_BIG)
        assert "TopN" in db.explain(query)
        return db.sql(query).column("v").to_pylist()

    def test_ascending_past_2_53(self):
        assert self.run("SELECT v FROM t ORDER BY v LIMIT 5") == sorted(
            SHUFFLED_BIG
        )[:5]

    def test_descending_past_2_53(self):
        assert self.run("SELECT v FROM t ORDER BY v DESC LIMIT 3") == [
            BIG + 3,
            BIG + 2,
            BIG + 1,
        ]

    @given(keyed_tables(), st.integers(1, 45), st.integers(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_key_values_equal_sort_then_limit(self, drawn, limit, offset):
        table, data, keys = drawn
        got = collect(TopN(TableScan(table), keys, limit, offset))
        expected = reference_tags(data, keys)[offset : offset + limit]
        for key in keys:
            column = data[key.column]
            values = got.column(key.column).to_pylist() if expected else []
            assert comparable(values) == comparable(
                [column[row] for row in expected]
            )
