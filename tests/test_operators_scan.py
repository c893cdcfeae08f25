"""Unit tests for TableScan: batching, ranges, tid, partition boundaries."""

import pytest

from repro.errors import PlanError
from repro.exec.operators.scan import TID_COLUMN, TableScan, normalize_ranges
from repro.exec.result import collect
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(n=20, partition_count=3, block_size=4):
    return Table.from_pydict(
        "t",
        Schema([Field("x", DataType.INT64)]),
        {"x": list(range(n))},
        partition_count=partition_count,
        block_size=block_size,
    )


class TestBasicScan:
    def test_full_scan_in_order(self):
        table = make_table()
        result = collect(TableScan(table, batch_size=4))
        assert result.column("x").to_pylist() == list(range(20))

    def test_batches_never_cross_partitions(self):
        table = make_table(n=10, partition_count=3)
        scan = TableScan(table, batch_size=100)
        scan.open()
        batch_ranges = []
        while True:
            batch = scan.next_batch()
            if batch is None:
                break
            batch_ranges.append(batch.contiguous_range)
        scan.close()
        partition_ranges = [p.rowid_range for p in table.partitions]
        for batch_range in batch_ranges:
            assert any(
                p_start <= batch_range[0] and batch_range[1] <= p_stop
                for p_start, p_stop in partition_ranges
            )

    def test_rowids_are_contiguous_tuple_ids(self):
        table = make_table()
        scan = TableScan(table, batch_size=6)
        scan.open()
        seen = []
        while True:
            batch = scan.next_batch()
            if batch is None:
                break
            assert batch.contiguous_range is not None
            seen.extend(batch.rowids.tolist())
        assert seen == list(range(20))

    def test_projection(self):
        table = Table.from_pydict(
            "t",
            Schema([Field("a", DataType.INT64), Field("b", DataType.INT64)]),
            {"a": [1, 2], "b": [3, 4]},
        )
        result = collect(TableScan(table, columns=["b"]))
        assert result.column_names == ("b",)

    def test_scan_before_open_raises(self):
        scan = TableScan(make_table())
        with pytest.raises(PlanError):
            scan.next_batch()


class TestTid:
    def test_tid_column(self):
        table = make_table(n=5, partition_count=2)
        result = collect(TableScan(table, with_tid=True))
        assert result.column(TID_COLUMN).to_pylist() == [0, 1, 2, 3, 4]

    def test_tid_collision_rejected(self):
        table = Table.from_pydict(
            "t", Schema([Field("tid", DataType.INT64)]), {"tid": [1]}
        )
        with pytest.raises(PlanError):
            TableScan(table, with_tid=True)


class TestScanRanges:
    def test_ranges_restrict_rows(self):
        table = make_table()
        result = collect(TableScan(table, scan_ranges=[(2, 5), (10, 12)]))
        assert result.column("x").to_pylist() == [2, 3, 4, 10, 11]

    def test_ranges_normalized(self):
        table = make_table()
        scan = TableScan(
            table, scan_ranges=[(10, 12), (2, 5), (4, 7), (-5, 1), (18, 99)]
        )
        # sorted, merged, clipped
        assert scan.scan_ranges == [(0, 1), (2, 7), (10, 12), (18, 20)]

    def test_empty_ranges(self):
        table = make_table()
        result = collect(TableScan(table, scan_ranges=[]))
        assert result.row_count == 0

    def test_range_crossing_partition_boundary(self):
        table = make_table(n=20, partition_count=2)  # boundary at 10
        result = collect(TableScan(table, scan_ranges=[(8, 13)]))
        assert result.column("x").to_pylist() == [8, 9, 10, 11, 12]

    def test_ranges_with_tid(self):
        table = make_table()
        result = collect(
            TableScan(table, scan_ranges=[(5, 7)], with_tid=True)
        )
        assert result.column(TID_COLUMN).to_pylist() == [5, 6]


class TestRescan:
    def test_operator_is_reexecutable(self):
        table = make_table(n=6)
        scan = TableScan(table)
        first = collect(scan)
        second = collect(scan)
        assert first.column("x").to_pylist() == second.column("x").to_pylist()


class TestNormalizeRanges:
    """Edge cases of the shared range normalizer (block pruning's
    range unions go through it)."""

    def test_none_passes_through(self):
        assert normalize_ranges(None, 100) is None

    def test_overlapping_ranges_merge(self):
        assert normalize_ranges([(0, 10), (5, 15)], 100) == [(0, 15)]

    def test_adjacent_ranges_merge(self):
        assert normalize_ranges([(0, 10), (10, 20)], 100) == [(0, 20)]

    def test_contained_range_absorbed(self):
        assert normalize_ranges([(0, 20), (5, 10)], 100) == [(0, 20)]

    def test_negative_start_clipped(self):
        assert normalize_ranges([(-7, 5)], 100) == [(0, 5)]

    def test_stop_beyond_total_clipped(self):
        assert normalize_ranges([(90, 500)], 100) == [(90, 100)]

    def test_inverted_range_dropped(self):
        assert normalize_ranges([(10, 5)], 100) == []

    def test_empty_range_dropped(self):
        assert normalize_ranges([(5, 5), (7, 9)], 100) == [(7, 9)]

    def test_fully_out_of_bounds_dropped(self):
        assert normalize_ranges([(-10, -1), (100, 200)], 100) == []

    def test_unsorted_input_sorted(self):
        assert normalize_ranges([(30, 40), (0, 10)], 100) == [
            (0, 10),
            (30, 40),
        ]

    def test_disjoint_ranges_stay_separate(self):
        assert normalize_ranges([(0, 5), (7, 9)], 100) == [(0, 5), (7, 9)]


def chunks(n, size):
    """``[start, stop)`` ranges of *size* rows covering ``range(n)``."""
    return [[(start, min(n, start + size))] for start in range(0, n, size)]


class TestRangeBoundaries:
    """Adjacent scan ranges meet between rowids — never inside one, and
    never splitting a rowid between two scans' batches, also where a
    range crosses a partition boundary."""

    def test_every_rowid_scanned_exactly_once_across_ranges(self):
        table = make_table(n=50, partition_count=3, block_size=4)
        seen = []
        for ranges in chunks(50, 7):
            result = collect(TableScan(table, scan_ranges=ranges))
            seen.extend(result.column("x").to_pylist())
        assert seen == list(range(50))

    def test_batches_within_a_range_stay_contiguous(self):
        table = make_table(n=40, partition_count=2, block_size=4)
        for ranges in chunks(40, 7):
            scan = TableScan(table, scan_ranges=ranges, batch_size=4)
            scan.open()
            while True:
                batch = scan.next_batch()
                if batch is None:
                    break
                assert batch.contiguous_range is not None
                start, stop = batch.contiguous_range
                assert batch.rowids.tolist() == list(range(start, stop))
            scan.close()
