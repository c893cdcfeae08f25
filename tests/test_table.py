"""Unit tests for partitioned tables: loading, rowids, mutations, events."""

import pytest

from repro.errors import SchemaError, StorageError, TypeMismatchError
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def two_col_schema() -> Schema:
    return Schema([Field("x", DataType.INT64), Field("y", DataType.STRING)])


class TestLoading:
    def test_range_split_across_partitions(self):
        table = Table.from_pydict(
            "t",
            two_col_schema(),
            {"x": list(range(10)), "y": [str(i) for i in range(10)]},
            partition_count=3,
        )
        assert table.row_count == 10
        sizes = [p.row_count for p in table.partitions]
        assert sum(sizes) == 10
        # Range split keeps order: reading back is the original order.
        assert table.read_column("x").to_pylist() == list(range(10))

    def test_rowids_dense_and_contiguous(self):
        table = Table.from_pydict(
            "t",
            two_col_schema(),
            {"x": list(range(7)), "y": ["a"] * 7},
            partition_count=2,
        )
        seen = []
        for partition in table.partitions:
            start, stop = partition.rowid_range
            seen.extend(range(start, stop))
        assert seen == list(range(7))

    def test_missing_column_raises(self):
        table = Table("t", two_col_schema())
        with pytest.raises(SchemaError):
            table.load_columns(
                {"x": ColumnVector.from_pylist(DataType.INT64, [1])}
            )

    def test_length_mismatch_raises(self):
        table = Table("t", two_col_schema())
        with pytest.raises(StorageError):
            table.load_columns(
                {
                    "x": ColumnVector.from_pylist(DataType.INT64, [1]),
                    "y": ColumnVector.from_pylist(DataType.STRING, ["a", "b"]),
                }
            )

    def test_zero_partitions_rejected(self):
        with pytest.raises(StorageError):
            Table("t", two_col_schema(), partition_count=0)


class TestInsert:
    def test_insert_appends_to_last_partition(self):
        table = Table.from_pydict(
            "t",
            two_col_schema(),
            {"x": [1, 2], "y": ["a", "b"]},
            partition_count=2,
        )
        inserted = table.insert_rows([[3, "c"], [None, "d"]])
        assert inserted == 2
        assert table.row_count == 4
        assert table.read_column("x").to_pylist() == [1, 2, 3, None]

    def test_insert_row_width_checked(self):
        table = Table("t", two_col_schema())
        with pytest.raises(SchemaError):
            table.insert_rows([[1]])

    def test_insert_emits_event(self):
        table = Table.from_pydict(
            "t", two_col_schema(), {"x": [1], "y": ["a"]}
        )
        events = []
        table.add_listener(lambda event, payload: events.append((event, payload)))
        table.insert_rows([[2, "b"]])
        assert len(events) == 1
        event, payload = events[0]
        assert event == "append"
        assert payload["start_rowid"] == 1
        assert payload["row_count"] == 1


class TestDelete:
    def test_delete_renumbers(self):
        table = Table.from_pydict(
            "t",
            two_col_schema(),
            {"x": list(range(6)), "y": ["a"] * 6},
            partition_count=2,
        )
        removed = table.delete_rowids([1, 4])
        assert removed == 2
        assert table.row_count == 4
        assert table.read_column("x").to_pylist() == [0, 2, 3, 5]
        # Rowids are dense again.
        stops = [p.rowid_range for p in table.partitions]
        assert stops[-1][1] == 4

    def test_delete_out_of_range(self):
        table = Table.from_pydict("t", two_col_schema(), {"x": [1], "y": ["a"]})
        with pytest.raises(StorageError):
            table.delete_rowids([5])

    def test_delete_event_carries_partition_breakdown(self):
        table = Table.from_pydict(
            "t",
            two_col_schema(),
            {"x": list(range(6)), "y": ["a"] * 6},
            partition_count=2,
        )
        events = []
        table.add_listener(lambda event, payload: events.append((event, payload)))
        table.delete_rowids([0, 4])
        ((event, payload),) = events
        assert event == "delete"
        breakdown = dict(payload["per_partition"])
        assert breakdown[0].tolist() == [0]
        assert breakdown[1].tolist() == [1]  # rowid 4 is local 1 in partition 1

    def test_delete_nothing(self):
        table = Table.from_pydict("t", two_col_schema(), {"x": [1], "y": ["a"]})
        assert table.delete_rowids([]) == 0


class TestUpdate:
    def test_update_value(self):
        table = Table.from_pydict(
            "t", two_col_schema(), {"x": [1, 2], "y": ["a", "b"]}
        )
        table.update_rowid(1, "x", 99)
        assert table.read_column("x").to_pylist() == [1, 99]

    def test_update_to_null(self):
        table = Table.from_pydict(
            "t", two_col_schema(), {"x": [1, 2], "y": ["a", "b"]}
        )
        table.update_rowid(0, "x", None)
        assert table.read_column("x").to_pylist() == [None, 2]

    def test_update_out_of_range_is_a_type_mismatch(self):
        table = Table.from_pydict(
            "t", two_col_schema(), {"x": [1, 2], "y": ["a", "b"]}
        )
        with pytest.raises(TypeMismatchError, match="out of range for INT64"):
            table.update_rowid(1, "x", 2**63)
        assert table.read_column("x").to_pylist() == [1, 2]

    def test_update_event_has_old_value(self):
        table = Table.from_pydict(
            "t", two_col_schema(), {"x": [1, 2], "y": ["a", "b"]}
        )
        events = []
        table.add_listener(lambda event, payload: events.append((event, payload)))
        table.update_rowid(1, "x", 5)
        ((event, payload),) = events
        assert event == "update"
        assert payload["old_value"] == 2
        assert payload["value"] == 5


class TestListeners:
    def test_remove_listener(self):
        table = Table.from_pydict("t", two_col_schema(), {"x": [1], "y": ["a"]})
        events = []
        listener = lambda event, payload: events.append(event)  # noqa: E731
        table.add_listener(listener)
        table.remove_listener(listener)
        table.insert_rows([[2, "b"]])
        assert events == []


class TestPartitionOfRowid:
    def test_lookup(self):
        table = Table.from_pydict(
            "t",
            two_col_schema(),
            {"x": list(range(6)), "y": ["a"] * 6},
            partition_count=2,
        )
        assert table.partition_of_rowid(0).partition_id == 0
        assert table.partition_of_rowid(5).partition_id == 1
        with pytest.raises(StorageError):
            table.partition_of_rowid(6)
