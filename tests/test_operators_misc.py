"""Unit tests for Filter, Project, Limit, UnionAll, RecordBatch."""

import numpy as np
import pytest

from repro.errors import ExecutionError, PlanError, SchemaError
from repro.exec.batch import RecordBatch
from repro.exec.expressions import Arithmetic, ColumnRef, Comparison, Literal
from repro.exec.operators.filter import Filter
from repro.exec.operators.limit import Limit
from repro.exec.operators.project import Project
from repro.exec.operators.scan import TableScan
from repro.exec.operators.union import UnionAll
from repro.exec.result import collect
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(values, partition_count=2):
    return Table.from_pydict(
        "t",
        Schema([Field("v", DataType.INT64)]),
        {"v": values},
        partition_count=partition_count,
    )


class TestRecordBatch:
    def test_contiguous_range(self):
        schema = Schema([Field("v", DataType.INT64)])
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2, 3])
        batch = RecordBatch(schema, {"v": vector}, np.array([5, 6, 7]))
        assert batch.contiguous_range == (5, 8)
        gapped = RecordBatch(schema, {"v": vector}, np.array([5, 6, 9]))
        assert gapped.contiguous_range is None
        no_rowids = RecordBatch(schema, {"v": vector})
        assert no_rowids.contiguous_range is None

    def test_window_builds_rowids_only_when_read(self):
        schema = Schema([Field("v", DataType.INT64)])
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2, 3, 4])
        batch = RecordBatch(schema, {"v": vector}, window=(10, 14))
        assert batch.contiguous_range == (10, 14)
        assert batch._rowids is None
        kept = batch.filter(np.array([True, False, True, True]))
        again = kept.filter(np.array([False, True, True]))
        assert kept._rowids is None and again._rowids is None
        assert kept.project(["v"])._rowids is None
        assert kept.contiguous_range is None
        assert kept.rowids.tolist() == [10, 12, 13]
        assert again.contiguous_range == (12, 14)
        assert again.rowids.tolist() == [12, 13]
        assert batch.rowids.tolist() == [10, 11, 12, 13]
        assert batch.take(np.array([3, 0])).rowids.tolist() == [13, 10]

    def test_concat_drops_rowids(self):
        schema = Schema([Field("v", DataType.INT64)])
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2])
        windowed = RecordBatch(schema, {"v": vector}, window=(4, 6))
        merged = RecordBatch.concat([windowed, windowed])
        assert merged.rowids is None and merged.contiguous_range is None
        assert merged.column("v").to_pylist() == [1, 2, 1, 2]

    def test_window_length_must_match(self):
        schema = Schema([Field("v", DataType.INT64)])
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2])
        with pytest.raises(ExecutionError):
            RecordBatch(schema, {"v": vector}, window=(0, 3))
        with pytest.raises(ExecutionError):
            RecordBatch(
                schema, {"v": vector}, window=(0, 3), keep=np.array([True] * 3)
            )

    def test_length_mismatch_rejected(self):
        schema = Schema([Field("v", DataType.INT64)])
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2])
        with pytest.raises(ExecutionError):
            RecordBatch(schema, {"v": vector}, np.array([1]))

    def test_missing_column_rejected(self):
        schema = Schema([Field("v", DataType.INT64)])
        with pytest.raises(SchemaError):
            RecordBatch(schema, {})

    def test_concat_drops_rowids_when_partial(self):
        schema = Schema([Field("v", DataType.INT64)])
        with_ids = RecordBatch(
            schema,
            {"v": ColumnVector.from_pylist(DataType.INT64, [1])},
            np.array([0]),
        )
        without = RecordBatch(
            schema, {"v": ColumnVector.from_pylist(DataType.INT64, [2])}
        )
        merged = RecordBatch.concat([with_ids, without])
        assert merged.rowids is None
        assert merged.column("v").to_pylist() == [1, 2]

    def test_project(self):
        schema = Schema([Field("a", DataType.INT64), Field("b", DataType.INT64)])
        batch = RecordBatch(
            schema,
            {
                "a": ColumnVector.from_pylist(DataType.INT64, [1]),
                "b": ColumnVector.from_pylist(DataType.INT64, [2]),
            },
        )
        assert batch.project(["b"]).schema.names == ("b",)


class TestFilter:
    def test_basic(self):
        table = make_table([1, 2, 3, 4, 5])
        result = collect(
            Filter(TableScan(table), Comparison(">=", ColumnRef("v"), Literal(3)))
        )
        assert result.column("v").to_pylist() == [3, 4, 5]

    def test_null_predicate_drops_row(self):
        table = make_table([1, None, 3])
        result = collect(
            Filter(TableScan(table), Comparison(">", ColumnRef("v"), Literal(0)))
        )
        assert result.column("v").to_pylist() == [1, 3]

    def test_rowids_propagate(self):
        # One partition, one batch: the filter keeps part of it, so the
        # rowids go through RecordBatch.filter.
        table = make_table([1, 2, 3, 4, 0, 5], partition_count=1)
        operator = Filter(
            TableScan(table), Comparison(">", ColumnRef("v"), Literal(2))
        )
        operator.open()
        rowids = []
        values = []
        while True:
            batch = operator.next_batch()
            if batch is None:
                break
            rowids.extend(batch.rowids.tolist())
            values.extend(batch.column("v").to_pylist())
        assert rowids == [2, 3, 5]
        assert values == [3, 4, 5]


class TestProject:
    def test_rename_and_compute(self):
        table = make_table([1, 2])
        result = collect(
            Project(
                TableScan(table),
                [
                    ("x", ColumnRef("v")),
                    ("double", Arithmetic("*", ColumnRef("v"), Literal(2))),
                ],
            )
        )
        assert result.column_names == ("x", "double")
        assert result.column("double").to_pylist() == [2, 4]

    def test_empty_outputs_rejected(self):
        with pytest.raises(PlanError):
            Project(TableScan(make_table([1])), [])


class TestLimit:
    def test_limit(self):
        table = make_table(list(range(10)))
        result = collect(Limit(TableScan(table, batch_size=3), 4))
        assert result.column("v").to_pylist() == [0, 1, 2, 3]

    def test_offset(self):
        table = make_table(list(range(10)))
        result = collect(Limit(TableScan(table, batch_size=3), 4, offset=7))
        assert result.column("v").to_pylist() == [7, 8, 9]

    def test_limit_zero(self):
        table = make_table([1, 2])
        result = collect(Limit(TableScan(table), 0))
        assert result.row_count == 0

    def test_negative_rejected(self):
        with pytest.raises(PlanError):
            Limit(TableScan(make_table([1])), -1)


class TestUnionAll:
    def test_concatenates_in_order(self):
        first = make_table([1, 2])
        second = make_table([3])
        result = collect(UnionAll([TableScan(first), TableScan(second)]))
        assert result.column("v").to_pylist() == [1, 2, 3]

    def test_renames_later_children(self):
        first = make_table([1])
        other = Table.from_pydict(
            "o", Schema([Field("w", DataType.INT64)]), {"w": [2]}
        )
        result = collect(UnionAll([TableScan(first), TableScan(other)]))
        assert result.column_names == ("v",)
        assert result.column("v").to_pylist() == [1, 2]

    def test_type_mismatch_rejected(self):
        first = make_table([1])
        other = Table.from_pydict(
            "o", Schema([Field("s", DataType.STRING)]), {"s": ["x"]}
        )
        with pytest.raises(PlanError):
            UnionAll([TableScan(first), TableScan(other)])

    def test_empty_inputs_rejected(self):
        with pytest.raises(PlanError):
            UnionAll([])
