"""Direct tests for the Partition storage unit."""

import numpy as np
import pytest

from repro.errors import SchemaError, StorageError
from repro.exec.operators.scan import may_contain
from repro.storage.blocks import compute_block_stats, stack_sketches
from repro.storage.column import ColumnVector
from repro.storage.partition import Partition
from repro.storage.schema import Field, Schema
from repro.types import DataType


def make_partition(values, base_rowid=0, block_size=4):
    schema = Schema([Field("x", DataType.INT64)])
    return Partition(
        0,
        schema,
        {"x": ColumnVector.from_pylist(DataType.INT64, values)},
        base_rowid=base_rowid,
        block_size=block_size,
    )


class TestConstruction:
    def test_basic(self):
        partition = make_partition([1, 2, 3], base_rowid=10)
        assert partition.row_count == 3
        assert partition.rowid_range == (10, 13)
        assert partition.rowids().tolist() == [10, 11, 12]

    def test_missing_column(self):
        schema = Schema([Field("x", DataType.INT64)])
        with pytest.raises(SchemaError):
            Partition(0, schema, {}, base_rowid=0)

    def test_type_mismatch(self):
        schema = Schema([Field("x", DataType.INT64)])
        with pytest.raises(SchemaError):
            Partition(
                0,
                schema,
                {"x": ColumnVector.from_pylist(DataType.STRING, ["a"])},
                base_rowid=0,
            )

    def test_unknown_column_lookup(self):
        partition = make_partition([1])
        with pytest.raises(SchemaError):
            partition.column("nope")


class TestBlockStats:
    def test_cached_and_invalidated_on_append(self):
        partition = make_partition([1, 2, 3, 4, 100, 200])
        first = partition.block_stats("x")
        assert first is partition.block_stats("x")  # cached
        assert first[0].maximum == 4
        partition.append({"x": ColumnVector.from_pylist(DataType.INT64, [7])})
        second = partition.block_stats("x")
        assert second is not first

    def test_an_append_recomputes_only_the_blocks_it_touches(self, monkeypatch):
        """A 100-row append to a 13-block partition (the last block
        partial) recomputes at most two blocks' sketches; the full blocks
        before it keep theirs, and the result equals a fresh computation."""
        from repro.storage import partition as partition_module

        partition = make_partition(list(range(50_000)), block_size=4096)
        before = partition.block_stats("x")
        assert len(before) == 13
        twin = partition.copy()  # a snapshot shares the cached lists
        computed = []
        real = partition_module.block_stats

        def counted(*args):
            computed.append(args[1:])
            return real(*args)

        monkeypatch.setattr(partition_module, "block_stats", counted)
        tail = ColumnVector.from_pylist(DataType.INT64, list(range(-100, 0)))
        partition.append({"x": tail})
        after = partition.block_stats("x")
        assert len(computed) <= 2, computed
        assert after[:12] == before[:12]
        assert after == compute_block_stats(partition.column("x"), 4096)
        assert after[-1].minimum == -100
        # The snapshot's sketches are untouched.
        assert twin.block_stats("x") is before and len(before) == 13
        assert before[-1].minimum == 49_152

    def test_block_stats_prune_at_the_base_rowid(self):
        partition = make_partition(list(range(16)), base_rowid=100, block_size=4)
        sketch = stack_sketches(
            ((partition.block_stats("x"), partition.base_rowid),),
            np.dtype(np.int64),
        )
        assert sketch.ranges(may_contain(sketch, ">=", 12)) == [(112, 116)]
        assert sketch.ranges(may_contain(sketch, "<", 4)) == [(100, 104)]
        assert sketch.ranges(may_contain(sketch, ">", 100)) == []


class TestMutation:
    def test_append_length_mismatch(self):
        schema = Schema(
            [Field("x", DataType.INT64), Field("y", DataType.INT64)]
        )
        partition = Partition(
            0,
            schema,
            {
                "x": ColumnVector.from_pylist(DataType.INT64, [1]),
                "y": ColumnVector.from_pylist(DataType.INT64, [2]),
            },
            base_rowid=0,
        )
        with pytest.raises(StorageError):
            partition.append(
                {
                    "x": ColumnVector.from_pylist(DataType.INT64, [1]),
                    "y": ColumnVector.from_pylist(DataType.INT64, [1, 2]),
                }
            )

    def test_append_empty_noop(self):
        partition = make_partition([1])
        partition.append({"x": ColumnVector.empty(DataType.INT64)})
        assert partition.row_count == 1

    def test_appends_keep_nulls_and_every_earlier_vector(self):
        """Tails with and without NULLs, into spare room and across
        reallocations: the column reads every row with its NULLs, its
        mask is None exactly while all rows are valid, and each vector
        handed out earlier still reads its own rows."""
        partition = make_partition([])
        expected: list = []
        earlier = []
        tails = [[1, 2], [3], [None, 4], [5] * 9, [6, None], [7] * 40, [8]]
        for tail in tails:
            partition.append({"x": ColumnVector.from_pylist(DataType.INT64, tail)})
            expected += tail
            vector = partition.column("x")
            assert vector.to_pylist() == expected
            assert (vector.validity is None) == (None not in expected)
            earlier.append((vector, list(expected)))
        for vector, rows in earlier:
            assert vector.to_pylist() == rows

    def test_replace_rows(self):
        partition = make_partition([1, 2, 3, 4])
        partition.replace_rows(np.array([True, False, True, False]))
        assert partition.column("x").to_pylist() == [1, 3]
        assert partition.row_count == 2

    def test_replace_rows_bad_mask(self):
        partition = make_partition([1, 2])
        with pytest.raises(StorageError):
            partition.replace_rows(np.array([True]))
