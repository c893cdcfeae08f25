"""Unit tests for the PatchIndex structure."""

import pytest

from repro.core.discovery import discover_table_nuc
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.errors import SchemaError, ThresholdExceededError
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(values, partition_count=2, name="t"):
    return Table.from_pydict(
        name,
        Schema([Field("c", DataType.INT64), Field("d", DataType.INT64)]),
        {"c": values, "d": list(range(len(values)))},
        partition_count=partition_count,
    )


class TestCreation:
    def test_create_unique(self):
        table = make_table([1, 3, 4, 3, 2, 6, 7, 6])
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.kind == "unique"
        assert index.patch_count == 4
        assert index.exception_rate == 0.5
        assert index.rowids().tolist() == [1, 3, 5, 7]

    def test_create_sorted_global_scope(self):
        table = make_table([1, 3, 4, 3, 2, 6, 7, 6])
        index = PatchIndex.create("pi", table, "c", "sorted")
        # Global LIS keeps 5 of 8 values sorted: 3 patches.
        assert index.scope == "global"
        assert index.patch_count == 3

    def test_create_sorted_partition_scope(self):
        table = make_table([1, 3, 4, 3, 2, 6, 7, 6])
        index = PatchIndex.create("pi", table, "c", "sorted", scope="partition")
        # Per-partition LIS: [1,3,4,3] needs 1 patch, [2,6,7,6] needs 1.
        assert index.patch_count == 2

    def test_unknown_column(self):
        table = make_table([1])
        with pytest.raises(SchemaError):
            PatchIndex.create("pi", table, "nope", "unique")

    def test_threshold_exceeded(self):
        table = make_table([1, 1, 1, 1])
        with pytest.raises(ThresholdExceededError) as info:
            PatchIndex.create("pi", table, "c", "unique", threshold=0.5)
        assert info.value.rate == 1.0

    def test_creation_time_recorded(self):
        table = make_table(list(range(100)))
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.creation_seconds > 0

    def test_from_discovery(self):
        table = make_table([1, 1, 2, 3])
        result = discover_table_nuc(table, "c")
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.patch_count == result.patch_count == 2
        assert index.rowids().tolist() == result.global_rowids().tolist()


class TestModeSelection:
    def test_auto_picks_identifier_below_crossover(self):
        values = list(range(1000))
        values[0] = 1  # one duplicate pair -> rate 0.2%
        table = make_table(values, partition_count=1)
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.design == "identifier"

    def test_auto_picks_bitmap_above_crossover(self):
        values = [i // 2 for i in range(1000)]  # everything duplicated
        table = make_table(values, partition_count=1)
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.design == "bitmap"

    def test_explicit_modes(self):
        table = make_table([1, 1, 2, 3])
        ident = PatchIndex.create(
            "a", table, "c", "unique", mode=PatchIndexMode.IDENTIFIER
        )
        bitmap = PatchIndex.create(
            "b", table, "c", "unique", mode=PatchIndexMode.BITMAP
        )
        assert ident.design == "identifier"
        assert bitmap.design == "bitmap"

    def test_resolve(self):
        assert PatchIndexMode.AUTO.resolve(0.01) == "identifier"
        assert PatchIndexMode.AUTO.resolve(0.02) == "bitmap"
        assert PatchIndexMode.IDENTIFIER.resolve(0.99) == "identifier"
        assert PatchIndexMode.BITMAP.resolve(0.0) == "bitmap"


class TestQuerySurface:
    def test_mask_spans_partitions(self):
        table = make_table([1, 3, 4, 3, 2, 6, 7, 6], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "unique")
        mask = index.mask_for_range(0, 8)
        assert mask.tolist() == [False, True, False, True, False, True, False, True]
        # Sub-range crossing the partition boundary.
        assert index.mask_for_range(2, 6).tolist() == [False, True, False, True]

    def test_contains(self):
        table = make_table([1, 3, 4, 3, 2, 6, 7, 6])
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.contains(3)
        assert not index.contains(0)

    def test_partition_patches_access(self):
        table = make_table([1, 3, 4, 3, 2, 6, 7, 6], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.partition_patches(0).rowids().tolist() == [1, 3]
        assert index.partition_patches(1).rowids().tolist() == [1, 3]


class TestStats:
    def test_stats_and_describe(self):
        table = make_table([1, 1, 2, 3], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "unique")
        stats = index.stats()
        assert stats.name == "pi"
        assert stats.table_name == "t"
        assert stats.column_name == "c"
        assert stats.patch_count == 2
        assert stats.row_count == 4
        assert stats.partition_patch_counts == (2, 0)
        assert "pi" in index.describe()
        assert stats.memory_bytes == index.memory_usage_bytes()

    def test_memory_sums_partitions(self):
        table = make_table(list(range(100)), partition_count=4)
        index = PatchIndex.create(
            "pi", table, "c", "unique", mode=PatchIndexMode.BITMAP
        )
        # 4 partitions x 25 rows -> 4 x ceil(25/8)=4 bytes
        assert index.memory_usage_bytes() == 16


class TestDetach:
    def test_detach_stops_events(self):
        table = make_table([1, 2, 3, 4])
        index = PatchIndex.create("pi", table, "c", "unique")
        index.detach()
        table.insert_rows([[1, 9]])  # would demote rowid 0 if attached
        assert index.patch_count == 0
        index.detach()  # idempotent
