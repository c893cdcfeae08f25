"""Tests for the PatchSelect operator.

Key properties:

- the vectorized operator agrees with the paper's Algorithm 1
  (tuple-at-a-time merge strategy) used as an oracle;
- identifier-based and bitmap-based designs are observationally equal;
- ``use`` and ``exclude`` partition the scan exactly;
- scan ranges compose correctly (paper §VI-A3);
- a use-patches scan gathers only the patch rows, equal to the mask
  path, on resident and segment-backed columns;
- PatchCount equals the COUNT(DISTINCT) it stands in for;
- placement directly on the scan is enforced.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.errors import PlanError
from repro.exec.operators.filter import Filter
from repro.exec.operators.patch_select import (
    PatchSelect,
    PatchSelectMode,
    exclude_patches_scalar,
    patch_rowids,
    use_patches_scalar,
)
from repro.exec.operators.scan import TableScan
from repro.exec.expressions import ColumnRef, Comparison, Literal
from repro.exec.result import collect
from repro.plan.optimizer import OptimizerOptions
from repro.storage.cache import BlockCache, SegmentColumnSource
from repro.storage.partition import Partition
from repro.storage.schema import Field, Schema
from repro.storage.segment import open_segment, write_segment
from repro.storage.table import Table
from repro.types import DataType


def make_indexed_table(values, partition_count=2, mode=PatchIndexMode.AUTO):
    table = Table.from_pydict(
        "t",
        Schema([Field("c", DataType.INT64)]),
        {"c": values},
        partition_count=partition_count,
    )
    index = PatchIndex.create("pi", table, "c", "unique", mode=mode)
    return table, index


class TestAlgorithm1Oracle:
    """The scalar generators transcribe the paper's Algorithm 1."""

    def test_exclude_matches_paper_example(self):
        tuples = [(i, v) for i, v in enumerate("abcdefgh")]
        patches = np.array([1, 3, 5, 7], dtype=np.int64)
        kept = list(exclude_patches_scalar(tuples, patches))
        assert [v for __, v in kept] == ["a", "c", "e", "g"]

    def test_use_matches(self):
        tuples = [(i, v) for i, v in enumerate("abcdefgh")]
        patches = np.array([1, 3, 5, 7], dtype=np.int64)
        used = list(use_patches_scalar(tuples, patches))
        assert [v for __, v in used] == ["b", "d", "f", "h"]

    def test_no_patches(self):
        tuples = [(0, "a"), (1, "b")]
        empty = np.array([], dtype=np.int64)
        assert len(list(exclude_patches_scalar(tuples, empty))) == 2
        assert len(list(use_patches_scalar(tuples, empty))) == 0

    @given(
        st.integers(0, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(0, max(0, n - 1)), max_size=n, unique=True
                ).map(sorted),
            )
        )
    )
    @settings(max_examples=120)
    def test_vectorized_operator_matches_algorithm1(self, case):
        n, patch_list = case
        values = list(range(n))
        table = Table.from_pydict(
            "t", Schema([Field("c", DataType.INT64)]), {"c": values}
        )
        # Build an index with an arbitrary (not discovered) patch set by
        # constructing the patch sets directly.
        from repro.core.patches import PatchSet
        from repro.core.constraints import ConstraintKind

        patches = np.array(patch_list, dtype=np.int64)
        index = PatchIndex(
            "pi",
            table,
            "c",
            ConstraintKind.UNIQUE,
            [PatchSet.build(patches, n, "identifier")],
            threshold=1.0,
        )
        tuples = [(i, v) for i, v in enumerate(values)]
        oracle_excluded = [v for __, v in exclude_patches_scalar(tuples, patches)]
        oracle_used = [v for __, v in use_patches_scalar(tuples, patches)]
        got_excluded = collect(
            PatchSelect(
                TableScan(table, batch_size=7), index, PatchSelectMode.EXCLUDE_PATCHES
            )
        ).column("c").to_pylist()
        got_used = collect(
            PatchSelect(
                TableScan(table, batch_size=7), index, PatchSelectMode.USE_PATCHES
            )
        ).column("c").to_pylist()
        assert got_excluded == oracle_excluded
        assert got_used == oracle_used


class TestModes:
    def test_partitioning_of_dataflow(self):
        values = [1, 3, 4, 3, 2, 6, 7, 6]
        table, index = make_indexed_table(values)
        excluded = collect(
            PatchSelect(TableScan(table), index, PatchSelectMode.EXCLUDE_PATCHES)
        ).column("c").to_pylist()
        used = collect(
            PatchSelect(TableScan(table), index, PatchSelectMode.USE_PATCHES)
        ).column("c").to_pylist()
        assert excluded == [1, 4, 2, 7]
        assert used == [3, 3, 6, 6]
        assert sorted(excluded + used) == sorted(values)

    @pytest.mark.parametrize(
        "mode", [PatchIndexMode.IDENTIFIER, PatchIndexMode.BITMAP]
    )
    def test_designs_equivalent(self, mode):
        # Duplicated values 5, 2 and 0 are all patches; 1 and 9 survive.
        values = [5, 5, 1, 2, 2, 9, 0, 0]
        table, index = make_indexed_table(values, mode=mode)
        assert index.design == mode.value
        excluded = collect(
            PatchSelect(TableScan(table), index, PatchSelectMode.EXCLUDE_PATCHES)
        ).column("c").to_pylist()
        assert excluded == [1, 9]

    def test_small_batches_across_partitions(self):
        values = list(range(50))
        values[10] = 5  # duplicate
        table, index = make_indexed_table(values, partition_count=4)
        excluded = collect(
            PatchSelect(
                TableScan(table, batch_size=3), index, PatchSelectMode.EXCLUDE_PATCHES
            )
        )
        assert excluded.row_count == 50 - index.patch_count


class TestScanRangeComposition:
    def test_ranges_merge_with_patches(self):
        # Paper §VI-A3: pruning rows never invalidates the patch set.
        values = [1, 3, 4, 3, 2, 6, 7, 6]  # patches for NUC: {1,3,5,7}
        table, index = make_indexed_table(values, partition_count=1)
        result = collect(
            PatchSelect(
                TableScan(table, scan_ranges=[(2, 7)]),
                index,
                PatchSelectMode.EXCLUDE_PATCHES,
            )
        )
        # rows 2..6 minus patches {3, 5} -> rowids 2, 4, 6
        assert result.column("c").to_pylist() == [4, 2, 7]

    def test_use_patches_with_ranges(self):
        values = [1, 3, 4, 3, 2, 6, 7, 6]
        table, index = make_indexed_table(values, partition_count=1)
        result = collect(
            PatchSelect(
                TableScan(table, scan_ranges=[(0, 4)]),
                index,
                PatchSelectMode.USE_PATCHES,
            )
        )
        assert result.column("c").to_pylist() == [3, 3]


class TestPlacementEnforcement:
    def test_must_sit_on_scan(self):
        table, index = make_indexed_table([1, 2, 2])
        child = Filter(
            TableScan(table), Comparison(">", ColumnRef("c"), Literal(0))
        )
        with pytest.raises(PlanError):
            PatchSelect(child, index, PatchSelectMode.USE_PATCHES)

    def test_scan_of_other_table_rejected(self):
        table, index = make_indexed_table([1, 2, 2])
        other = Table.from_pydict(
            "other", Schema([Field("c", DataType.INT64)]), {"c": [1]}
        )
        with pytest.raises(PlanError):
            PatchSelect(TableScan(other), index, PatchSelectMode.USE_PATCHES)


# -- use_patches gathers ------------------------------------------------------


def segment_backed(table, directory, cache_bytes):
    """Swap every partition of *table* for one whose columns decode from
    segment files through a BlockCache of *cache_bytes*."""
    cache = BlockCache(cache_bytes)
    readers = []
    for number, partition in enumerate(table.partitions):
        sources = {}
        for field in table.schema:
            path = directory / f"p{number}.{field.name}.seg"
            write_segment(
                path,
                partition.column(field.name),
                block_size=partition.block_size,
                sync=False,
            )
            readers.append(open_segment(path))
            sources[field.name] = SegmentColumnSource(
                readers[-1],
                cache,
                table=table.name,
                column=field.name,
                segment=path.name,
                generation=0,
            )
        table.partitions[number] = Partition(
            partition.partition_id,
            table.schema,
            {},
            partition.base_rowid,
            partition.block_size,
            sources=sources,
        )
    return readers


def mask_path_rows(table, index, ranges, with_tid):
    """The use branch the pre-gather way: scan every covered row, keep
    the rows the per-batch membership mask marks."""
    scan = TableScan(table, scan_ranges=ranges, with_tid=with_tid, batch_size=5)
    scan.open()
    rows = []
    while (batch := scan.next_batch()) is not None:
        kept = batch.filter(index.mask_for_range(*batch.contiguous_range))
        rows.extend(
            zip(*(kept.column(name).to_pylist() for name in kept.schema.names))
        )
    return rows


@st.composite
def gather_cases(draw):
    partitions = draw(st.integers(1, 4))
    n = draw(st.integers(0, 90))
    values = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, 25)), min_size=n, max_size=n
        )
    )
    ranges = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3)),
                max_size=4,
            ),
        )
    )
    return (
        partitions,
        values,
        ranges,
        draw(st.sampled_from([PatchIndexMode.IDENTIFIER, PatchIndexMode.BITMAP])),
        draw(st.sampled_from([None, 64, 1 << 20])),  # None: resident
        draw(st.booleans()),
        draw(st.integers(1, 7)),
    )


class TestUsePatchesGather:
    """A use-patches PatchSelect hands its scan the patch rowids of the
    scan's ranges; the scan gathers only those rows.  That must equal
    the mask path and Algorithm 1 with the conditions exchanged, for
    both designs, any partitioning and ranges, resident columns and
    segment-backed ones behind a cache smaller than the scan."""

    @given(gather_cases())
    @settings(max_examples=150, deadline=None)
    def test_gather_equals_mask_path_and_algorithm1(self, case):
        partitions, values, ranges, mode, cache_bytes, with_tid, batch = case
        schema = Schema(
            [Field("c", DataType.INT64), Field("v", DataType.STRING)]
        )
        table = Table.from_pydict(
            "t",
            schema,
            {"c": values, "v": [None if c is None else f"v{c}" for c in values]},
            partition_count=partitions,
            block_size=8,
        )
        index = PatchIndex.create("pi", table, "c", "unique", mode=mode)
        assert index.design == mode.value
        with tempfile.TemporaryDirectory() as directory:
            readers = []
            if cache_bytes is not None:
                readers = segment_backed(table, Path(directory), cache_bytes)
            scan = TableScan(
                table, scan_ranges=ranges, with_tid=with_tid, batch_size=batch
            )
            operator = PatchSelect(scan, index, PatchSelectMode.USE_PATCHES)
            stats = operator.enable_stats()
            gathered = collect(operator).to_pylist()
            expected = mask_path_rows(table, index, ranges, with_tid)
            everything = collect(TableScan(table, with_tid=with_tid)).to_pylist()
            for reader in readers:
                reader.close()

        assert gathered == expected
        covered = scan.scan_ranges
        oracle = [
            row
            for rowid, row in use_patches_scalar(
                enumerate(everything), index.rowids()
            )
            if covered is None
            or any(start <= rowid < stop for start, stop in covered)
        ]
        assert gathered == oracle
        # The scan read the patches and nothing else.
        assert stats.rows_in == stats.patch_hits == len(gathered)
        if cache_bytes is not None:
            # Each batch read every block holding one of its rows once
            # per column — decoded or hit — and no other block.
            # The scan takes the patch rowids PatchSelect hands it at open.
            assert scan.gather is None
            reads = 0
            for partition in table.partitions:
                start, stop = partition.rowid_range
                local = [
                    rowid - start
                    for rowid in patch_rowids(index, covered).tolist()
                    if start <= rowid < stop
                ]
                for at in range(0, len(local), batch):
                    chunk = local[at : at + batch]
                    reads += len({rowid // partition.block_size for rowid in chunk})
            io = scan.io
            assert io.blocks_decoded + io.cache_hits == 2 * reads

    def test_planned_bytes_count_touched_blocks(self, tmp_path):
        values = list(range(64))
        values[3] = values[50] = 7  # patches at 3, 7 and 50: blocks 0 and 6
        table = Table.from_pydict(
            "t",
            Schema([Field("c", DataType.INT64), Field("v", DataType.STRING)]),
            {"c": values, "v": [str(c) for c in values]},
            block_size=8,
        )
        index = PatchIndex.create("pi", table, "c", "unique")
        readers = segment_backed(table, tmp_path, 1 << 20)
        scan = TableScan(table)
        used = collect(PatchSelect(scan, index, PatchSelectMode.USE_PATCHES))
        for reader in readers:
            reader.close()
        assert used.column("c").to_pylist() == [7, 7, 7]
        # Two touched blocks of 8 rows x (8-byte INT64 + 8-byte STRING
        # slot), not the table's 64 rows.
        assert scan.io.planned_bytes == 2 * 8 * 16
        assert scan.io.blocks_decoded == 2 * 2

    def test_exclude_keeps_the_contiguous_mask_path(self):
        table, index = make_indexed_table([1, 3, 4, 3, 2, 6, 7, 6])
        scan = TableScan(table)
        collect(PatchSelect(scan, index, PatchSelectMode.EXCLUDE_PATCHES))
        assert scan.gather is None


# -- PatchCount ----------------------------------------------------------------

REWRITE = OptimizerOptions(always_rewrite=True)
PLAIN = OptimizerOptions(use_patch_indexes=False)
COUNT_DISTINCT = "SELECT COUNT(DISTINCT c) AS n FROM t"


def count_table(db, values, partitions=3):
    db.sql(f"CREATE TABLE t (c BIGINT, k BIGINT) PARTITIONS {partitions}")
    if values:
        db.sql(
            "INSERT INTO t VALUES "
            + ", ".join(
                f"({'NULL' if c is None else c}, {k})"
                for k, c in enumerate(values)
            )
        )
    db.sql("CREATE PATCHINDEX pc ON t(c) TYPE UNIQUE")


def counted(db, query=COUNT_DISTINCT):
    """The rewritten count, its plan-cache state, and the plain count."""
    result = db.sql(query, optimizer_options=REWRITE, profile=True)
    assert result.profile.find("PatchCount"), "the count was not fused"
    return (
        result.scalar(),
        result.profile.root.details["plan_cache"],
        db.sql(query, optimizer_options=PLAIN).scalar(),
    )


class TestPatchCount:
    """The exclude branch of COUNT(DISTINCT) over a NUC is counted from
    the patch set; it must equal the plain count on any table, after any
    mutation, from a cached plan and in a snapshot."""

    @pytest.mark.parametrize(
        "values",
        [
            [None, None, 1, None, 2, 2, None, 3, None, None],  # NULL-heavy
            list(range(20)),  # zero patches
            [4, 4, 4, 5, 5, None, None],  # every row a patch
            [],
        ],
        ids=["null-heavy", "zero-patch", "all-patch", "empty"],
    )
    def test_equals_plain_count(self, values):
        db = Database()
        count_table(db, values)
        rewritten, __, plain = counted(db)
        assert rewritten == plain == len({v for v in values if v is not None})

    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_counts_at_execution_not_at_plan_time(self, design):
        db = Database()
        count_table(db, [1, 2, 2, None, 3, 4, 5, 6])
        db.sql("DROP PATCHINDEX pc")
        db.sql(f"CREATE PATCHINDEX pc ON t(c) TYPE UNIQUE MODE {design}")
        for statement in (
            "INSERT INTO t VALUES (7, 100), (2, 101), (NULL, 102), (8, 103)",
            "DELETE FROM t WHERE c = 2",
            "DELETE FROM t WHERE k < 3",
            "INSERT INTO t VALUES (9, 104), (9, 105)",
        ):
            db.sql(statement)
            first = counted(db)
            again = counted(db)
            assert again[1] == "hit"
            assert first[0] == first[2] == again[0] == again[2]

    def test_snapshot_session_counts_its_pin(self):
        db = Database()
        count_table(db, [1, 2, 2, 3, None])
        with db.session(snapshot_reads=True) as session:
            before = session.sql(COUNT_DISTINCT, optimizer_options=REWRITE)
            assert before.scalar() == 3
            db.sql("INSERT INTO t VALUES (10, 9), (11, 10), (11, 11)")
            after = session.sql(
                COUNT_DISTINCT, optimizer_options=REWRITE, profile=True
            )
            assert after.profile.find("PatchCount")
            assert after.scalar() == 5
        assert counted(db)[0] == 5

    def test_ranges_and_filters(self):
        db = Database()
        count_table(db, [v % 40 for v in range(120)] + [None] * 5)
        for where in ("", " WHERE k < 50", " WHERE k BETWEEN 30 AND 90 OR c = 3"):
            query = COUNT_DISTINCT + where
            assert (
                db.sql(query, optimizer_options=REWRITE).scalar()
                == db.sql(query, optimizer_options=PLAIN).scalar()
            )
