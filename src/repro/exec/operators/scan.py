"""Table scan with scan-range pruning and optional ``tid`` column.

The scan walks partitions in order and emits batches whose rowids are
contiguous runs of global tuple identifiers — the property the
PatchSelect operator depends on (paper §VI-A1).  A ``use_patches``
PatchSelect instead hands the scan the patch rowids of its ranges
(:attr:`TableScan.gather`); the scan then emits only those rows, in
rowid order, reading only the blocks that hold one.

A range scan reads each column in *runs* of several batches
(:data:`MAX_RUN_BATCHES`), so a segment-backed column decodes many
blocks per call, and emits batch-sized views of the run.  Its batches
carry their rowids as a ``(start, stop)`` window
(:class:`~repro.exec.batch.RecordBatch`), built into an array only if
something reads it.

Scan ranges (global ``[start, stop)`` rowid intervals) restrict the scan
to the given intervals; they are typically produced by evaluating
selection predicates against the per-block min/max sketches
(:meth:`repro.storage.partition.Partition.scan_ranges_for_predicate`),
the "small materialized aggregates" mechanism the paper references.

When *with_tid* is set, the scan additionally materializes the virtual
``tid`` column of tuple identifiers, which the paper's NUC discovery
query selects.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.exec.batch import DEFAULT_BATCH_SIZE, RecordBatch
from repro.exec.operators.base import Operator
from repro.storage.cache import ScanIO
from repro.storage.column import ColumnVector
from repro.storage.partition import Partition
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType
from repro.types.datatypes import numpy_dtype

#: Name of the virtual tuple-identifier column.
TID_COLUMN = "tid"

#: One batch of work: a ``(start, stop, run)`` rowid range, or an
#: array of gathered rowids.
_Piece = tuple[int, int, tuple[int, int]] | np.ndarray

#: Most batches one run reads per column.  A range scan reads its
#: columns in runs of 1, 2, 4 and then 8 batches (clipped to the
#: partition and the scan range) and emits batch-sized views of them:
#: a long scan decodes 32 blocks a call, a ``LIMIT`` that stops after
#: its first batch decodes only that batch's blocks.
MAX_RUN_BATCHES = 8


def normalize_ranges(
    scan_ranges: list[tuple[int, int]] | None, total: int
) -> list[tuple[int, int]] | None:
    """Validate, sort, merge and clip ``[start, stop)`` rowid ranges.

    Negative starts and stops beyond *total* are clipped, empty and
    inverted ranges are dropped, and overlapping or adjacent ranges are
    merged.  ``None`` (no restriction) passes through.
    """
    if scan_ranges is None:
        return None
    cleaned: list[tuple[int, int]] = []
    for start, stop in sorted(scan_ranges):
        start = max(0, start)
        stop = min(total, stop)
        if start >= stop:
            continue
        if cleaned and start <= cleaned[-1][1]:
            cleaned[-1] = (cleaned[-1][0], max(cleaned[-1][1], stop))
        else:
            cleaned.append((start, stop))
    return cleaned


class TableScan(Operator):
    """Scans a table, batch by batch, partition by partition."""

    def __init__(
        self,
        table: Table,
        columns: list[str] | None = None,
        scan_ranges: list[tuple[int, int]] | None = None,
        with_tid: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.table = table
        self.column_names = (
            list(columns) if columns is not None else list(table.schema.names)
        )
        fields = [table.schema.field(name) for name in self.column_names]
        if with_tid:
            if TID_COLUMN in self.column_names:
                raise PlanError(f"table already has a {TID_COLUMN!r} column")
            fields.append(Field(TID_COLUMN, DataType.INT64, nullable=False))
        self._schema = Schema(fields)
        self.with_tid = with_tid
        self.batch_size = batch_size
        self.scan_ranges = self._normalize_ranges(scan_ranges)
        #: Ascending global rowids, inside the scan ranges, to emit
        #: instead of every covered row; set before :meth:`open`.
        self.gather: np.ndarray | None = None
        self._cursor: list[_Piece] | None = None
        #: The run the last range batch came from and its column vectors.
        self._run: tuple[int, int] | None = None
        self._run_columns: dict[str, ColumnVector] = {}
        #: Decode / block-cache accounting for segment-backed columns
        #: (surfaced as EXPLAIN ANALYZE details).
        self.io = ScanIO()

    def _normalize_ranges(
        self, scan_ranges: list[tuple[int, int]] | None
    ) -> list[tuple[int, int]] | None:
        """Validate, sort, merge and clip the requested scan ranges."""
        return normalize_ranges(scan_ranges, self.table.row_count)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return []

    def open(self) -> None:
        # Pre-compute the batch work list: global (start, stop, run)
        # pieces, or arrays of gathered rowids, never crossing a
        # partition boundary and each at most batch_size rows.  A run is
        # the (start, stop) window of consecutive pieces whose columns
        # are read in one go.
        pieces: list[_Piece] = []
        ranges = (
            self.scan_ranges
            if self.scan_ranges is not None
            else [(0, self.table.row_count)]
        )
        planned = 0
        run_batches = 1
        for partition in self.table.partitions:
            p_start, p_stop = partition.rowid_range
            row_bytes = sum(
                numpy_dtype(field.dtype).itemsize
                for field in self._schema
                if partition.is_lazy(field.name)
            )
            if self.gather is not None:
                lo, hi = np.searchsorted(self.gather, (p_start, p_stop))
                rowids = self.gather[lo:hi]
                pieces.extend(
                    rowids[at : at + self.batch_size]
                    for at in range(0, len(rowids), self.batch_size)
                )
                planned += _block_rows(partition, rowids - p_start) * row_bytes
                continue
            for r_start, r_stop in ranges:
                lo = max(p_start, r_start)
                hi = min(p_stop, r_stop)
                planned += max(0, hi - lo) * row_bytes
                position = lo
                while position < hi:
                    run_stop = min(position + run_batches * self.batch_size, hi)
                    run = (position, run_stop)
                    run_batches = min(2 * run_batches, MAX_RUN_BATCHES)
                    while position < run_stop:
                        stop = min(position + self.batch_size, run_stop)
                        pieces.append((position, stop, run))
                        position = stop
        pieces.reverse()  # pop() from the end keeps order
        self._cursor = pieces
        self._run = None
        self._run_columns = {}
        # What this scan will pull through the block cache; one that
        # cannot fit is read around it (SegmentColumnSource._decode_run).
        self.io.planned_bytes = planned

    def next_batch(self) -> RecordBatch | None:
        if self._cursor is None:
            raise PlanError("scan used before open()")
        if not self._cursor:
            return None
        piece = self._cursor.pop()
        if isinstance(piece, tuple):
            start, stop, run = piece
            if run != self._run:
                self._read_run(run)
            offset = start - run[0]
            columns: dict[str, ColumnVector] = {
                name: vector.slice(offset, offset + stop - start)
                for name, vector in self._run_columns.items()
            }
            if not self.with_tid:
                return RecordBatch(self._schema, columns, window=(start, stop))
            rowids = np.arange(start, stop, dtype=np.int64)
        else:
            rowids = piece
            partition = self.table.partition_of_rowid(int(rowids[0]))
            positions = rowids - partition.base_rowid
            columns = {
                name: partition.column_take(name, positions, self.io)
                for name in self.column_names
            }
        if self.with_tid:
            columns[TID_COLUMN] = ColumnVector(DataType.INT64, rowids)
        return RecordBatch(self._schema, columns, rowids)

    def _read_run(self, run: tuple[int, int]) -> None:
        """Read every column's rows of *run*; batches are views of them.

        Each run gets fresh vectors, never a reused buffer, since the
        batches of the last run may still be held downstream.
        """
        partition = self.table.partition_of_rowid(run[0])
        lo, hi = run[0] - partition.base_rowid, run[1] - partition.base_rowid
        self._run = run
        self._run_columns = {
            name: partition.column_slice(name, lo, hi, self.io)
            for name in self.column_names
        }

    def close(self) -> None:
        self._cursor = None
        self._run = None
        self._run_columns = {}

    def label(self) -> str:
        parts = [f"TableScan({self.table.name}"]
        if self.scan_ranges is not None:
            covered = sum(stop - start for start, stop in self.scan_ranges)
            parts.append(f", ranges={len(self.scan_ranges)} rows={covered}")
        if self.with_tid:
            parts.append(", +tid")
        parts.append(")")
        return "".join(parts)


def _block_rows(partition: Partition, positions: np.ndarray) -> int:
    """Rows of the *partition* blocks that hold one of *positions*."""
    if not len(positions):
        return 0
    size = partition.block_size
    blocks = positions // size
    touched = 1 + int(np.count_nonzero(np.diff(blocks)))
    # Only the partition's last block can be short.
    short = (int(blocks[-1]) + 1) * size - partition.row_count
    return touched * size - max(0, short)
