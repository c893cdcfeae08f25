"""A horizontal partition of a table.

Each partition owns a contiguous range of global rowids
``[base_rowid, base_rowid + row_count)`` and stores one
:class:`~repro.storage.column.ColumnVector` per column, plus lazily
computed per-block min/max sketches for scan-range pruning.

Partitions are append-only at this level; logical deletes are handled by
the table through rewriting (and by PatchIndex maintenance through patch
updates), mirroring how column stores treat in-place mutation as the
exceptional path.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError, StorageError
from repro.storage.blocks import (
    DEFAULT_BLOCK_SIZE,
    BlockStats,
    compute_block_stats,
    prune_blocks,
)
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.cache import ScanIO, SegmentColumnSource


class Partition:
    """Columnar storage for one horizontal slice of a table."""

    def __init__(
        self,
        partition_id: int,
        schema: Schema,
        columns: Mapping[str, ColumnVector],
        base_rowid: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sources: "Mapping[str, SegmentColumnSource] | None" = None,
    ):
        self.partition_id = partition_id
        self.schema = schema
        self.base_rowid = base_rowid
        self.block_size = block_size
        self._columns: dict[str, ColumnVector] = {}
        #: Lazy segment-backed columns (decode-on-demand through the
        #: block cache); a column materialized into ``_columns`` always
        #: shadows its source.
        self._sources: dict[str, "SegmentColumnSource"] = {}
        self._block_stats: dict[str, list[BlockStats]] = {}

        row_count: int | None = None
        for field in schema:
            backing: "ColumnVector | SegmentColumnSource | None"
            if sources is not None and field.name in sources:
                backing = sources[field.name]
            else:
                backing = columns.get(field.name)
            if backing is None:
                raise SchemaError(f"partition missing column {field.name!r}")
            if backing.dtype != field.dtype:
                raise SchemaError(
                    f"column {field.name!r} has type {backing.dtype.name}, "
                    f"schema says {field.dtype.name}"
                )
            if row_count is None:
                row_count = len(backing)
            elif len(backing) != row_count:
                raise StorageError(
                    f"column {field.name!r} length {len(backing)} != {row_count}"
                )
            if isinstance(backing, ColumnVector):
                self._columns[field.name] = backing
            else:
                self._sources[field.name] = backing
        self.row_count = row_count if row_count is not None else 0

    # -- access --------------------------------------------------------

    def column(self, name: str) -> ColumnVector:
        """Materialized column vector (decodes a lazy source fully)."""
        try:
            return self._columns[name]
        except KeyError:
            source = self._sources.get(name)
            if source is None:
                raise SchemaError(f"unknown column: {name!r}") from None
            vector = source.materialize()
            self._columns[name] = vector
            return vector

    def column_slice(
        self, name: str, start: int, stop: int, io: "ScanIO | None" = None
    ) -> ColumnVector:
        """Rows ``[start, stop)`` of column *name*, decoding only the
        blocks the slice touches when the column is segment-backed."""
        vector = self._columns.get(name)
        if vector is not None:
            return vector.slice(start, stop)
        source = self._sources.get(name)
        if source is not None:
            return source.slice(start, stop, io)
        return self.column(name).slice(start, stop)

    def column_take(
        self, name: str, positions: np.ndarray, io: "ScanIO | None" = None
    ) -> ColumnVector:
        """Rows at the ascending local *positions* of column *name*,
        decoding only the blocks that hold one when the column is
        segment-backed."""
        vector = self._columns.get(name)
        if vector is not None:
            return vector.take(positions)
        source = self._sources.get(name)
        if source is not None:
            return source.take(positions, io)
        return self.column(name).take(positions)

    def is_lazy(self, name: str) -> bool:
        """Whether slices of *name* still decode segment blocks (through
        the block cache) instead of slicing a resident vector."""
        return name in self._sources and name not in self._columns

    def sources(self) -> "list[SegmentColumnSource]":
        """The segment sources of the columns that are still lazy."""
        return [
            source
            for name, source in self._sources.items()
            if name not in self._columns
        ]

    def segment_source(self, name: str) -> "SegmentColumnSource | None":
        """The segment column *name* was loaded from, while the column
        still holds exactly its rows: every mutation drops the source
        (:meth:`materialize`, :meth:`replace_column`), so a checkpoint
        can carry that file into its generation instead of rewriting it.
        A column decoded by a read keeps its source."""
        return self._sources.get(name)

    def materialize(self) -> None:
        """Resolve every lazy source and drop it, before a mutation
        rewrites rows (a checkpoint does not call it: clean partitions
        keep reading their segments)."""
        for name in list(self._sources):
            self.column(name)
        self._sources.clear()

    def replace_column(self, name: str, vector: ColumnVector) -> None:
        """Install a changed vector for column *name* (a cell update):
        its segment source and block sketches no longer describe it."""
        self._columns[name] = vector
        self._sources.pop(name, None)
        self._block_stats.pop(name, None)

    def copy(self) -> "Partition":
        """A partition over the same column vectors and segment sources
        with dicts of its own: mutations replace vectors and clear the
        dicts in place, so neither side sees the other's later changes."""
        twin = copy.copy(self)
        twin._columns = dict(self._columns)
        twin._sources = dict(self._sources)
        twin._block_stats = dict(self._block_stats)
        return twin

    @property
    def rowid_range(self) -> tuple[int, int]:
        """Global rowid range ``[start, stop)`` owned by this partition."""
        return (self.base_rowid, self.base_rowid + self.row_count)

    def rowids(self) -> np.ndarray:
        """Dense array of global rowids for every row of the partition."""
        start, stop = self.rowid_range
        return np.arange(start, stop, dtype=np.int64)

    # -- block statistics / scan ranges ---------------------------------

    def block_stats(self, name: str) -> list[BlockStats]:
        """Per-block min/max sketches for column *name* (cached)."""
        if name not in self._block_stats:
            self._block_stats[name] = compute_block_stats(
                self.column(name), self.block_size
            )
        return self._block_stats[name]

    def preload_block_stats(self, name: str, stats: list[BlockStats]) -> None:
        """Prime the sketch cache from persisted segment headers.

        Lets a segment-backed partition serve range pruning without
        touching the (possibly memory-mapped) value bytes.  Any later
        mutation invalidates the cache as usual.
        """
        self.schema.field(name)
        self._block_stats[name] = list(stats)

    def scan_ranges_for_predicate(
        self, name: str, op: str, literal: object
    ) -> list[tuple[int, int]]:
        """Partition-local row ranges that may satisfy ``name <op> literal``."""
        return prune_blocks(self.block_stats(name), op, literal)

    # -- morsel iteration -------------------------------------------------

    def morsel_ranges(self, morsel_size: int) -> list[tuple[int, int]]:
        """Partition-local ``[start, stop)`` chunks of ~*morsel_size* rows.

        Chunk boundaries fall on the block grid (except the final,
        partial chunk), so a morsel-restricted scan covers whole blocks
        and the per-block min/max sketches keep their pruning value.
        Morsels never cross the partition boundary.
        """
        if morsel_size <= 0:
            raise StorageError("morsel_size must be positive")
        step = max(
            self.block_size,
            (morsel_size // self.block_size) * self.block_size,
        )
        ranges: list[tuple[int, int]] = []
        position = 0
        while position < self.row_count:
            stop = min(self.row_count, position + step)
            ranges.append((position, stop))
            position = stop
        return ranges

    # -- mutation -------------------------------------------------------

    def append(self, columns: Mapping[str, ColumnVector]) -> None:
        """Append rows; invalidates cached block statistics."""
        self.materialize()
        appended: dict[str, ColumnVector] = {}
        row_count: int | None = None
        for field in self.schema:
            if field.name not in columns:
                raise SchemaError(f"append missing column {field.name!r}")
            column = columns[field.name]
            if column.dtype != field.dtype:
                raise SchemaError(
                    f"append column {field.name!r}: type mismatch "
                    f"({column.dtype.name} vs {field.dtype.name})"
                )
            if row_count is None:
                row_count = len(column)
            elif len(column) != row_count:
                raise StorageError("append columns have differing lengths")
            appended[field.name] = column
        if not row_count:
            return
        for name, column in appended.items():
            self._columns[name] = ColumnVector.concat([self._columns[name], column])
        self.row_count += row_count
        self._block_stats.clear()

    def replace_rows(self, keep_mask: np.ndarray) -> None:
        """Rewrite the partition keeping only rows where *keep_mask* is True.

        Used by table-level delete.  Global rowids are reassigned by the
        owning table afterwards.
        """
        if len(keep_mask) != self.row_count:
            raise StorageError("keep_mask length mismatch")
        self.materialize()
        for name in list(self._columns):
            self._columns[name] = self._columns[name].filter(keep_mask)
        self.row_count = int(keep_mask.sum())
        self._block_stats.clear()

    def project(self, names: Sequence[str]) -> dict[str, ColumnVector]:
        """Return references to the requested column vectors."""
        return {name: self.column(name) for name in names}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partition(id={self.partition_id}, rows={self.row_count}, "
            f"base_rowid={self.base_rowid})"
        )
