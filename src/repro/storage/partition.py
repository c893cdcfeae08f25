"""A horizontal partition of a table.

Each partition owns a contiguous range of global rowids
``[base_rowid, base_rowid + row_count)`` and stores one
:class:`~repro.storage.column.ColumnVector` per column, plus lazily
computed per-block min/max sketches for scan-range pruning, and, for
the columns a NUC index looks keys up in, a sort order of the rows
(:class:`~repro.storage.key_order.KeyOrder`).

Partitions are append-only at this level; logical deletes are handled by
the table through rewriting (and by PatchIndex maintenance through patch
updates), mirroring how column stores treat in-place mutation as the
exceptional path.

An append writes its rows after the live ones, into spare room at the
end of the column's buffer (:class:`_Spare`), and installs a longer view
of it: it costs the rows appended, not the partition.  A vector once
handed out is never written into: the room past its end belongs to the
one vector the buffer handed out last, so a snapshot's copy, a batch or a
checkpoint holding an older vector reads exactly the rows it had.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import SchemaError, StorageError
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, BlockStats, block_stats
from repro.storage.column import ColumnVector
from repro.storage.key_order import KeyOrder
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.cache import ScanIO, SegmentColumnSource


#: Spare rows an append leaves after the live rows when it must move a
#: non-empty column to a new buffer, as a fraction of the rows: 1/8.
_SLACK_DIVISOR = 8


class _Spare:
    """A column's buffer, with room after the live rows, and the vector
    over its head that the buffer handed out last: only that vector may
    grow into the room."""

    __slots__ = ("values", "validity", "latest", "rows")

    def __init__(self, vector: ColumnVector, capacity: int, nullable: bool):
        rows = len(vector)
        self.values = np.empty(capacity, dtype=vector.values.dtype)
        self.values[:rows] = vector.values
        self.validity: np.ndarray | None = None
        if nullable:
            self.validity = np.empty(capacity, dtype=np.bool_)
            self.validity[:rows] = vector.validity_or_all_true()
        self.latest = vector
        #: Rows of the buffer some vector reads; the room starts here.
        self.rows = rows

    def owns(self, vector: ColumnVector) -> bool:
        """Whether *vector* is the latest this buffer handed out and ends
        where the room starts: then no other vector reads past its end."""
        return self.latest is vector and len(vector) == self.rows

    def grow(self, vector: ColumnVector, tail: ColumnVector) -> ColumnVector:
        """*vector* (:meth:`owns`) followed by *tail*, written in place."""
        total = self.rows + len(tail)
        self.values[self.rows : total] = tail.values
        if self.validity is not None:
            self.validity[self.rows : total] = tail.validity_or_all_true()
        grown = ColumnVector(
            vector.dtype,
            self.values[:total],
            None if self.validity is None else self.validity[:total],
        )
        self.latest = grown
        self.rows = total
        return grown


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
        #: Sort orders by column, built on first use by :meth:`key_holders`.
        self._key_orders: dict[str, KeyOrder] = {}
        #: Append buffers by column, shared with copies (:meth:`copy`).
        self._spare: dict[str, _Spare] = {}

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

    def lazy_row_bytes(self, names: list[str]) -> int:
        """Decoded bytes per row of the columns among *names* whose
        slices still decode segment blocks through the block cache."""
        return sum(
            source.reader.row_bytes
            for name, source in self._sources.items()
            if name in names and name not in self._columns
        )

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
        can keep or copy that segment instead of re-encoding it.
        A column decoded by a read keeps its source."""
        return self._sources.get(name)

    def materialize(self) -> None:
        """Resolve every lazy source and drop it, before a mutation
        rewrites rows (a checkpoint does not call it: clean partitions
        keep reading their segments)."""
        for name in list(self._sources):
            self.column(name)
        self._sources.clear()

    def replace_column(self, name: str, vector: ColumnVector, row: int) -> None:
        """Install the vector of column *name* with the cell at *row*
        changed: its segment source and block sketches no longer describe
        it, and its key order moves that row's entry."""
        order = self._key_orders.get(name)
        if order is not None:
            old = self.column(name).values
            self._key_orders[name] = order.after_update(old, vector.values, row)
        self._columns[name] = vector
        self._sources.pop(name, None)
        self._block_stats.pop(name, None)
        self._spare.pop(name, None)

    def drop_key_order(self, name: str) -> None:
        """Forget column *name*'s key order (its last NUC was dropped)."""
        self._key_orders.pop(name, None)

    def copy(self) -> "Partition":
        """A partition over the same column vectors, segment sources and
        append buffers with dicts of its own: mutations replace vectors
        and clear the dicts in place, and only the first side to append
        grows into a shared buffer's room, so neither side sees the
        other's later changes.  The copy has no key orders: only a live
        partition's maintainers look keys up, and an order a copy held
        would outlive the one the live side replaces it with."""
        twin = copy.copy(self)
        twin._columns = dict(self._columns)
        twin._sources = dict(self._sources)
        twin._block_stats = dict(self._block_stats)
        twin._key_orders = {}
        twin._spare = dict(self._spare)
        return twin

    @property
    def rowid_range(self) -> tuple[int, int]:
        """Global rowid range ``[start, stop)`` owned by this partition."""
        return (self.base_rowid, self.base_rowid + self.row_count)

    def rowids(self) -> np.ndarray:
        """Dense array of global rowids for every row of the partition."""
        start, stop = self.rowid_range
        return np.arange(start, stop, dtype=np.int64)

    # -- block statistics ---------------------------------------------

    def block_stats(self, name: str) -> list[BlockStats]:
        """Per-block min/max sketches for column *name* (cached; after
        an append only the blocks past the cached full ones are
        computed)."""
        stats = self._block_stats.get(name)
        covered = stats[-1].stop if stats else 0
        if stats is None or covered < self.row_count:
            column = self.column(name)
            stats = (stats or []) + [
                block_stats(column, start, min(start + self.block_size, self.row_count))
                for start in range(covered, self.row_count, self.block_size)
            ]
            self._block_stats[name] = stats
        return stats

    def preload_block_stats(self, name: str, stats: list[BlockStats]) -> None:
        """Prime the sketch cache from persisted segment headers.

        Lets a segment-backed partition serve range pruning without
        touching the (possibly memory-mapped) value bytes.  Any later
        mutation invalidates the cache as usual.
        """
        self.schema.field(name)
        self._block_stats[name] = list(stats)

    # -- key lookup ---------------------------------------------------------

    def key_holders(
        self, name: str, needles: np.ndarray, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(needle index, local rowid)`` of every non-NULL row below
        *stop* whose value in column *name* equals one of the sorted,
        unique *needles*, by binary search in the column's key order
        (built on first use; rows appended since the last call are merged
        in first).  The column becomes resident."""
        column = self.column(name)
        order = self._key_orders.get(name)
        if order is None:
            order = KeyOrder.build(column.values, stop)
        else:
            order = order.covering(column.values, stop)
        self._key_orders[name] = order
        which, rows = order.holders(column.values, needles, stop)
        if column.validity is not None:
            valid = column.validity[rows]
            which, rows = which[valid], rows[valid]
        return which, rows

    # -- mutation -------------------------------------------------------

    def append(self, columns: Mapping[str, ColumnVector]) -> None:
        """Append rows (:meth:`_grow`); keeps the cached sketches of the
        full blocks before them, which no appended row touches."""
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
            self._columns[name] = self._grow(name, column)
        full = self.row_count - self.row_count % self.block_size
        self.row_count += row_count
        # New lists: a snapshot's copy shares the old ones.
        self._block_stats = {
            name: [block for block in stats if block.stop <= full]
            for name, stats in self._block_stats.items()
        }

    def _grow(self, name: str, tail: ColumnVector) -> ColumnVector:
        """Column *name* followed by *tail*: written into the spare room
        of the column's buffer when the partition's vector is the one the
        buffer handed out last and the rows fit, else copied with *tail* into
        a new buffer with an eighth of the rows spare (none for the first
        rows of an empty partition, a bulk load)."""
        vector = self._columns[name]
        total = len(vector) + len(tail)
        spare = self._spare.get(name)
        nullable = vector.validity is not None or tail.validity is not None
        if (
            spare is None
            or not spare.owns(vector)
            or total > len(spare.values)
            or (nullable and spare.validity is None)
        ):
            slack = total // _SLACK_DIVISOR if len(vector) else 0
            spare = _Spare(vector, total + slack, nullable)
            self._spare[name] = spare
        return spare.grow(vector, tail)

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
        self._key_orders = {
            name: order.after_delete(keep_mask)
            for name, order in self._key_orders.items()
        }
        # The blocks before the first deleted row keep their rows; the
        # rest are sketched here, once, rather than by every snapshot
        # copy that reads them (a copy's sketches stay with the copy).
        first_deleted = int(np.argmin(keep_mask))
        stale = self._block_stats
        self._block_stats = {
            name: [block for block in stats if block.stop <= first_deleted]
            for name, stats in stale.items()
        }
        for name in stale:
            self.block_stats(name)
        self._spare.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partition(id={self.partition_id}, rows={self.row_count}, "
            f"base_rowid={self.base_rowid})"
        )
