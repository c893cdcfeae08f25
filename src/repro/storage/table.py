"""Partitioned columnar tables with dense global rowids.

A :class:`Table` is a list of :class:`~repro.storage.partition.Partition`
objects.  Global rowids are dense ``0..n-1`` in table order: partition
``k`` owns the contiguous range following partition ``k-1``.  This is
the tuple-identifier space the PatchIndex operates on (paper §III) and
what lets the PatchSelect operator assume "rowids of incoming tuples are
equal to tuple identifiers" when placed directly on a scan (§VI-A1).

Mutations (append / delete) renumber rowids densely and notify
registered listeners so PatchIndexes can maintain their patch sets
incrementally (paper §VIII outlook, implemented in
:mod:`repro.core.maintenance`).

Each mutation and its listeners run under :attr:`Table.state_lock` —
the owning catalog's state lock once the table is in one — and never
write a column array another table may share: :meth:`Table.copy`, the
snapshot's copy, shares every column vector with the live table.
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError, StorageError
from repro.storage.blocks import DEFAULT_BLOCK_SIZE
from repro.storage.column import ColumnVector
from repro.storage.partition import Partition
from repro.storage.schema import Schema

# Listener signature: (event, payload) where event is "append", "load",
# "delete" or "update".  Every payload carries the table name under
# "table" (so one listener can serve many tables, e.g. a storage
# engine's WAL data logging).  Append payload: partition_id,
# start_rowid, the appended columns, row_count.  Load payload: the
# loaded columns plus the partitioning strategy.  Delete payload: the
# sorted global rowids removed (before renumbering).
TableListener = Callable[[str, dict], None]


class Table:
    """A named, partitioned, columnar table."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        partition_count: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if partition_count < 1:
            raise StorageError("partition_count must be >= 1")
        self.name = name
        self.schema = schema
        self.block_size = block_size
        self.partitions: list[Partition] = [
            Partition(
                partition_id,
                schema,
                {
                    field.name: ColumnVector.empty(field.dtype)
                    for field in schema
                },
                base_rowid=0,
                block_size=block_size,
            )
            for partition_id in range(partition_count)
        ]
        self._listeners: list[TableListener] = []
        #: Held by every mutation together with its listeners.
        #: :meth:`repro.storage.catalog.Catalog.add_table` installs the
        #: catalog's lock; a table in no catalog is seen by no snapshot
        #: pin, so it has nothing to exclude.
        self.state_lock = nullcontext()
        #: Advanced by every mutation and every PatchIndex maintenance
        #: event (:meth:`touch`); a plan optimized against an older
        #: value may rest on row counts, patch counts or sortedness that
        #: no longer hold, so the plan cache re-plans.
        self.data_version = 0

    # -- basic properties ------------------------------------------------

    @property
    def row_count(self) -> int:
        return sum(partition.row_count for partition in self.partitions)

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    def add_listener(self, listener: TableListener) -> None:
        """Register a mutation listener (used by PatchIndex maintenance)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: TableListener) -> None:
        self._listeners.remove(listener)

    def touch(self) -> None:
        """Advance :attr:`data_version`."""
        self.data_version += 1

    def copy(self) -> "Table":
        """This table as of now: new partitions over the same column
        vectors and segment sources, and no listeners."""
        twin = copy.copy(self)
        twin.partitions = [partition.copy() for partition in self.partitions]
        twin._listeners = []
        return twin

    def _notify(self, event: str, payload: dict) -> None:
        try:
            for listener in self._listeners:
                listener(event, payload)
        finally:
            # After the listeners: a plan built on half-maintained
            # patches must carry the old version, so it is stale.
            self.touch()

    # -- rowid bookkeeping -------------------------------------------------

    def _renumber(self) -> None:
        """Reassign dense base rowids after any partition size change."""
        base = 0
        for partition in self.partitions:
            partition.base_rowid = base
            base += partition.row_count

    def partition_of_rowid(self, rowid: int) -> Partition:
        """Return the partition owning the global *rowid*."""
        for partition in self.partitions:
            start, stop = partition.rowid_range
            if start <= rowid < stop:
                return partition
        raise StorageError(f"rowid {rowid} out of range for table {self.name!r}")

    # -- bulk load ---------------------------------------------------------

    def load_columns(
        self,
        columns: Mapping[str, ColumnVector],
        partition_by_round_robin_blocks: bool = False,
    ) -> None:
        """Bulk-load rows, splitting them across partitions.

        By default rows are range-split: partition ``k`` receives the
        ``k``-th contiguous slice.  This preserves insertion order inside
        each partition, which is what makes per-partition NSC discovery
        meaningful (paper §VI-A2: sorted subsequences are computed per
        partition).  Round-robin block distribution is available for
        workloads that want size balance over order locality.
        """
        total: int | None = None
        for field in self.schema:
            if field.name not in columns:
                raise SchemaError(f"load missing column {field.name!r}")
            if total is None:
                total = len(columns[field.name])
            elif len(columns[field.name]) != total:
                raise StorageError("load columns have differing lengths")
        if total is None or total == 0:
            return

        count = self.partition_count
        with self.state_lock:
            if partition_by_round_robin_blocks:
                assignments = (
                    np.arange(total) // self.block_size % count
                ).astype(np.int64)
                slices = [np.flatnonzero(assignments == k) for k in range(count)]
                for partition, indices in zip(self.partitions, slices):
                    if len(indices) == 0:
                        continue
                    partition.append(
                        {
                            name: column.take(indices)
                            for name, column in columns.items()
                        }
                    )
            else:
                bounds = np.linspace(0, total, count + 1).astype(np.int64)
                for partition, start, stop in zip(
                    self.partitions, bounds[:-1], bounds[1:]
                ):
                    if start == stop:
                        continue
                    partition.append(
                        {
                            name: column.slice(int(start), int(stop))
                            for name, column in columns.items()
                        }
                    )
            self._renumber()
            self._notify(
                "load",
                {
                    "table": self.name,
                    "columns": dict(columns),
                    "row_count": total,
                    "round_robin": partition_by_round_robin_blocks,
                },
            )

    @classmethod
    def from_pydict(
        cls,
        name: str,
        schema: Schema,
        data: Mapping[str, Sequence[object]],
        partition_count: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "Table":
        """Build and load a table from Python lists (tests / examples)."""
        table = cls(name, schema, partition_count, block_size)
        columns = {
            field.name: ColumnVector.from_pylist(field.dtype, list(data[field.name]))
            for field in schema
        }
        table.load_columns(columns)
        return table

    # -- incremental mutation ----------------------------------------------

    def insert_rows(self, rows: Iterable[Sequence[object]]) -> int:
        """Append Python-level rows; returns the number inserted.

        Rows are appended to the *last* partition so that existing global
        rowids remain stable (appends only extend the rowid space).  The
        mutation event carries the new rows so PatchIndexes can extend
        their patch sets without a full rescan.
        """
        materialized = [list(row) for row in rows]
        if not materialized:
            return 0
        width = len(self.schema)
        for row in materialized:
            if len(row) != width:
                raise SchemaError(
                    f"insert row has {len(row)} values, schema has {width}"
                )
        columns = {
            field.name: ColumnVector.from_pylist(
                field.dtype, [row[position] for row in materialized]
            )
            for position, field in enumerate(self.schema)
        }
        with self.state_lock:
            target = self.partitions[-1]
            start_rowid = target.base_rowid + target.row_count
            target.append(columns)
            # Appending to the last partition keeps all earlier base rowids
            # valid; no renumbering required.
            self._notify(
                "append",
                {
                    "table": self.name,
                    "partition_id": target.partition_id,
                    "start_rowid": start_rowid,
                    "columns": columns,
                    "row_count": len(materialized),
                },
            )
        return len(materialized)

    def delete_rowids(self, rowids: Iterable[int]) -> int:
        """Delete rows by global rowid; returns the number removed.

        Remaining rows are renumbered densely.  Listeners receive the
        sorted deleted rowids (in the *old* numbering) so PatchIndexes can
        remap their patch sets (paper §VIII outlook).
        """
        doomed = np.unique(np.fromiter(rowids, dtype=np.int64))
        if len(doomed) == 0:
            return 0
        removed = 0
        per_partition: list[tuple[int, np.ndarray]] = []
        with self.state_lock:
            if doomed[0] < 0 or doomed[-1] >= self.row_count:
                raise StorageError("delete rowid out of range")
            for partition in self.partitions:
                start, stop = partition.rowid_range
                local = doomed[(doomed >= start) & (doomed < stop)] - start
                per_partition.append((partition.partition_id, local))
                if len(local) == 0:
                    continue
                keep = np.ones(partition.row_count, dtype=np.bool_)
                keep[local] = False
                partition.replace_rows(keep)
                removed += len(local)
            self._renumber()
            self._notify(
                "delete",
                {
                    "table": self.name,
                    "rowids": doomed,
                    "per_partition": per_partition,
                },
            )
        return removed

    def update_rowid(self, rowid: int, column: str, value: object) -> None:
        """Point-update a single cell (exceptional path in a column store).

        Copy-on-write: the owning partition gets a new column vector with
        the cell changed, so a snapshot sharing the old one keeps it.
        Listeners receive an ``update`` event so PatchIndexes can
        re-classify the row.
        """
        from repro.types.datatypes import coerce_scalar, numpy_dtype

        with self.state_lock:
            partition = self.partition_of_rowid(rowid)
            local = rowid - partition.base_rowid
            vector = partition.column(column)
            field = self.schema.field(column)
            old_value = vector[local]
            coerced = coerce_scalar(value, field.dtype)
            values = vector.values.copy()
            validity = vector.validity
            if coerced is None:
                if validity is None:
                    validity = np.ones(len(vector), dtype=np.bool_)
                else:
                    validity = validity.copy()
                validity[local] = False
            else:
                if validity is not None:
                    validity = validity.copy()
                    validity[local] = True
                if values.dtype == np.dtype(object):
                    # np.asarray would wrap the string in a 0-d object array.
                    values[local] = coerced
                else:
                    values[local] = np.asarray(
                        coerced, dtype=numpy_dtype(field.dtype)
                    )
            partition.replace_column(
                column, ColumnVector(field.dtype, values, validity)
            )
            self._notify(
                "update",
                {
                    "table": self.name,
                    "rowid": rowid,
                    "partition_id": partition.partition_id,
                    "column": column,
                    "value": value,
                    "old_value": old_value,
                },
            )

    # -- whole-column access -------------------------------------------------

    def read_column(self, name: str) -> ColumnVector:
        """Materialize a full column across partitions in rowid order."""
        self.schema.field(name)
        return ColumnVector.concat(
            [partition.column(name) for partition in self.partitions]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Table({self.name!r}, rows={self.row_count}, "
            f"partitions={self.partition_count})"
        )
