"""Record batches: the unit of dataflow between physical operators.

A batch is a set of equal-length column vectors plus (optionally) the
global rowids of its rows.  Rowids flow out of scans and through
rowid-preserving operators (PatchSelect, Filter); operators that create
new rows (joins, aggregates, sorts across batches) drop them.

The PatchSelect operator relies on scan batches being *contiguous* in
rowid space — the paper's assumption that "rowIDs of incoming tuples are
equal to tuple identifiers" when the operator sits directly on a scan
(§VI-A1).  :attr:`RecordBatch.contiguous_range` exposes exactly that.

A range scan does not build its batches' rowids.  It hands each batch
the ``(start, stop)`` *window* it read, which ``contiguous_range``
returns as it is.  A filter keeps the window and a boolean mask of the
rows it kept instead of copying rowids.  The int64 array is built only
when something reads :attr:`RecordBatch.rowids`, which on the hot paths
(scan → filter → aggregate, PatchSelect on a scan) nothing does.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ExecutionError, SchemaError
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema

# Vectorized engines typically use ~1K-row vectors to stay cache
# resident; NumPy kernels amortize their per-call overhead better with
# larger batches, so 16K keeps the *relative* operator costs realistic.
DEFAULT_BATCH_SIZE = 16384


class RecordBatch:
    """Equal-length named column vectors, optionally carrying rowids.

    Rowids come either as an array or as a *window*: the ``(start,
    stop)`` run a range scan read, kept with a boolean *keep* mask over
    it once a filter dropped rows.  A window builds its int64 array only
    when :attr:`rowids` is read.
    """

    __slots__ = ("schema", "columns", "_rowids", "_window", "_keep")

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, ColumnVector],
        rowids: np.ndarray | None = None,
        *,
        window: tuple[int, int] | None = None,
        keep: np.ndarray | None = None,
    ):
        self.schema = schema
        self.columns: dict[str, ColumnVector] = dict(columns)
        length: int | None = None
        for field in schema:
            if field.name not in self.columns:
                raise SchemaError(f"batch missing column {field.name!r}")
            vector = self.columns[field.name]
            if length is None:
                length = len(vector)
            elif len(vector) != length:
                raise ExecutionError("batch columns have differing lengths")
        if rowids is not None and window is not None:
            raise ExecutionError("batch rowids given both as array and window")
        if keep is not None and (window is None or len(keep) != window[1] - window[0]):
            raise ExecutionError("batch keep mask does not span its window")
        self._rowids = rowids
        self._window = window
        self._keep = keep
        carried = self._rowid_count()
        if length is not None and carried is not None and carried != length:
            raise ExecutionError("batch rowids length mismatch")

    @classmethod
    def empty(cls, schema: Schema) -> "RecordBatch":
        """A zero-row batch of *schema*."""
        return cls(
            schema, {field.name: ColumnVector.empty(field.dtype) for field in schema}
        )

    def __len__(self) -> int:
        for vector in self.columns.values():
            return len(vector)
        return self._rowid_count() or 0

    def _rowid_count(self) -> int | None:
        if self._rowids is not None:
            return len(self._rowids)
        if self._window is None:
            return None
        if self._keep is None:
            return self._window[1] - self._window[0]
        return int(np.count_nonzero(self._keep))

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"unknown column in batch: {name!r}") from None

    @property
    def rowids(self) -> np.ndarray | None:
        """Global rowids of the rows, or None; a window builds them here."""
        if self._rowids is None and self._window is not None:
            start, stop = self._window
            if self._keep is None:
                self._rowids = np.arange(start, stop, dtype=np.int64)
            else:
                self._rowids = np.flatnonzero(self._keep) + np.int64(start)
        return self._rowids

    @property
    def contiguous_range(self) -> tuple[int, int] | None:
        """``(start, stop)`` when rowids are a dense ascending run, else None."""
        if self._window is not None and self._keep is None:
            start, stop = self._window
            return (start, stop) if stop > start else None
        rowids = self.rowids
        if rowids is None or len(rowids) == 0:
            return None
        start = int(rowids[0])
        stop = int(rowids[-1]) + 1
        if stop - start == len(rowids):
            return (start, stop)
        return None

    # -- transforms ------------------------------------------------------

    def with_columns(
        self, schema: Schema, columns: Mapping[str, ColumnVector]
    ) -> "RecordBatch":
        """Other columns over the same rows, rowids (built or not) kept."""
        if self._rowids is not None:
            return RecordBatch(schema, columns, self._rowids)
        return RecordBatch(schema, columns, window=self._window, keep=self._keep)

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        """Row-filter every column (and the rowids) by a boolean mask."""
        columns = {
            name: vector.filter(mask) for name, vector in self.columns.items()
        }
        if self._rowids is not None or self._window is None:
            rowids = None if self._rowids is None else self._rowids[mask]
            return RecordBatch(self.schema, columns, rowids)
        if self._keep is None:
            keep = mask
        else:
            keep = self._keep.copy()
            keep[keep] = mask
        return RecordBatch(self.schema, columns, window=self._window, keep=keep)

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Gather rows by integer position."""
        columns = {
            name: vector.take(indices) for name, vector in self.columns.items()
        }
        rowids = self.rowids
        return RecordBatch(
            self.schema, columns, None if rowids is None else rowids[indices]
        )

    def project(self, names: list[str]) -> "RecordBatch":
        """Keep only the named columns (rowids preserved)."""
        return self.with_columns(
            self.schema.select(names), {name: self.column(name) for name in names}
        )

    @classmethod
    def concat(cls, batches: list["RecordBatch"]) -> "RecordBatch":
        """Concatenate the columns of batches of identical schema.

        The result carries no rowids: a concat feeds a blocking operator
        (:meth:`~repro.exec.operators.base.Operator.drain`), and those
        create new rows.
        """
        if not batches:
            raise ExecutionError("cannot concat zero batches")
        schema = batches[0].schema
        columns = {
            field.name: ColumnVector.concat(
                [batch.column(field.name) for batch in batches]
            )
            for field in schema
        }
        return cls(schema, columns)

    def to_pydict(self) -> dict[str, list[object]]:
        """Materialize as Python lists keyed by column name."""
        return {
            field.name: self.column(field.name).to_pylist()
            for field in self.schema
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(rows={len(self)}, cols={list(self.columns)})"
