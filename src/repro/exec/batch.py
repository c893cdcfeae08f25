"""Record batches: the unit of dataflow between physical operators.

A batch is a set of equal-length column vectors plus (optionally) the
global rowids of its rows.  Rowids flow out of scans and through
rowid-preserving operators (PatchSelect, Filter); operators that create
new rows (joins, aggregates, sorts across batches) drop them.

The PatchSelect operator relies on scan batches being *contiguous* in
rowid space — the paper's assumption that "rowIDs of incoming tuples are
equal to tuple identifiers" when the operator sits directly on a scan
(§VI-A1).  :attr:`RecordBatch.contiguous_range` exposes exactly that.
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
    """Equal-length named column vectors, optionally carrying rowids."""

    __slots__ = ("schema", "columns", "rowids")

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, ColumnVector],
        rowids: np.ndarray | None = None,
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
        if length is None:
            length = 0 if rowids is None else len(rowids)
        if rowids is not None and len(rowids) != length:
            raise ExecutionError("batch rowids length mismatch")
        self.rowids = rowids

    @classmethod
    def empty(cls, schema: Schema) -> "RecordBatch":
        """A zero-row batch of *schema*."""
        return cls(
            schema, {field.name: ColumnVector.empty(field.dtype) for field in schema}
        )

    def __len__(self) -> int:
        for vector in self.columns.values():
            return len(vector)
        return 0 if self.rowids is None else len(self.rowids)

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"unknown column in batch: {name!r}") from None

    @property
    def contiguous_range(self) -> tuple[int, int] | None:
        """``(start, stop)`` when rowids are a dense ascending run, else None."""
        if self.rowids is None or len(self.rowids) == 0:
            return None
        start = int(self.rowids[0])
        stop = int(self.rowids[-1]) + 1
        if stop - start == len(self.rowids):
            return (start, stop)
        return None

    # -- transforms ------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        """Row-filter every column (and the rowids) by a boolean mask."""
        columns = {
            name: vector.filter(mask) for name, vector in self.columns.items()
        }
        rowids = None if self.rowids is None else self.rowids[mask]
        return RecordBatch(self.schema, columns, rowids)

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Gather rows by integer position."""
        columns = {
            name: vector.take(indices) for name, vector in self.columns.items()
        }
        rowids = None if self.rowids is None else self.rowids[indices]
        return RecordBatch(self.schema, columns, rowids)

    def project(self, names: list[str]) -> "RecordBatch":
        """Keep only the named columns (rowids preserved)."""
        schema = self.schema.select(names)
        return RecordBatch(
            schema, {name: self.column(name) for name in names}, self.rowids
        )

    def drop_rowids(self) -> "RecordBatch":
        if self.rowids is None:
            return self
        return RecordBatch(self.schema, self.columns, None)

    @classmethod
    def concat(cls, batches: list["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches of identical schema."""
        if not batches:
            raise ExecutionError("cannot concat zero batches")
        schema = batches[0].schema
        columns = {
            field.name: ColumnVector.concat(
                [batch.column(field.name) for batch in batches]
            )
            for field in schema
        }
        if all(batch.rowids is not None for batch in batches):
            rowids = np.concatenate([batch.rowids for batch in batches])
        else:
            rowids = None
        return cls(schema, columns, rowids)

    def to_pydict(self) -> dict[str, list[object]]:
        """Materialize as Python lists keyed by column name."""
        return {
            field.name: self.column(field.name).to_pylist()
            for field in self.schema
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(rows={len(self)}, cols={list(self.columns)})"
