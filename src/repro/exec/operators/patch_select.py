"""The PatchSelect operator — heart of the PatchedScan (paper §VI-A).

PatchSelect sits *directly* on top of a table scan and splits its
dataflow by patch membership:

- mode ``EXCLUDE_PATCHES`` passes only tuples **not** in ``P_c``
  (the constraint-satisfying majority), and
- mode ``USE_PATCHES`` passes only tuples **in** ``P_c``.

Placement directly above the scan guarantees that incoming batch rowids
equal tuple identifiers (no intermediate operator has filtered rows), so
the operator never needs to scan a tuple-identifier column.  The
constructor enforces this placement.

Each mode reads the patch set the way its share of the table asks for:

- ``EXCLUDE_PATCHES`` keeps most rows, so the scan reads every covered
  row and the operator drops the patches with a membership mask per
  batch.  For the identifier design that is the **merge strategy**: the
  sorted patch array is merged against the contiguous batch rowids with
  two binary searches per batch (the patch pointer jumps instead of
  stepping); :func:`exclude_patches_scalar` is a literal, tuple-at-a-time
  transcription of the paper's Algorithm 1, kept as the reference the
  test suite cross-checks against.  For the bitmap design it is the
  **bitmap lookup**: slice the bitmap at the batch's rowid offset.
- ``USE_PATCHES`` keeps only the patches, so at open it hands the scan
  the patch rowids inside the scan's ranges
  (:meth:`PatchIndex.rowids_in_range`) and the scan gathers exactly those
  rows, reading only the blocks that hold one.  The table's other rows
  are never materialized.

Scan ranges compose either way: the mask is computed from absolute
rowids, and the gathered rowids are clipped to the ranges — the batched
analogue of "adjusting the patch pointer to skip patches outside the
ranges / computing an offset within the bitmap" (§VI-A3).

:class:`PatchCount` is a PatchSelect whose only consumer is ``COUNT(*)``
(the exclude branch of the COUNT(DISTINCT) rewrite): it reads no rows at
all, only the patch count inside the covered ranges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.operators.scan import TableScan, normalize_ranges
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.patch_index import PatchIndex


class PatchSelectMode(enum.Enum):
    """Selection modes of the PatchSelect operator (paper §VI-A1)."""

    USE_PATCHES = "use_patches"
    EXCLUDE_PATCHES = "exclude_patches"


@dataclass
class PatchSelectStats:
    """Opt-in execution counters for one PatchSelect instance.

    ``rows_in`` counts the rows the scan handed over: every covered row
    in ``EXCLUDE_PATCHES`` mode, only the gathered patches in
    ``USE_PATCHES`` mode.  ``patch_hits`` counts tuples that *are*
    patches regardless of mode — in ``USE_PATCHES`` mode those are the
    rows passed through, in ``EXCLUDE_PATCHES`` mode the rows filtered
    out.
    """

    rows_in: int = 0
    patch_hits: int = 0


class PatchSelect(Operator):
    """Filter a scan's dataflow by patch membership."""

    def __init__(
        self,
        child: Operator,
        index: "PatchIndex",
        mode: PatchSelectMode,
    ):
        if not isinstance(child, TableScan):
            raise PlanError(
                "PatchSelect must be placed directly on a TableScan so that "
                "batch rowids equal tuple identifiers"
            )
        if child.table is not index.table:
            raise PlanError(
                f"PatchSelect index {index.name!r} is defined on table "
                f"{index.table_name!r}, scan reads {child.table.name!r}"
            )
        self.child: TableScan = child
        self.index = index
        self.mode = mode
        #: Execution counters; ``None`` (the default) skips all
        #: bookkeeping so unprofiled queries pay a single identity check
        #: per batch.  Enabled by the profiler via :meth:`enable_stats`.
        self.stats: PatchSelectStats | None = None

    def enable_stats(self) -> PatchSelectStats:
        """Turn on per-batch counters (used by EXPLAIN ANALYZE)."""
        if self.stats is None:
            self.stats = PatchSelectStats()
        return self.stats

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[Operator]:
        return [self.child]

    def open(self) -> None:
        if self.mode == PatchSelectMode.USE_PATCHES:
            self.child.gather = patch_rowids(self.index, self.child.scan_ranges)
        super().open()

    def next_batch(self) -> RecordBatch | None:
        if self.mode == PatchSelectMode.USE_PATCHES:
            # The scan gathers only patch rows: pass them through.
            batch = self.child.next_batch()
            if batch is not None and self.stats is not None:
                self.stats.rows_in += len(batch)
                self.stats.patch_hits += len(batch)
            return batch
        while True:
            batch = self.child.next_batch()
            if batch is None:
                return None
            if len(batch) == 0:
                continue
            window = batch.contiguous_range
            if window is None:
                raise ExecutionError(
                    "PatchSelect received a non-contiguous batch; it must "
                    "be placed directly on a scan"
                )
            is_patch = self.index.mask_for_range(*window)
            if self.stats is not None:
                self.stats.rows_in += len(batch)
                self.stats.patch_hits += int(np.count_nonzero(is_patch))
            if is_patch.all():
                continue
            if not is_patch.any():
                return batch
            return batch.filter(~is_patch)

    def label(self) -> str:
        return (
            f"PatchSelect(mode={self.mode.value}, index={self.index.name}, "
            f"design={self.index.design})"
        )


class PatchCount(Operator):
    """``COUNT(*)`` over ``PatchSelect(TableScan)``, as a leaf.

    The count of the use-patches rows in the covered ranges is the
    number of patches there; of the exclude-patches rows, the covered
    rows minus that.  Neither needs a row: the distinct rewrite's
    exclude branch "skips the aggregation" (§VI-B1), and here the scan
    as well.  The count is taken from the index when the operator runs,
    so a plan built before a mutation still counts what its index holds
    at execution.
    """

    def __init__(
        self,
        table: Table,
        index: "PatchIndex",
        mode: PatchSelectMode,
        alias: str,
        scan_ranges: list[tuple[int, int]] | None = None,
    ):
        if table is not index.table:
            raise PlanError(
                f"PatchCount index {index.name!r} is defined on table "
                f"{index.table_name!r}, not {table.name!r}"
            )
        self.table = table
        self.index = index
        self.mode = mode
        self.scan_ranges = normalize_ranges(scan_ranges, table.row_count)
        self._schema = Schema([Field(alias, DataType.INT64, nullable=False)])
        self._done = True
        #: ``(covered rows, patches among them)`` of the last execution.
        self.counted: tuple[int, int] | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return []

    def open(self) -> None:
        self._done = False

    def counts(self) -> tuple[int, int]:
        """Covered rows and the patches among them, as of now."""
        if self.scan_ranges is None:
            return self.table.row_count, self.index.patch_count
        covered = sum(stop - start for start, stop in self.scan_ranges)
        return covered, len(patch_rowids(self.index, self.scan_ranges))

    def next_batch(self) -> RecordBatch | None:
        if self._done:
            return None
        self._done = True
        covered, patches = self.counted = self.counts()
        count = (
            patches
            if self.mode == PatchSelectMode.USE_PATCHES
            else covered - patches
        )
        vector = ColumnVector(DataType.INT64, np.array([count], dtype=np.int64))
        return RecordBatch(self._schema, {self._schema.names[0]: vector})

    def label(self) -> str:
        covered, patches = self.counts()
        ranges = (
            ""
            if self.scan_ranges is None
            else f", ranges={len(self.scan_ranges)}"
        )
        return (
            f"PatchCount(mode={self.mode.value}, index={self.index.name}, "
            f"table={self.table.name}{ranges}, covered={covered}, "
            f"patches={patches})"
        )


def patch_rowids(
    index: "PatchIndex", scan_ranges: list[tuple[int, int]] | None
) -> np.ndarray:
    """The index's patch rowids inside normalized *scan_ranges*
    (``None``: the whole table), ascending."""
    if scan_ranges is None:
        return index.rowids()
    pieces = [index.rowids_in_range(start, stop) for start, stop in scan_ranges]
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


# -- reference implementation of the paper's Algorithm 1 ------------------------


def exclude_patches_scalar(
    tuples: Iterable[tuple[int, object]],
    patch_rowids: np.ndarray,
) -> Iterator[tuple[int, object]]:
    """Tuple-at-a-time ``ExcludePatches.Next`` (paper Algorithm 1).

    *tuples* is an iterator of ``(rowid, value)`` pairs in rowid order;
    *patch_rowids* is the sorted identifier array of the patch set.
    Yields the tuples whose rowid is not a patch.  This is the literal
    merge strategy with a patch pointer; the test suite uses it as the
    oracle for the vectorized operator.
    """
    stream = iter(tuples)
    patch_pointer = 0
    num_patches = len(patch_rowids)
    processed_tuples = 0
    while True:
        try:
            item = next(stream)
        except StopIteration:
            return
        if patch_pointer >= num_patches:
            yield item
            continue
        next_patch_id = int(patch_rowids[patch_pointer])
        processed_tuples += 1
        if processed_tuples - 1 < next_patch_id:
            yield item
        else:
            # processed_tuples - 1 == next_patch_id
            patch_pointer += 1


def use_patches_scalar(
    tuples: Iterable[tuple[int, object]],
    patch_rowids: np.ndarray,
) -> Iterator[tuple[int, object]]:
    """Tuple-at-a-time ``UsePatches.Next`` — Algorithm 1 with the
    conditions exchanged (paper §VI-A1)."""
    stream = iter(tuples)
    patch_pointer = 0
    num_patches = len(patch_rowids)
    processed_tuples = 0
    while True:
        try:
            item = next(stream)
        except StopIteration:
            return
        if patch_pointer >= num_patches:
            # All patches processed: nothing further qualifies.
            return
        next_patch_id = int(patch_rowids[patch_pointer])
        processed_tuples += 1
        if processed_tuples - 1 == next_patch_id:
            patch_pointer += 1
            yield item
