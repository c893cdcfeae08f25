"""Per-block min/max sketches ("small materialized aggregates").

The paper's scan operators determine scan ranges from selection
predicates using small materialized aggregates (Moerkotte, VLDB '98).
This module computes and stores per-block minimum / maximum / null-count
statistics for each column of a partition (:class:`BlockStats`), and
stacks one column's sketches over a whole table into arrays
(:class:`BlockSketch`), so that a scan weighs a predicate against every
block with one vectorized compare
(:func:`repro.exec.operators.scan.pruned_ranges`).

A *block* is a fixed-size run of consecutive rows inside one partition.
Pruning yields rowid *scan ranges* which the PatchedScan later merges
with the patch information (paper §VI-A3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.column import ColumnVector

DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class BlockStats:
    """Min/max/null statistics for one column over one block of rows.

    ``minimum``/``maximum`` are ``None`` when the block contains only
    NULLs: no row of it satisfies a comparison, so it is always pruned.
    They leave out NaN, which compares false with everything; a NaN
    bound (a block of NaN only, or a header written before NaN was left
    out) means the range is unknown, and the block is never pruned.
    """

    start: int
    stop: int
    minimum: object | None
    maximum: object | None
    null_count: int

    @property
    def row_count(self) -> int:
        return self.stop - self.start


def block_stats(column: ColumnVector, start: int, stop: int) -> BlockStats:
    """The :class:`BlockStats` of rows ``[start, stop)`` of *column*."""
    chunk = column.slice(start, stop)
    if chunk.validity is None:
        valid_values = chunk.values
        nulls = 0
    else:
        valid_values = chunk.values[chunk.validity]
        nulls = int((~chunk.validity).sum())
    if len(valid_values) == 0:
        return BlockStats(start, stop, None, None, nulls)
    if valid_values.dtype == np.dtype(object):
        minimum: object = min(valid_values)
        maximum: object = max(valid_values)
    else:
        minimum = valid_values.min().item()
        if minimum != minimum:  # a NaN: bound the other values
            finite = valid_values[~np.isnan(valid_values)]
            if len(finite):
                valid_values = finite
                minimum = valid_values.min().item()
        maximum = valid_values.max().item()
    return BlockStats(start, stop, minimum, maximum, nulls)


def compute_block_stats(
    column: ColumnVector, block_size: int = DEFAULT_BLOCK_SIZE
) -> list[BlockStats]:
    """Compute :class:`BlockStats` for every block of *column*.

    The ``start``/``stop`` offsets are partition-local row offsets;
    callers translate them to global rowids by adding the partition's
    base rowid.
    """
    total = len(column)
    return [
        block_stats(column, start, min(start + block_size, total))
        for start in range(0, total, block_size)
    ]


#: One partition's sketches of a column and the partition's base rowid.
SketchSource = tuple[list[BlockStats], int]


class BlockSketch:
    """One column's :class:`BlockStats` over a whole table, as arrays.

    Entry ``i`` is the table's ``i``-th block in rowid order: its global
    rowids ``spans[i]``, whether its bounds ``low[i]`` / ``high[i]`` can
    be compared (``known``: it holds a non-NULL value, and no bound is
    NaN; a filler stands in otherwise) and whether it is one of the
    blocks with a NaN bound (``unknown``), which no compare may prune.
    The four are fields of one record array, so a restack concatenates
    once.  Every column of a table shares one block grid, so the masks
    of two columns' sketches combine element by element.
    """

    __slots__ = (
        "spans", "records", "sources", "low", "high", "known", "unknown",
        "all_known",
    )

    def __init__(
        self,
        spans: list[tuple[int, int]],
        records: np.ndarray,
        sources: tuple[SketchSource, ...],
    ):
        self.spans = spans
        self.records = records
        #: The stacked lists, by partition: a sketch describes a table
        #: while every partition still holds these very lists.
        self.sources = sources
        self.low: np.ndarray = records["low"]
        self.high: np.ndarray = records["high"]
        self.known: np.ndarray = records["known"]
        self.unknown: np.ndarray = records["unknown"]
        #: Every block is known (no NULL-only block, no NaN bound): a
        #: compare's mask needs no correction.
        self.all_known = bool(self.known.all())

    def describes(self, sources: tuple[SketchSource, ...]) -> bool:
        return len(sources) == len(self.sources) and all(
            stats is old and base == old_base
            for (stats, base), (old, old_base) in zip(sources, self.sources)
        )

    def ranges(self, keep: np.ndarray) -> list[tuple[int, int]]:
        """The rowid ranges of the blocks *keep* marks, adjacent blocks
        coalesced: sorted, disjoint and inside the table."""
        ranges: list[tuple[int, int]] = []
        for block in keep.nonzero()[0].tolist():
            start, stop = self.spans[block]
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], stop)
            else:
                ranges.append((start, stop))
        return ranges


def stack_sketches(
    sources: tuple[SketchSource, ...],
    dtype: np.dtype,
    previous: BlockSketch | None = None,
) -> BlockSketch:
    """The :class:`BlockSketch` of *sources*, whose bounds have *dtype*.

    The leading blocks that *previous* stacked from the very same
    :class:`BlockStats` objects at the same base rowids are kept as they
    are: after an append (to the last partition) only the blocks past
    its last full one are converted, as
    :meth:`repro.storage.partition.Partition.block_stats` only computes
    those.
    """
    kept = 0
    if previous is not None:
        for (stats, base), (old, old_base) in zip(sources, previous.sources):
            if base != old_base:
                break
            if stats is old:
                kept += len(stats)
                continue
            for block, was in zip(stats, old):
                if block is not was:
                    break
                kept += 1
            break
    tail: list[tuple[int, BlockStats]] = []
    skip = kept
    for stats, base in sources:
        tail.extend((base, block) for block in stats[skip:])
        skip = max(0, skip - len(stats))
    record = _RECORDS.get(dtype)
    if record is None:
        record = _RECORDS[dtype] = np.dtype(
            [("low", dtype), ("high", dtype), ("known", np.bool_), ("unknown", np.bool_)]
        )
    filler = "" if dtype.kind == "O" else dtype.type(0)
    spans = [(base + block.start, base + block.stop) for base, block in tail]
    records = np.array([_record(block, filler) for __, block in tail], dtype=record)
    if kept and previous is not None:
        spans = previous.spans[:kept] + spans
        records = np.concatenate((previous.records[:kept], records))
    return BlockSketch(spans, records, sources)


#: The record dtype of a sketch, by the dtype of its bounds.
_RECORDS: dict[np.dtype, np.dtype] = {}


def _record(block: BlockStats, filler: object) -> tuple[object, object, bool, bool]:
    """``(low, high, known, unknown)`` of one block; *filler* stands in
    for bounds that cannot be compared."""
    low, high = block.minimum, block.maximum
    if low is None:
        return filler, filler, False, False
    if low != low or high != high:  # a NaN bound
        return filler, filler, False, True
    return low, high, True, False
