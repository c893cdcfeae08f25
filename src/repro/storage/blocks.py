"""Per-block min/max sketches ("small materialized aggregates").

The paper's scan operators determine scan ranges from selection
predicates using small materialized aggregates (Moerkotte, VLDB '98).
This module computes and stores per-block minimum / maximum / null-count
statistics for each column of a partition, and evaluates simple
comparison predicates against them to prune whole blocks.

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
    NULLs (then nothing can be said about its value range).  They leave
    out NaN, which compares false with everything; a NaN bound (a block
    of NaN only, or a header written before NaN was left out) means the
    range is unknown, and the block is never pruned.
    """

    start: int
    stop: int
    minimum: object | None
    maximum: object | None
    null_count: int

    @property
    def row_count(self) -> int:
        return self.stop - self.start

    def may_contain(self, op: str, literal: object) -> bool:
        """Conservatively decide whether any row can satisfy ``col <op> literal``.

        Returns True when the block must be scanned.  NULL rows never
        satisfy a comparison predicate, so an all-NULL block is prunable.
        """
        if self.minimum is None or self.maximum is None:
            return False
        if self.minimum != self.minimum or self.maximum != self.maximum:
            return True  # a NaN bound: unknown range
        if op == "=":
            return self.minimum <= literal <= self.maximum
        if op == "<":
            return self.minimum < literal
        if op == "<=":
            return self.minimum <= literal
        if op == ">":
            return self.maximum > literal
        if op == ">=":
            return self.maximum >= literal
        if op in ("!=", "<>"):
            # Only prunable when the whole block equals the literal; a
            # float block may also hold a NaN, which the bounds leave
            # out and which differs from every literal.
            return isinstance(self.minimum, float) or not (
                self.minimum == self.maximum == literal
            )
        # Unknown operator: never prune.
        return True


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


def prune_blocks(
    stats: list[BlockStats], op: str, literal: object
) -> list[tuple[int, int]]:
    """Evaluate a comparison against block stats and return surviving ranges.

    Adjacent surviving blocks are coalesced into maximal ``[start, stop)``
    ranges so the scan produces few, large ranges.
    """
    ranges: list[tuple[int, int]] = []
    for block in stats:
        if not block.may_contain(op, literal):
            continue
        if ranges and ranges[-1][1] == block.start:
            ranges[-1] = (ranges[-1][0], block.stop)
        else:
            ranges.append((block.start, block.stop))
    return ranges
