"""Morsel dispatch: split a table scan into parallel work units.

A *morsel* is a small set of contiguous global rowid ranges that one
worker processes as a unit.  Morsels obey the invariants the
PatchSelect operator depends on:

- a morsel never crosses a partition boundary, so batch rowids stay
  contiguous tuple identifiers within each fragment (paper §VI-A1);
- morsel boundaries fall between rowids, never inside one — every
  rowid of the covered ranges lands in exactly one morsel;
- range boundaries align to the block grid where possible
  (:meth:`repro.storage.partition.Partition.morsel_ranges`), keeping
  the per-block min/max sketches usable inside fragments.

When scan-range pruning already restricted the scan, morsels are carved
from the *surviving* ranges only; several small pruned ranges within a
partition coalesce into one morsel so dispatch overhead tracks real row
counts, not range counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.operators.scan import normalize_ranges
from repro.storage.table import Table

#: Target rows per morsel.  Large enough that the per-morsel dispatch
#: cost (one pool task, one operator-tree instantiation) is amortized
#: over many 16K-row batches, small enough that a handful of workers
#: load-balance a multi-million-row scan.
DEFAULT_MORSEL_SIZE = 1 << 18


@dataclass(frozen=True)
class Morsel:
    """One parallel work unit: ordered disjoint global rowid ranges."""

    ranges: tuple[tuple[int, int], ...]

    @property
    def rows(self) -> int:
        return sum(stop - start for start, stop in self.ranges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Morsel(ranges={len(self.ranges)}, rows={self.rows})"


def morsels_for_table(
    table: Table,
    scan_ranges: list[tuple[int, int]] | None = None,
    morsel_size: int = DEFAULT_MORSEL_SIZE,
) -> list[Morsel]:
    """Split a table's (possibly range-restricted) scan into morsels.

    The returned morsels cover exactly the rowids of *scan_ranges*
    (the whole table when ``None``), in ascending rowid order, with
    every covered rowid in exactly one morsel.
    """
    requested = normalize_ranges(
        list(scan_ranges) if scan_ranges is not None else None,
        table.row_count,
    )
    if requested is None:
        requested = [(0, table.row_count)]
    morsels: list[Morsel] = []
    for partition in table.partitions:
        p_start, __ = partition.rowid_range
        pending: list[tuple[int, int]] = []
        pending_rows = 0
        for local_lo, local_hi in partition.morsel_ranges(morsel_size):
            chunk_lo = p_start + local_lo
            chunk_hi = p_start + local_hi
            for r_lo, r_hi in requested:
                lo = max(chunk_lo, r_lo)
                hi = min(chunk_hi, r_hi)
                if lo >= hi:
                    continue
                if pending and pending[-1][1] == lo:
                    pending[-1] = (pending[-1][0], hi)
                else:
                    pending.append((lo, hi))
                pending_rows += hi - lo
                if pending_rows >= morsel_size:
                    morsels.append(Morsel(tuple(pending)))
                    pending = []
                    pending_rows = 0
        # Flush the partition's remainder: morsels never span partitions.
        if pending:
            morsels.append(Morsel(tuple(pending)))
    return morsels


def validate_morsels(morsels: list[Morsel], table: Table | None = None) -> None:
    """Check the morsel invariants this module promises.

    The plan verifier calls this on every parallel-terminal boundary:
    morsel ranges must be ascending and disjoint, consecutive morsels
    must stay in ascending rowid order (the terminals gather partials in
    submission order and equate it with rowid order), and — when
    *table* is known — no morsel may cross a partition boundary, which
    is what keeps batch rowids usable as tuple identifiers inside a
    fragment's PatchSelect.

    Raises :class:`~repro.errors.PlanInvariantError` (rule
    ``exchange-ordering``) on the first violation.
    """
    from repro.errors import PlanInvariantError

    previous_stop = None
    for number, morsel in enumerate(morsels):
        if not morsel.ranges:
            raise PlanInvariantError(
                "exchange-ordering", f"morsel {number} has no ranges"
            )
        for start, stop in morsel.ranges:
            if start >= stop:
                raise PlanInvariantError(
                    "exchange-ordering",
                    f"morsel {number} has empty/inverted range "
                    f"[{start}, {stop})",
                )
            if previous_stop is not None and start < previous_stop:
                raise PlanInvariantError(
                    "exchange-ordering",
                    f"morsel {number} range [{start}, {stop}) overlaps or "
                    f"precedes rowid {previous_stop}; morsels must be "
                    "disjoint and ascending for the ordered gather",
                )
            previous_stop = stop
        if table is not None:
            lo = morsel.ranges[0][0]
            hi = morsel.ranges[-1][1]
            if hi > table.row_count:
                raise PlanInvariantError(
                    "exchange-ordering",
                    f"morsel {number} exceeds table "
                    f"{table.name!r} ({hi} > {table.row_count} rows)",
                )
            partition = table.partition_of_rowid(lo)
            p_start, p_stop = partition.rowid_range
            if hi > p_stop:
                raise PlanInvariantError(
                    "exchange-ordering",
                    f"morsel {number} spans partition boundary at rowid "
                    f"{p_stop} of table {table.name!r}; batch rowids would "
                    "stop being contiguous tuple identifiers",
                )
