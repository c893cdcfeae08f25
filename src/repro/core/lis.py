"""Longest sorted (non-decreasing) subsequence, one step per sorted run.

NSC discovery (paper §IV) computes the *longest sorted subsequence* of a
column with the classic patience-sorting / binary-search algorithm
attributed to Fredman (1975): for every prefix length ``k`` the
algorithm maintains the smallest possible tail value of a sorted
subsequence of length ``k``, plus predecessor links to reconstruct one
maximum-length subsequence.  Inverting the selected positions yields a
*minimum* set of patches.

The paper's premise is that the column is *nearly* sorted, so the
numeric kernel does not pay a Python step per row: it cuts the input
into maximal sorted runs with one vectorized comparison and places a
whole run in the tails with one ``searchsorted`` and one running
maximum — the classic algorithm simulated a run at a time, returning
the positions the per-row loop returns.  Cost is ``O(n)`` NumPy work
plus ``O(r log n)`` for ``r`` runs; runs too short to repay a batched
step take the classic one, so the worst case (``r ≈ n``) stays
Fredman's ``O(n log n)``.

The paper's order relation ``⊲`` is arbitrary; we support ascending and
descending, strict and non-strict variants; a string column runs on
its dense codes, which keep every comparison.  The default matches the
paper's evaluation ("we focused on discovering ascending orders") with
duplicates allowed (non-strict), since equal neighboring values do not
violate a sortedness guarantee used by MergeJoin/MergeUnion.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Runs shorter than this take the classic per-element step: a batched
#: step is a dozen NumPy calls whatever the run length (~5 µs), a scalar
#: step ~1 µs.  Measured, not tunable (cut-over table in EXPERIMENTS.md,
#: Figure 6: batched / scalar is 1.17 at run length 4, 0.86 at 5).
BATCH_MIN_RUN = 5


class SortedSubsequence(NamedTuple):
    """One longest sorted subsequence, and what finding it took."""

    #: Positions of the subsequence in the input, ascending (int64).
    positions: np.ndarray
    #: Sorted runs the input was cut into (0 for empty input).
    runs: int
    #: Elements placed by the classic one-at-a-time step.
    scalar_steps: int


def longest_sorted_subsequence_indices(
    values: np.ndarray,
    ascending: bool = True,
    strict: bool = False,
) -> np.ndarray:
    """Return positions (sorted, int64) of one longest sorted subsequence.

    Parameters
    ----------
    values:
        One-dimensional array.  Any dtype with a total order works,
        including ``object`` arrays of strings, which run on their
        dense codes.
    ascending:
        Direction of the order relation.
    strict:
        When True, require strictly increasing (or decreasing) values;
        when False (default), allow equal consecutive values.

    Notes
    -----
    ``O(n)`` NumPy work plus ``O(r log n)`` for the ``r`` sorted runs
    (worst case ``O(n log n)``), ``O(n)`` space; object input adds the
    stable sort that codes it.  Ties in length are
    broken toward the lexicographically earliest positions that the
    classic algorithm produces.
    """
    return longest_sorted_subsequence(values, ascending, strict).positions


def longest_sorted_subsequence(
    values: np.ndarray, ascending: bool = True, strict: bool = False
) -> SortedSubsequence:
    """:func:`longest_sorted_subsequence_indices` with its step counts."""
    if len(values) == 0:
        return SortedSubsequence(np.empty(0, dtype=np.int64), 0, 0)
    if values.dtype == np.dtype(object):
        values = _dense_codes(values)
    # Descending is ascending over an order-reversing transform.
    return _lis_numeric(values if ascending else _negate(values), strict=strict)


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Integer codes keeping every <, = and > between *values*: the
    ranks of the distinct values (what ``np.unique(values,
    return_inverse=True)`` returns).  A stable sort finds them, which
    costs a nearly sorted column little more than one pass."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    codes = np.empty(len(values), dtype=np.int64)
    codes[order] = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return codes


def _negate(values: np.ndarray) -> np.ndarray:
    """Return an order-reversing transform of a numeric array.

    ``~v`` for booleans and every integer kind: exact and
    order-reversing for signed and unsigned alike, where ``-v`` wraps
    at the most negative value and has no unsigned counterpart.
    """
    return ~values if values.dtype.kind in "biu" else -values


def _lis_numeric(values: np.ndarray, strict: bool) -> SortedSubsequence:
    """Patience algorithm over a NumPy tails buffer, one step per run.

    A run ``v_1 ≤ … ≤ v_m`` is placed in one step: with ``p`` the slots
    the *current* tails assign its elements, element ``i`` lands at
    ``max(p_i, slot_{i-1} + 1)`` — everything at or left of the previous
    element's slot is now ≤ it, everything right of it is untouched —
    which is a running maximum of ``p - i``.  Tails, links and returned
    positions are therefore the per-element algorithm's.  Runs shorter
    than :data:`BATCH_MIN_RUN` take that algorithm's step.
    """
    n = len(values)
    # A boundary is "not ordered", never "next < prev": a NaN compares
    # False both ways, so it ends its run and is placed on its own.
    ordered = values[:-1] < values[1:] if strict else values[:-1] <= values[1:]
    starts = np.concatenate(([0], np.flatnonzero(~ordered) + 1))
    stops = np.concatenate((starts[1:], [n]))
    batched = stops - starts >= BATCH_MIN_RUN
    scalar_steps = n - int((stops - starts)[batched].sum())

    tails = np.empty(n, dtype=values.dtype)
    # tail_positions[k] = index into `values` of the element currently
    # ending the best subsequence of length k+1.
    tail_positions = np.empty(n, dtype=np.int64)
    predecessors = np.full(n, -1, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    side = "left" if strict else "right"

    def place_one_by_one(lo: int, hi: int, length: int) -> int:
        for position in range(lo, hi):
            value = values[position]
            slot = int(tails[:length].searchsorted(value, side))
            tails[slot] = value
            tail_positions[slot] = position
            if slot > 0:
                predecessors[position] = tail_positions[slot - 1]
            if slot == length:
                length += 1
        return length

    length = 0
    placed = 0
    for start, stop in zip(starts[batched].tolist(), stops[batched].tolist()):
        length = place_one_by_one(placed, start, length)
        run = values[start:stop]
        offsets = positions[: stop - start]
        slots = tails[:length].searchsorted(run, side) - offsets
        np.maximum.accumulate(slots, out=slots)
        slots += offsets
        tails[slots] = run
        tail_positions[slots] = positions[start:stop]
        # Read after the write: slot - 1 holds either the run's previous
        # element or a tail no element of this run has touched.
        predecessors[start:stop] = tail_positions[slots - 1]
        if slots[0] == 0:
            predecessors[start] = -1
        length = max(length, int(slots[-1]) + 1)
        placed = stop
    length = place_one_by_one(placed, n, length)
    return SortedSubsequence(
        _reconstruct(predecessors, int(tail_positions[length - 1]), length),
        runs=len(starts),
        scalar_steps=scalar_steps,
    )


def _reconstruct(
    predecessors: np.ndarray, last_position: int, length: int
) -> np.ndarray:
    """Walk predecessor links backwards and return positions ascending.

    One step per *jump*: a stretch of links to the position just before
    (``predecessors[q] == q - 1``, what a kept run looks like) is copied
    as a range down to the first position whose link goes elsewhere.
    """
    positions = np.arange(len(predecessors), dtype=np.int64)
    jumps = predecessors != positions - 1
    jumps[0] = True  # -1 is the chain's end, not a link to "position -1"
    # stretch_start[q]: the nearest position <= q whose link is a jump.
    stretch_start = np.maximum.accumulate(np.where(jumps, positions, 0))
    out = np.empty(length, dtype=np.int64)
    position = last_position
    filled = length
    while filled > 0:
        first = int(stretch_start[position])
        count = position - first + 1
        out[filled - count : filled] = positions[first : position + 1]
        filled -= count
        position = int(predecessors[first])
    return out


def longest_sorted_subsequence_length(
    values: np.ndarray, ascending: bool = True, strict: bool = False
) -> int:
    """Length of the longest sorted subsequence (no reconstruction)."""
    return len(
        longest_sorted_subsequence_indices(values, ascending=ascending, strict=strict)
    )
