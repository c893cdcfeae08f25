"""MergeUnion: combine two *sorted* dataflows into one sorted dataflow.

The sort rewrite (paper §VI-B2) replaces the plain union with a
MergeUnion: the ``exclude_patches`` branch is already sorted by the NSC
definition, and only the small ``use_patches`` branch was explicitly
sorted — merging the two keeps the output sorted without re-sorting the
majority.

The merge itself is vectorized: one ``searchsorted`` of the smaller
side's keys into the larger side's keys produces the interleaving
permutation in ``O(m log n + n)``, which preserves the asymptotic
advantage over re-sorting (``O(n log n)``).

It merges on exactly one key, the rewrite's, and orders as the Sort
operator does: values compared as stored, each side's NULL run placed
by position.  On equal keys the *left* input's rows are emitted first
(``side="right"`` in the search), making the merge deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.operators.sort import SortKey
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema


class MergeUnion(Operator):
    """Order-preserving union of two inputs sorted on one key."""

    def __init__(self, left: Operator, right: Operator, keys: list[SortKey]):
        if tuple(field.dtype for field in left.schema) != tuple(
            field.dtype for field in right.schema
        ):
            raise PlanError("merge-union inputs have mismatched column types")
        if len(keys) != 1:
            raise PlanError("merge-union takes exactly one sort key")
        self.left = left
        self.right = right
        self.keys = list(keys)
        self._schema = left.schema
        self._done = False

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def open(self) -> None:
        super().open()
        self._done = False

    def next_batch(self) -> RecordBatch | None:
        if self._done:
            return None
        self._done = True
        left = self.left.drain()
        right = self.right.drain()
        if right is not None and right.schema != self._schema:
            # The right branch may name its columns differently.
            right = RecordBatch(
                self._schema,
                {
                    field.name: right.column(original.name)
                    for field, original in zip(self._schema, right.schema)
                },
            )
        if left is None and right is None:
            return None
        if left is None:
            return right
        if right is None:
            return left
        key = self.keys[0]
        take_left, take_right = _merge_sides(
            left.column(key.column), right.column(key.column), key.ascending
        )
        columns = {
            field.name: _interleave(
                left.column(field.name),
                right.column(field.name),
                take_left,
                take_right,
            )
            for field in self._schema
        }
        return RecordBatch(self._schema, columns)

    def label(self) -> str:
        return f"MergeUnion({', '.join(str(key) for key in self.keys)})"


def _merge_sides(
    left: ColumnVector, right: ColumnVector, ascending: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Output positions of two sides sorted on one key, as Sort orders it.

    The values merge as stored.  Each side's NULL run (at its end, or
    its start when descending) goes after the merged values (before
    them when descending), the left side's run first.
    """
    if left.validity is None and right.validity is None:
        return _merge_values(left.values, right.values, ascending)
    left_nulls, right_nulls = left.null_count(), right.null_count()
    nulls = left_nulls + right_nulls
    if ascending:
        left_values = left.values[: len(left) - left_nulls]
        right_values = right.values[: len(right) - right_nulls]
        values_at, nulls_at = 0, len(left_values) + len(right_values)
    else:
        left_values = left.values[left_nulls:]
        right_values = right.values[right_nulls:]
        values_at, nulls_at = nulls, 0
    take_left, take_right = _merge_values(left_values, right_values, ascending)
    run = np.arange(nulls, dtype=np.int64) + nulls_at
    left_run, right_run = run[:left_nulls], run[left_nulls:]
    take_left += values_at
    take_right += values_at
    if ascending:
        return (
            np.concatenate((take_left, left_run)),
            np.concatenate((take_right, right_run)),
        )
    return (
        np.concatenate((left_run, take_left)),
        np.concatenate((right_run, take_right)),
    )


def _merge_values(
    left: np.ndarray, right: np.ndarray, ascending: bool
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`merge_permutation` in either direction.

    A descending merge searches contiguous reversed copies, with the
    sides swapped so that ties still emit the left rows first once the
    output is turned back around.
    """
    if ascending:
        return merge_permutation(left, right)
    last = len(left) + len(right) - 1
    reversed_right, reversed_left = merge_permutation(
        np.ascontiguousarray(right[::-1]), np.ascontiguousarray(left[::-1])
    )
    return last - reversed_left[::-1], last - reversed_right[::-1]


def merge_permutation(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Output positions for each side's rows in the merged order.

    One binary-search pass of the *smaller* side into the larger keeps
    the cost at ``O(min(n,m) log max(n,m) + n + m)`` regardless of which
    side dominates; ties always emit the left input's rows first.
    """
    total = len(left_keys) + len(right_keys)
    if len(right_keys) <= len(left_keys):
        right_positions = (
            np.searchsorted(left_keys, right_keys, side="right")
            + np.arange(len(right_keys), dtype=np.int64)
        )
        from_right = np.zeros(total, dtype=np.bool_)
        from_right[right_positions] = True
        left_positions = np.flatnonzero(~from_right)
        return left_positions, right_positions
    # side="left" keeps the tie order: equal left rows land before the
    # equal right rows they interleave with.
    left_positions = (
        np.searchsorted(right_keys, left_keys, side="left")
        + np.arange(len(left_keys), dtype=np.int64)
    )
    from_left = np.zeros(total, dtype=np.bool_)
    from_left[left_positions] = True
    right_positions = np.flatnonzero(~from_left)
    return left_positions, right_positions


def _interleave(
    left: ColumnVector,
    right: ColumnVector,
    left_positions: np.ndarray,
    right_positions: np.ndarray,
) -> ColumnVector:
    total = len(left) + len(right)
    values = np.empty(total, dtype=left.values.dtype)
    values[left_positions] = left.values
    values[right_positions] = right.values
    if left.validity is None and right.validity is None:
        return ColumnVector(left.dtype, values)
    validity = np.empty(total, dtype=np.bool_)
    validity[left_positions] = left.validity_or_all_true()
    validity[right_positions] = right.validity_or_all_true()
    return ColumnVector(left.dtype, values, validity)
