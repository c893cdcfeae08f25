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

On equal keys the *left* input's rows are emitted first (``side="right"``
in the search), making the merge deterministic.
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
    """Order-preserving union of two sorted inputs."""

    def __init__(self, left: Operator, right: Operator, keys: list[SortKey]):
        if tuple(field.dtype for field in left.schema) != tuple(
            field.dtype for field in right.schema
        ):
            raise PlanError("merge-union inputs have mismatched column types")
        if not keys:
            raise PlanError("merge-union requires at least one sort key")
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
        # Keys must share a dtype across the two sides; only promote to
        # float64 (for the NULL sentinel) when either side has NULLs.
        promote = any(
            batch.column(key.column).has_nulls
            for batch in (left, right)
            for key in self.keys
        )
        left_keys = merge_keys(left, self.keys, promote)
        right_keys = merge_keys(right, self.keys, promote)
        take_left, take_right = merge_permutation(left_keys, right_keys)
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


class _ReverseKey:
    """Comparison-inverting wrapper for descending object keys."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.value < self.value

    def __le__(self, other: "_ReverseKey") -> bool:
        return other.value <= self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseKey) and other.value == self.value


def merge_keys(
    batch: RecordBatch, keys: list[SortKey], promote: bool = True
) -> np.ndarray:
    """Produce an ascending-comparable key array for a sorted batch.

    Single numeric keys stay NumPy-native (fast path); everything else
    falls back to an object array of comparable per-row keys.  NULLs
    compare greater than all values (NULLS LAST under ascending), the
    same convention as the Sort operator.

    *promote* forces float64 keys; the caller sets it when *either*
    merge side carries NULLs so the two key arrays keep one dtype.
    (Integers beyond 2**53 would lose precision under promotion; the
    engine's key domains are far below that.)
    """
    if len(keys) == 1:
        column = batch.column(keys[0].column)
        if column.values.dtype != np.dtype(object):
            if not promote and column.validity is None:
                if keys[0].ascending:
                    return column.values
                return -column.values.astype(np.float64)
            out = column.values.astype(np.float64, copy=True)
            if column.validity is not None:
                out[~column.validity] = np.inf
            return out if keys[0].ascending else -out
    parts: list[list[object]] = []
    for key in keys:
        column = batch.column(key.column)
        validity = column.validity_or_all_true()
        values = column.values
        part: list[object] = []
        for position in range(len(column)):
            is_null = not validity[position]
            raw = None if is_null else values[position]
            if key.ascending:
                # NULLS LAST: (True, _) sorts after every (False, value).
                part.append((is_null, raw) if not is_null else (True, 0))
            else:
                # NULL compares greater than every value, so under a
                # descending key it comes FIRST — same convention as
                # the Sort operator and the numeric fast path above.
                part.append(
                    (True, _ReverseKey(raw)) if not is_null else (False, 0)
                )
        parts.append(part)
    out = np.empty(len(parts[0]), dtype=object)
    for position in range(len(parts[0])):
        out[position] = tuple(part[position] for part in parts)
    return out


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
