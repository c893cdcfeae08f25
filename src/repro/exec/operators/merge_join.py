"""Merge join (inner equi-join of two sorted inputs).

Exploits that both inputs are sorted on the join key: the right side is
materialized once and each left batch is matched with binary searches
(``searchsorted``) — the vectorized equivalent of advancing two merge
cursors, with no hash table to build, which is why the paper's join
rewrite (§VI-B3) prefers it over HashJoin for the sorted subsequence of
an NSC.  When the right keys are unique (a dimension's key), a batch
searches only the right keys between its own first and last key *into
the batch*, so its cost follows the keys that can match, not the rows
scanned; repeated right keys keep one range search per left row.

Duplicates are allowed on both sides (full cross product per equal-key
group); NULL keys never match, nor does NaN.  Output order follows the
left input, so the join preserves the left side's sortedness — a
property the rewrite relies on when further operators expect sorted
data.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.operators.hash_join import _joined_schema, expand_ranges
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema


class MergeJoin(Operator):
    """Inner equi-join of two key-sorted inputs; left side streams."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
        check_sorted: bool = False,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.check_sorted = check_sorted
        left.schema.field(left_key)
        right.schema.field(right_key)
        self._schema = _joined_schema(left.schema, right.schema)
        self._right_data: RecordBatch | None = None
        self._right_keys: np.ndarray | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def open(self) -> None:
        super().open()
        self._right_data = None
        self._right_keys = None

    def _ensure_right(self) -> None:
        if self._right_data is not None:
            return
        batches: list[RecordBatch] = []
        while True:
            batch = self.right.next_batch()
            if batch is None:
                break
            if len(batch):
                batches.append(batch)
        if batches:
            data = RecordBatch.concat(batches)
        else:
            data = RecordBatch(
                self.right.schema,
                {
                    field.name: ColumnVector.empty(field.dtype)
                    for field in self.right.schema
                },
            )
        key_column = data.column(self.right_key)
        keys = key_column.values
        # NULL keys never join and NaN equals nothing: drop both once up
        # front.
        keep = key_column.validity_or_all_true()
        if keys.dtype.kind == "f":
            keep = keep & (keys == keys)
        if not keep.all():
            data = data.filter(keep)
            keys = data.column(self.right_key).values
        if self.check_sorted and len(keys) > 1:
            if keys.dtype == np.dtype(object):
                sorted_ok = all(a <= b for a, b in zip(keys[:-1], keys[1:]))
            else:
                sorted_ok = bool((keys[:-1] <= keys[1:]).all())
            if not sorted_ok:
                raise ExecutionError("merge-join right input is not sorted")
        self._right_data = data
        self._right_keys = keys
        # Dimension tables join on their (sorted, unique) primary key;
        # then a left batch need only search the right keys in its own
        # key range (``_match_window``).
        if len(keys) > 1 and keys.dtype != np.dtype(object):
            self._right_unique = bool((keys[1:] > keys[:-1]).all())
        else:
            self._right_unique = len(keys) <= 1

    def next_batch(self) -> RecordBatch | None:
        self._ensure_right()
        if self._right_keys is None:
            raise ExecutionError(
                "MergeJoin right side unavailable; next_batch() before open()?"
            )
        while True:
            batch = self.left.next_batch()
            if batch is None:
                return None
            if len(batch) == 0:
                continue
            key_column = batch.column(self.left_key)
            keys = key_column.values
            # NULL keys never join, so only the valid keys must be in order.
            valid_rows = None
            if key_column.has_nulls:
                valid_rows = np.flatnonzero(key_column.validity)
                keys = keys[valid_rows]
                if len(keys) == 0:
                    continue
            if self.check_sorted and keys.dtype != np.dtype(object):
                if not bool((keys[:-1] <= keys[1:]).all()):
                    raise ExecutionError("merge-join left input is not sorted")
            if self._right_unique:
                left_idx, right_idx = self._match_window(keys)
            else:
                lo = np.searchsorted(self._right_keys, keys, side="left")
                hi = np.searchsorted(self._right_keys, keys, side="right")
                left_idx, right_idx = expand_ranges(lo, hi - lo)
            if len(left_idx) == 0:
                continue
            if valid_rows is not None:
                left_idx = valid_rows[left_idx]
            elif self._right_unique and len(left_idx) == len(batch):
                # Every left row matched once, in order: no gather needed
                # on the left side (the common PK/FK case).
                return self._emit(batch, None, right_idx, passthrough=True)
            return self._emit(batch, left_idx, right_idx)

    def _match_window(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unique right keys: search the right keys between the batch's
        first and last key into the sorted batch, so the work follows
        what can match rather than every left row.  Pairs come out in
        left order, because the window and the batch ascend together."""
        low = self._right_keys.searchsorted(keys[0], side="left")
        high = self._right_keys.searchsorted(keys[-1], side="right")
        window = self._right_keys[low:high]
        starts = keys.searchsorted(window, side="left")
        counts = keys.searchsorted(window, side="right") - starts
        window_idx, left_idx = expand_ranges(starts, counts)
        return left_idx, window_idx + low

    def _emit(
        self,
        batch: RecordBatch,
        left_idx: np.ndarray | None,
        right_idx: np.ndarray,
        passthrough: bool = False,
    ) -> RecordBatch:
        if self._right_data is None:
            raise ExecutionError(
                "MergeJoin right side unavailable; next_batch() before open()?"
            )
        columns: dict[str, ColumnVector] = {}
        for field in self.left.schema:
            vector = batch.column(field.name)
            columns[field.name] = vector if passthrough else vector.take(left_idx)
        for field in self.right.schema:
            columns[field.name] = self._right_data.column(field.name).take(
                right_idx
            )
        return RecordBatch(self._schema, columns)

    def label(self) -> str:
        return f"MergeJoin({self.left_key} = {self.right_key})"
