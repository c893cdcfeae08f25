"""Merge join (inner equi-join of two sorted inputs).

Exploits that both inputs are sorted on the join key: the right side is
materialized once into the same :class:`RunDirectory` HashJoin builds —
no sort needed, only a check that it is in order — and each sorted left
batch searches only the directory's keys between its own first and last
key *into the batch*, the vectorized equivalent of advancing two merge
cursors.  Its cost follows the keys that can match, not the rows
scanned, which is why the paper's join rewrite (§VI-B3) prefers it over
HashJoin for the sorted subsequence of an NSC.

The right side and each left batch are checked to be in key order at
run time (an unsorted one raises ``ExecutionError`` instead of dropping
matches); batches match independently, so the left side may be sorted
per partition only.
Duplicates are allowed on both sides (full cross product per equal-key
group); NULL keys never match, nor does NaN, and neither is checked for
order.  Output order follows the left input, so the join preserves the
left side's sortedness — a property the rewrite relies on when further
operators expect sorted data.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.operators.hash_join import (
    RunDirectory,
    _joined_schema,
    is_ascending,
    joinable_keys,
    key_dtype,
)
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
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self._key_dtype = key_dtype(
            left.schema.field(left_key).dtype, right.schema.field(right_key).dtype
        )
        self._schema = _joined_schema(left.schema, right.schema)
        self._right_data: RecordBatch | None = None
        self._directory: RunDirectory | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def open(self) -> None:
        super().open()
        self._right_data = None
        self._directory = None

    def close(self) -> None:
        super().close()
        self._right_data = None
        self._directory = None

    def _ensure_right(self) -> RunDirectory:
        if self._directory is not None:
            return self._directory
        data = self.right.drain()
        if data is None:
            data = RecordBatch.empty(self.right.schema)
        rows, keys = joinable_keys(data.column(self.right_key), self._key_dtype)
        if not is_ascending(keys):
            raise ExecutionError("merge-join right input is not sorted")
        self._right_data = data
        self._directory = RunDirectory(
            keys, np.arange(len(keys)) if rows is None else rows
        )
        return self._directory

    def next_batch(self) -> RecordBatch | None:
        directory = self._ensure_right()
        while True:
            batch = self.left.next_batch()
            if batch is None:
                return None
            rows, keys = joinable_keys(
                batch.column(self.left_key), self._key_dtype
            )
            if len(keys) == 0:
                continue
            if not is_ascending(keys):
                raise ExecutionError("merge-join left input is not sorted")
            left_idx, right_idx = directory.expand(*directory.find_sorted(keys))
            if len(left_idx) == 0:
                continue
            if rows is not None:
                left_idx = rows[left_idx]
            elif directory.unique and len(left_idx) == len(batch):
                # Every left row matched once, in order: no gather needed
                # on the left side (the common PK/FK case).
                return self._emit(batch, None, right_idx)
            return self._emit(batch, left_idx, right_idx)

    def _emit(
        self,
        batch: RecordBatch,
        left_idx: np.ndarray | None,
        right_idx: np.ndarray,
    ) -> RecordBatch:
        """Gather the output; ``left_idx=None`` passes the left columns
        through."""
        if self._right_data is None:
            raise ExecutionError(
                "MergeJoin right side unavailable; next_batch() before open()?"
            )
        columns: dict[str, ColumnVector] = {}
        for field in self.left.schema:
            vector = batch.column(field.name)
            columns[field.name] = (
                vector if left_idx is None else vector.take(left_idx)
            )
        for field in self.right.schema:
            columns[field.name] = self._right_data.column(field.name).take(
                right_idx
            )
        return RecordBatch(self._schema, columns)

    def label(self) -> str:
        return f"MergeJoin({self.left_key} = {self.right_key})"
