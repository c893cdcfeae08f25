"""Top-N operator: fused ORDER BY ... LIMIT.

A full sort materializes and orders every row only to discard all but
``limit + offset`` of them.  The fusion selects the top slice with a
partial partition (``np.argpartition``, O(n)) and sorts only that
slice — the standard analytic-engine optimization, applied by the
physical planner whenever a Limit sits directly on a Sort.

Single-key numeric/date sorts take the partition fast path; multi-key
and string sorts fall back to a full sort followed by a slice (still
one operator, no semantic difference).  Ties are broken arbitrarily on
the fast path (SQL leaves ORDER BY ties unordered); NULL ordering
matches the Sort operator (NULLS LAST ascending, NULLS FIRST
descending).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.operators.sort import SortKey, sort_order
from repro.storage.schema import Schema


class TopN(Operator):
    """Emit the first *limit* rows (after *offset*) of the sorted input."""

    def __init__(
        self,
        child: Operator,
        keys: list[SortKey],
        limit: int,
        offset: int = 0,
    ):
        if limit < 0 or offset < 0:
            raise PlanError("limit/offset must be non-negative")
        if not keys:
            raise PlanError("TopN requires at least one sort key")
        self.child = child
        self.keys = list(keys)
        self.limit = limit
        self.offset = offset
        self._done = False

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[Operator]:
        return [self.child]

    def open(self) -> None:
        super().open()
        self._done = False

    def next_batch(self) -> RecordBatch | None:
        if self._done:
            return None
        self._done = True
        data = self.child.drain()
        if data is None or self.limit == 0:
            return None
        wanted = self.limit + self.offset
        order = self._top_order(data, wanted)
        selected = order[self.offset : wanted]
        if len(selected) == 0:
            return None
        return data.take(selected).drop_rowids()

    def _top_order(self, data: RecordBatch, wanted: int) -> np.ndarray:
        n = len(data)
        key = self.keys[0]
        column = data.column(key.column)
        partitionable = (
            len(self.keys) == 1
            and column.values.dtype != np.dtype(object)
            and wanted < n
        )
        if not partitionable:
            full = sort_order(
                [data.column(k.column) for k in self.keys],
                [k.ascending for k in self.keys],
            )
            return full[: min(wanted, n)]
        # Null-aware ascending-comparable keys, as in the Sort operator.
        keys = column.values.astype(np.float64, copy=True)
        if column.validity is not None:
            keys[~column.validity] = np.inf
        if not key.ascending:
            keys = -keys
        top = np.argpartition(keys, wanted)[:wanted]
        return top[np.argsort(keys[top], kind="stable")]

    def label(self) -> str:
        rendered = ", ".join(str(key) for key in self.keys)
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"TopN({rendered} LIMIT {self.limit}{suffix})"
