"""Top-N operator: fused ORDER BY ... LIMIT.

A full sort materializes and orders every row only to discard all but
``limit + offset`` of them.  The fusion selects the top slice with a
partial partition (``np.argpartition``, O(n)) and sorts only that
slice — the standard analytic-engine optimization, applied by the
physical planner whenever a Limit sits directly on a Sort.

A single numeric/date key takes the partition fast path over its valid
values as stored (a descending key takes the top of the partition);
multi-key and string sorts fall back to a full sort followed by a
slice (still one operator, no semantic difference).  Ties are broken
arbitrarily on the fast path (SQL leaves ORDER BY ties unordered); the
order, NULLs and NaN included, is the Sort operator's.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.operators.sort import SortKey, key_order, sort_order
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
        return data.take(selected)

    def _top_order(self, data: RecordBatch, wanted: int) -> np.ndarray:
        key = self.keys[0]
        column = data.column(key.column)
        if (
            len(self.keys) > 1
            or column.values.dtype == np.dtype(object)
            or wanted >= len(data)
        ):
            full = sort_order(
                [data.column(k.column) for k in self.keys],
                [k.ascending for k in self.keys],
            )
            return full[:wanted]
        values, validity = column.values, column.validity
        if validity is None:
            top = _top_positions(values, wanted, key.ascending)
            return top[key_order(values[top], None, key.ascending)]
        # The best valid values plus the first NULL rows: key_order puts
        # each where Sort would and the slice keeps the first *wanted*.
        # A valid value's position is its rank among the valid values
        # plus the NULL rows before it (``nulls[j] - j`` valid rows
        # precede NULL row j).
        nulls = np.flatnonzero(~validity)
        top = _top_positions(values[validity], wanted, key.ascending)
        top = top + np.searchsorted(nulls - np.arange(len(nulls)), top, side="right")
        top = np.concatenate((top, nulls[:wanted]))
        order = key_order(values[top], validity[top], key.ascending)
        return top[order[:wanted]]

    def label(self) -> str:
        rendered = ", ".join(str(key) for key in self.keys)
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"TopN({rendered} LIMIT {self.limit}{suffix})"


def _top_positions(values: np.ndarray, wanted: int, ascending: bool) -> np.ndarray:
    """Positions of the *wanted* first values (all of them when fewer),
    in no particular order."""
    n = len(values)
    if wanted >= n:
        return np.arange(n, dtype=np.int64)
    if ascending:
        return np.argpartition(values, wanted - 1)[:wanted]
    return np.argpartition(values, n - wanted)[n - wanted :]
