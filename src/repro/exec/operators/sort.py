"""Sort operator: blocking, stable, multi-key.

The underlying kernel is NumPy's stable sort (timsort for the final
key), whose runtime grows with the disorder of the input — the same
qualitative behaviour as the engine-internal QuickSort the paper
describes ("behaving better the more sorted the data values already
are", §VII-B1), which is what the Figure-5 baseline curve relies on.

Order: every key compares its values as stored (no promotion, so an
INT64 beyond 2**53 keeps its place), NaN after every number as NumPy
orders it, and NULL after every value — NULLS LAST for an ascending
key, NULLS FIRST for a descending one.  NULLs are placed by position,
never given a sentinel value; a descending key reverses the sort,
never the values.  TopN and MergeUnion follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY key."""

    column: str
    ascending: bool = True

    def __str__(self) -> str:
        return f"{self.column} {'ASC' if self.ascending else 'DESC'}"


class Sort(Operator):
    """Materializing sort over the full input."""

    def __init__(self, child: Operator, keys: list[SortKey]):
        self.child = child
        self.keys = list(keys)
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
        if data is None:
            return None
        order = sort_order(
            [data.column(key.column) for key in self.keys],
            [key.ascending for key in self.keys],
        )
        return data.take(order)

    def label(self) -> str:
        return f"Sort({', '.join(str(key) for key in self.keys)})"


def sort_order(
    columns: list[ColumnVector], ascending: list[bool]
) -> np.ndarray:
    """Stable multi-key sort permutation (last key applied first)."""
    n = len(columns[0]) if columns else 0
    order = np.arange(n, dtype=np.int64)
    for column, asc in list(zip(columns, ascending))[::-1]:
        validity = None if column.validity is None else column.validity[order]
        order = order[key_order(column.values[order], validity, asc)]
    return order


def key_order(
    values: np.ndarray, validity: np.ndarray | None, ascending: bool
) -> np.ndarray:
    """Stable permutation ordering one key: the valid values as stored,
    then the NULL rows in their input order (NULLs first when
    descending)."""
    if validity is None:
        return _stable_argsort(values, ascending)
    present = np.flatnonzero(validity)
    nulls = np.flatnonzero(~validity)
    ranked = present[_stable_argsort(values[present], ascending)]
    return np.concatenate((ranked, nulls) if ascending else (nulls, ranked))


def _stable_argsort(keys: np.ndarray, ascending: bool) -> np.ndarray:
    """Stable argsort in either direction.

    Descending uses the reverse-of-reversed trick so that ties keep
    their input order (plain reversal would also reverse ties).
    """
    if ascending:
        return np.argsort(keys, kind="stable")
    n = len(keys)
    return (n - 1) - np.argsort(keys[::-1], kind="stable")[::-1]
