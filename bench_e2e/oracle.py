"""Numpy oracle: the answer every benchmark statement must return.

Expected results are computed from the generated arrays alone — never
by asking the engine — so a reply that matches proves the whole served
path (wire, parser, rewrites, operators, storage) produced the right
rows.  Every expectation is a tuple of arrays in select-list order;
:func:`matches` compares a reply against it value for value.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

Columns = tuple[np.ndarray, ...]


def matches(result, expected: Columns) -> bool:
    """True when *result* holds exactly the *expected* columns, NULL-free."""
    names = result.column_names
    if len(names) != len(expected):
        return False
    return all(
        result.columns[name].validity is None
        and np.array_equal(result.columns[name].values, column)
        for name, column in zip(names, expected)
    )


def scalars(*values: int) -> Columns:
    """The expectation of a one-row result."""
    return tuple(np.array([int(value)], dtype=np.int64) for value in values)


def message(text: str) -> Columns:
    """The expectation of a DML acknowledgement such as ``3 rows inserted``."""
    return (np.array([text], dtype=object),)


def count_sum_where_between(
    key: np.ndarray, value: np.ndarray, low: int, high: int
) -> Columns:
    """``SELECT COUNT(*), SUM(value) WHERE key BETWEEN ...``, ascending key."""
    (selected,) = fetch_where_between((value,), key, low, high)
    return scalars(len(selected), selected.sum())


def count_sum_max_where_between(
    key: np.ndarray,
    summed: np.ndarray,
    maxed: np.ndarray,
    low: int,
    high: int,
) -> Columns:
    """``SELECT COUNT(*), SUM(summed), MAX(maxed) WHERE key BETWEEN ...``."""
    mask = (key >= low) & (key <= high)
    return scalars(mask.sum(), summed[mask].sum(), maxed[mask].max())


def distinct_count(column: np.ndarray) -> Columns:
    """``SELECT COUNT(DISTINCT column)``."""
    return scalars(len(np.unique(column)))


def sorted_count(column: np.ndarray) -> Columns:
    """``SELECT COUNT(*) FROM (SELECT column ... ORDER BY column)``."""
    return scalars(len(column))


def join_count_sum(
    probe: np.ndarray, build_key: np.ndarray, build_value: np.ndarray
) -> Columns:
    """``COUNT(*), SUM(build_value)`` of an equi-join on a unique build key."""
    order = np.argsort(build_key, kind="stable")
    keys = build_key[order]
    slots = np.searchsorted(keys, probe)
    slots[slots == len(keys)] = 0
    hit = keys[slots] == probe
    return scalars(hit.sum(), build_value[order][slots[hit]].sum())


def fetch_where_between(
    columns: tuple[np.ndarray, ...], key: np.ndarray, low: int, high: int
) -> Columns:
    """``SELECT columns WHERE key BETWEEN low AND high`` for an ascending key.

    Returns views, so holding a round's worth of 50k-row expectations
    costs no memory beyond the generated arrays.
    """
    start = int(np.searchsorted(key, low, side="left"))
    stop = int(np.searchsorted(key, high, side="right"))
    return tuple(column[start:stop] for column in columns)


def checksum(columns: tuple[np.ndarray, ...]) -> Columns:
    """Row count plus every column's sum: the post-crash check query."""
    return scalars(len(columns[0]), *(int(column.sum()) for column in columns))


class IngestModel:
    """The state ``mixed_ingest``'s acknowledged writes must leave behind.

    Base rows are never deleted (deletes target inserted keys only), so
    the model keeps them as arrays and tracks inserted rows by key.
    """

    def __init__(self, k, u, s, v):
        self._inserted: dict[int, tuple[int, int, int, int]] = {}
        self._u_counts = Counter(u.tolist())
        self.rows = len(k)
        self._sums = [int(k.sum()), int(u.sum()), int(s.sum()), int(v.sum())]

    def insert(self, rows: list[tuple[int, int, int, int]]) -> None:
        for row in rows:
            self._inserted[row[0]] = row
            self._u_counts[row[1]] += 1
            for position, value in enumerate(row):
                self._sums[position] += value
        self.rows += len(rows)

    def delete_between(self, low: int, high: int) -> int:
        """Delete inserted keys in ``[low, high]``; returns rows removed."""
        removed = 0
        for key in range(low, high + 1):
            row = self._inserted.pop(key, None)
            if row is None:
                continue
            removed += 1
            self._u_counts[row[1]] -= 1
            if not self._u_counts[row[1]]:
                del self._u_counts[row[1]]
            for position, value in enumerate(row):
                self._sums[position] -= value
        self.rows -= removed
        return removed

    def point(self, key: int) -> Columns:
        """``SELECT k, u, s, v WHERE k = key`` for an inserted key."""
        row = self._inserted.get(key)
        if row is None:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(4))
        return scalars(*row)

    def distinct_u(self) -> Columns:
        return scalars(len(self._u_counts))

    def checksum(self) -> Columns:
        return scalars(self.rows, *self._sums)
