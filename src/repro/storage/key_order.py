"""A partition's rows in the order of one column's values.

PatchIndex maintenance (:mod:`repro.core.maintenance`) asks, for every
batch a NUC index hears of, which rows already hold one of the batch's
values.  A :class:`KeyOrder` answers that with binary searches instead
of a comparison per row:

- it holds the ``argsort`` of the column's values as ``intp`` positions
  (an ``int32`` order would be copied to ``intp`` by every
  ``searchsorted(..., sorter=)`` call);
- a numeric or DATE column is searched through it as it stands;
- a STRING column also keeps the sorted ``hash()`` of those values —
  sorting integers is ~10x cheaper than sorting Python strings — and a
  hit counts only once the value itself compares equal.  ``hash()`` is
  process-local, so an order is never persisted.

The order is two sorted runs: a large one over the first rows and a
small one over the rows appended since.  Each lookup first merges the
rows appended since the last one into the small run, costing the small
run, and the small run is folded into the large one — costing the
partition — once it passes a fixed fraction of it.  Comparing appended
rows one by one instead costs a Python comparison per STRING row.

An order is never written in place: a merge, a delete and an update
each return a new one.
"""

from __future__ import annotations

import numpy as np

#: The small run is folded into the large one once it holds more than
#: the large one's rows divided by this.
_FOLD_DIVISOR = 8

#: The empty ``(needle index, row)`` answer; callers never write into it.
_NONE = np.empty(0, dtype=np.intp)


def _hashes(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(hash, values), dtype=np.int64, count=len(values))


class _Run:
    """Rows ``[first, first + len(order))`` sorted by value: ``order``
    holds their positions relative to ``first``."""

    __slots__ = ("first", "order", "keys")

    def __init__(self, first: int, order: np.ndarray, keys: np.ndarray | None):
        self.first = first
        self.order = order
        #: STRING only: ``hash()`` of the value at each entry of ``order``.
        self.keys = keys

    @classmethod
    def sorted(cls, values: np.ndarray, first: int, stop: int) -> "_Run":
        rows = values[first:stop]
        if values.dtype != object:
            return cls(first, np.argsort(rows), None)
        hashes = _hashes(rows)
        order = np.argsort(hashes)
        return cls(first, order, hashes[order])

    @property
    def stop(self) -> int:
        return self.first + len(self.order)

    def merged(self, values: np.ndarray, later: "_Run") -> "_Run":
        """This run and *later*, which starts where this one stops."""
        if self.keys is None:
            slots = np.searchsorted(
                values[self.first : self.stop],
                values[later.first : later.stop][later.order],
                side="right",
                sorter=self.order,
            )
            keys = None
        else:
            slots = np.searchsorted(self.keys, later.keys, side="right")
            keys = np.insert(self.keys, slots, later.keys)
        shifted = later.order + (later.first - self.first)
        return _Run(self.first, np.insert(self.order, slots, shifted), keys)

    def holders(
        self, values: np.ndarray, needles: np.ndarray, probe: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(needle index, row)`` of every row whose key matches a needle's
        (*probe*: the needles' hashes, for a STRING run)."""
        if self.keys is None:
            rows = values[self.first : self.stop]
            lo = np.searchsorted(rows, needles, "left", self.order)
            hi = np.searchsorted(rows, needles, "right", self.order)
        else:
            lo = np.searchsorted(self.keys, probe, "left")
            hi = np.searchsorted(self.keys, probe, "right")
        # Most needles are held by no row of the run, the rest by one.
        which = np.flatnonzero(hi - lo)
        if len(which) == 0:
            return _NONE, _NONE
        lo = lo[which]
        counts = hi[which] - lo
        if len(which) < counts.sum():
            # The entries lo[i] .. hi[i]-1 of each needle, back to back.
            which = np.repeat(which, counts)
            starts = lo - np.cumsum(counts) + counts
            lo = np.arange(len(which)) + np.repeat(starts, counts)
        return which, self.order[lo] + self.first

    def after_delete(self, keep: np.ndarray) -> "_Run":
        kept = keep[self.first : self.stop]
        first = int(np.count_nonzero(keep[: self.first]))
        deleted = np.flatnonzero(~kept)
        if len(deleted) == 0:
            return _Run(first, self.order, self.keys)
        survivors = kept[self.order]
        order = self.order[survivors]
        # A survivor past the first deleted row moves down by the deleted
        # rows before it: a count over that span only, which a delete of
        # recent rows keeps short.
        start = int(deleted[0])
        late = order >= start
        order[late] -= np.cumsum(~kept[start:], dtype=np.intp)[order[late] - start]
        return _Run(
            first, order, None if self.keys is None else self.keys[survivors]
        )

    def after_update(
        self, old_values: np.ndarray, new_values: np.ndarray, row: int
    ) -> "_Run":
        if not self.first <= row < self.stop:
            return self
        local = row - self.first
        new = new_values[row]
        at_old = int(np.flatnonzero(self.order == local)[0])
        order = np.delete(self.order, at_old)
        if self.keys is None:
            # Every other entry keeps its key, so its slot among the old
            # values is its slot among the new ones.
            old = old_values[self.first : self.stop]
            at = int(np.searchsorted(old, new, sorter=self.order))
            at -= at > at_old
            return _Run(self.first, np.insert(order, at, local), None)
        key = hash(new)
        keys = np.delete(self.keys, at_old)
        at = int(np.searchsorted(keys, key))
        return _Run(self.first, np.insert(order, at, local), np.insert(keys, at, key))


class KeyOrder:
    """The first :attr:`stop` rows of a column, as two sorted runs."""

    __slots__ = ("large", "small")

    def __init__(self, large: _Run, small: _Run):
        self.large = large
        self.small = small

    @classmethod
    def build(cls, values: np.ndarray, stop: int) -> "KeyOrder":
        """The order of rows ``[0, stop)`` of a column stored as *values*."""
        return cls(_Run.sorted(values, 0, stop), _Run.sorted(values, stop, stop))

    @property
    def stop(self) -> int:
        return self.small.stop

    def covering(self, values: np.ndarray, stop: int) -> "KeyOrder":
        """This order with rows ``[self.stop, stop)`` merged in."""
        if stop <= self.stop:
            return self
        small = self.small.merged(values, _Run.sorted(values, self.stop, stop))
        if len(small.order) <= len(self.large.order) // _FOLD_DIVISOR:
            return KeyOrder(self.large, small)
        large = self.large.merged(values, small)
        return KeyOrder(large, _Run.sorted(values, stop, stop))

    def holders(
        self, values: np.ndarray, needles: np.ndarray, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(needle index, row)`` of every row below *stop* whose value in
        *values* equals one of the sorted, unique *needles* (NULL slots
        included: the caller knows the validity)."""
        probe = None if self.large.keys is None else _hashes(needles)
        which, rows = self.large.holders(values, needles, probe)
        if len(self.small.order):
            more = self.small.holders(values, needles, probe)
            which = np.concatenate((which, more[0]))
            rows = np.concatenate((rows, more[1]))
        if stop < self.stop:
            below = rows < stop
            which, rows = which[below], rows[below]
        if values.dtype.kind in "iub":
            return which, rows
        # NaN matches no needle; a STRING hit may be a hash collision.
        match = values[rows] == needles[which]
        return which[match], rows[match]

    def after_delete(self, keep: np.ndarray) -> "KeyOrder":
        """The order once the rows where *keep* is False are gone and the
        rest renumbered densely."""
        return KeyOrder(self.large.after_delete(keep), self.small.after_delete(keep))

    def after_update(
        self, old_values: np.ndarray, new_values: np.ndarray, row: int
    ) -> "KeyOrder":
        """The order once *row* changed from ``old_values[row]`` to
        ``new_values[row]``: its one entry moves."""
        return KeyOrder(
            self.large.after_update(old_values, new_values, row),
            self.small.after_update(old_values, new_values, row),
        )
