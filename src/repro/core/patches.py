"""Physical patch-set designs: identifier-based (sparse) and bitmap-based (dense).

The PatchIndex maintains the set of patches ``P_c`` (paper §III).  Two
physical designs are implemented, exactly as in paper §V:

- :class:`IdentifierPatches` stores the 64-bit tuple identifiers of all
  patches in a sorted array — memory proportional to ``|P_c|``
  (8 bytes per patch).
- :class:`BitmapPatches` stores one bit per tuple of the relation —
  memory proportional to ``|R|`` (``n / 8`` bytes) and independent of
  ``|P_c|``.

With 1 bit vs 64 bits per element, the identifier design wins on memory
whenever ``|P_c| / |R| <= 1/64 ≈ 1.56 %`` (:data:`CROSSOVER_RATE`).

Both designs answer the same interface: membership masks and patch
rowids for contiguous rowid ranges (the vectorized equivalent of the
paper's Algorithm 1 merge strategy and of the bitmap lookup), full rowid
enumeration, and the maintenance mutations used by
:mod:`repro.core.maintenance`.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from repro.errors import StorageError

#: Bits per stored patch in the identifier-based design (64-bit rowids).
IDENTIFIER_BITS = 64

#: Exception rate at which both designs use equal memory: 1 bit / 64 bit.
CROSSOVER_RATE = 1.0 / IDENTIFIER_BITS

#: Exception rate up to which each PatchIndex rewrite pays off on this
#: engine (paper §VII-B: every rewrite wins up to some rate and no
#: further).  The §VIII rewrite ablation measures all three
#: (EXPERIMENTS.md): distinct wins at every rate it runs (up to 0.7) and
#: sort crosses at 0.16-0.23, so both constants sit at or below their
#: crossover; join is the lower of its crossovers at a build side of 5 %
#: and of 50 % of the probe rows.
REWRITE_BREAKEVEN = {"distinct": 0.88, "sort": 0.15, "join": 0.08}


def rewrite_pays_off(use_case: str, rows: int, patches: int) -> bool:
    """The rewrite gate shared by the optimizer and the advisor:
    fewer *patches* than the use case's breakeven share of *rows*."""
    return patches < REWRITE_BREAKEVEN[use_case] * rows


class PatchSet(abc.ABC):
    """Abstract set of patch rowids over a relation of ``row_count`` tuples."""

    def __init__(self, row_count: int):
        if row_count < 0:
            raise StorageError("row_count must be non-negative")
        self.row_count = row_count

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(
        rowids: np.ndarray, row_count: int, design: str
    ) -> "PatchSet":
        """Build a patch set of the requested *design* from sorted rowids."""
        if design == "identifier":
            return IdentifierPatches(rowids, row_count)
        if design == "bitmap":
            return BitmapPatches.from_rowids(rowids, row_count)
        raise StorageError(f"unknown patch-set design: {design!r}")

    # -- required interface ----------------------------------------------------

    @property
    @abc.abstractmethod
    def design(self) -> str:
        """Design name: ``"identifier"`` or ``"bitmap"``."""

    @abc.abstractmethod
    def patch_count(self) -> int:
        """``|P_c|`` — the number of patches."""

    @abc.abstractmethod
    def rowids(self) -> np.ndarray:
        """All patch rowids, ascending, as int64."""

    @abc.abstractmethod
    def mask_for_range(self, start: int, stop: int) -> np.ndarray:
        """Boolean mask of length ``stop - start``; True where the rowid
        ``start + i`` is a patch.

        This is the batch-at-a-time realization of the paper's
        ``exclude_patches`` selection: the caller keeps the rows where
        the mask is False.
        """

    @abc.abstractmethod
    def rowids_in_range(self, start: int, stop: int) -> np.ndarray:
        """The patch rowids in ``[start, stop)``, ascending, as int64:
        what ``use_patches`` reads, and whose count ``exclude_patches``
        subtracts, without touching the rows in between (§VI-A3)."""

    @abc.abstractmethod
    def contains(self, rowid: int) -> bool:
        """Membership test for a single rowid."""

    @abc.abstractmethod
    def memory_usage_bytes(self) -> int:
        """Payload bytes of the physical representation."""

    # -- maintenance mutations ------------------------------------------------

    @abc.abstractmethod
    def extend(self, new_row_count: int, new_patch_rowids: np.ndarray) -> None:
        """Grow the relation to *new_row_count*, adding patches >= the old
        row count (table append path)."""

    @abc.abstractmethod
    def add(self, rowids: np.ndarray) -> None:
        """Mark existing rowids as patches (update path)."""

    @abc.abstractmethod
    def remove(self, rowids: np.ndarray) -> None:
        """Promote rowids out of the patch set (update re-classification).

        Rowids not currently patched are ignored; the relation size is
        unchanged.
        """

    @abc.abstractmethod
    def remap_after_delete(self, deleted: np.ndarray) -> None:
        """Remove deleted rowids and renumber survivors densely.

        *deleted* must be sorted ascending in the pre-delete rowid space.
        """

    # -- shared helpers ------------------------------------------------------

    def copy(self) -> "PatchSet":
        """A patch set with the same membership that no later mutation of
        this one reaches (a snapshot's, see :meth:`PatchIndex.copy`).

        Shallow: the identifier design replaces its rowid array on every
        mutation, so the copy may share it; the bitmap design writes its
        bits in place and copies them."""
        return copy.copy(self)

    def exception_rate(self) -> float:
        """``|P_c| / |R|`` (0.0 for an empty relation)."""
        if self.row_count == 0:
            return 0.0
        return self.patch_count() / self.row_count

    def __len__(self) -> int:
        return self.patch_count()

    def __contains__(self, rowid: object) -> bool:
        return isinstance(rowid, (int, np.integer)) and self.contains(int(rowid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(patches={self.patch_count()}, "
            f"rows={self.row_count})"
        )


def _check_sorted_rowids(rowids: np.ndarray, row_count: int) -> np.ndarray:
    """Validate and normalize a patch rowid array (sorted, unique, in range)."""
    rowids = np.asarray(rowids, dtype=np.int64)
    if rowids.ndim != 1:
        raise StorageError("patch rowids must be one-dimensional")
    if len(rowids):
        if rowids[0] < 0 or rowids[-1] >= row_count:
            raise StorageError(
                f"patch rowid out of range [0, {row_count}): "
                f"[{rowids[0]}, {rowids[-1]}]"
            )
        deltas = np.diff(rowids)
        if (deltas <= 0).any():
            raise StorageError("patch rowids must be strictly ascending")
    return rowids


class IdentifierPatches(PatchSet):
    """Sparse design: sorted array of 64-bit patch rowids (paper §V).

    Both discovery methods produce rowids in ascending order (paper
    §VI-A1), so no sort is needed at creation; the invariant is verified.
    """

    def __init__(self, rowids: np.ndarray, row_count: int):
        super().__init__(row_count)
        self._rowids = _check_sorted_rowids(rowids, row_count)

    @property
    def design(self) -> str:
        return "identifier"

    def patch_count(self) -> int:
        return len(self._rowids)

    def rowids(self) -> np.ndarray:
        return self._rowids

    def mask_for_range(self, start: int, stop: int) -> np.ndarray:
        found = self.rowids_in_range(start, stop)
        mask = np.zeros(stop - start, dtype=np.bool_)
        mask[found - start] = True
        return mask

    def rowids_in_range(self, start: int, stop: int) -> np.ndarray:
        if not 0 <= start <= stop <= self.row_count:
            raise StorageError(f"range [{start}, {stop}) out of bounds")
        # Merge strategy, batch formulation: locate the slice of the
        # sorted patch array overlapping [start, stop) with two binary
        # searches — the batched equivalent of advancing Algorithm 1's
        # patch pointer.
        lo = int(np.searchsorted(self._rowids, start, side="left"))
        hi = int(np.searchsorted(self._rowids, stop, side="left"))
        return self._rowids[lo:hi]

    def contains(self, rowid: int) -> bool:
        slot = int(np.searchsorted(self._rowids, rowid, side="left"))
        return slot < len(self._rowids) and int(self._rowids[slot]) == rowid

    def memory_usage_bytes(self) -> int:
        return len(self._rowids) * (IDENTIFIER_BITS // 8)

    # -- maintenance --------------------------------------------------------

    def extend(self, new_row_count: int, new_patch_rowids: np.ndarray) -> None:
        if new_row_count < self.row_count:
            raise StorageError("extend cannot shrink the relation")
        new_patch_rowids = np.asarray(new_patch_rowids, dtype=np.int64)
        if len(new_patch_rowids):
            if new_patch_rowids.min() < self.row_count:
                raise StorageError(
                    "extend patches must lie in the appended range"
                )
            if len(new_patch_rowids) > 1 and (
                np.diff(new_patch_rowids) <= 0
            ).any():
                new_patch_rowids = np.sort(new_patch_rowids)
            # Validate only the appended tail: the existing prefix is
            # already known-good and every new rowid is >= the old row
            # count, so the concatenation stays strictly ascending.
            tail = _check_sorted_rowids(new_patch_rowids, new_row_count)
            self._rowids = np.concatenate([self._rowids, tail])
        self.row_count = new_row_count

    def add(self, rowids: np.ndarray) -> None:
        rowids = np.asarray(rowids, dtype=np.int64)
        merged = np.union1d(self._rowids, rowids)
        self._rowids = _check_sorted_rowids(merged, self.row_count)

    def remove(self, rowids: np.ndarray) -> None:
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) == 0:
            return
        self._rowids = self._rowids[~np.isin(self._rowids, rowids)]

    def remap_after_delete(self, deleted: np.ndarray) -> None:
        deleted = np.asarray(deleted, dtype=np.int64)
        if len(deleted) == 0:
            return
        keep = self._rowids[
            ~np.isin(self._rowids, deleted, assume_unique=True)
        ]
        # Each surviving rowid shifts down by the number of deleted
        # rowids below it.
        shift = np.searchsorted(deleted, keep, side="left")
        self.row_count -= len(deleted)
        self._rowids = _check_sorted_rowids(keep - shift, self.row_count)


class BitmapPatches(PatchSet):
    """Dense design: one bit per tuple of the relation (paper §V).

    The bitmap is stored packed (8 rowids per byte, little-endian bit
    order), so :meth:`memory_usage_bytes` reflects the paper's accounting
    of ``n`` bits for ``n`` tuples.
    """

    def __init__(self, bits: np.ndarray, row_count: int):
        super().__init__(row_count)
        expected = (row_count + 7) // 8
        if bits.dtype != np.uint8 or len(bits) != expected:
            raise StorageError(
                f"bitmap must be uint8[{expected}], got {bits.dtype}[{len(bits)}]"
            )
        self._bits = bits
        # Cached popcount; ``exception_rate()`` is consulted on every
        # query-rewrite decision, so |P_c| must not cost an O(n) unpack
        # per call.  Mutations invalidate (or update) the cache.
        self._patch_count: int | None = None

    @classmethod
    def from_rowids(cls, rowids: np.ndarray, row_count: int) -> "BitmapPatches":
        rowids = _check_sorted_rowids(rowids, row_count)
        bits = np.zeros((row_count + 7) // 8, dtype=np.uint8)
        if len(rowids):
            np.bitwise_or.at(
                bits,
                rowids >> 3,
                np.left_shift(np.uint8(1), (rowids & 7).astype(np.uint8)),
            )
        patches = cls(bits, row_count)
        patches._patch_count = len(rowids)  # rowids are unique by contract
        return patches

    @property
    def design(self) -> str:
        return "bitmap"

    def patch_count(self) -> int:
        if self._patch_count is None:
            self._patch_count = int(np.unpackbits(self._bits).sum())
        return self._patch_count

    def rowids(self) -> np.ndarray:
        unpacked = np.unpackbits(self._bits, bitorder="little")
        return np.flatnonzero(unpacked[: self.row_count]).astype(np.int64)

    def mask_for_range(self, start: int, stop: int) -> np.ndarray:
        if not 0 <= start <= stop <= self.row_count:
            raise StorageError(f"range [{start}, {stop}) out of bounds")
        if start == stop:
            return np.zeros(0, dtype=np.bool_)
        first_byte = start >> 3
        last_byte = (stop + 7) >> 3
        unpacked = np.unpackbits(
            self._bits[first_byte:last_byte], bitorder="little"
        )
        offset = start - (first_byte << 3)
        return unpacked[offset : offset + (stop - start)].astype(np.bool_)

    def rowids_in_range(self, start: int, stop: int) -> np.ndarray:
        found = np.flatnonzero(self.mask_for_range(start, stop))
        return found.astype(np.int64) + start

    def contains(self, rowid: int) -> bool:
        if not 0 <= rowid < self.row_count:
            return False
        return bool(self._bits[rowid >> 3] & (1 << (rowid & 7)))

    def memory_usage_bytes(self) -> int:
        return len(self._bits)

    def copy(self) -> "BitmapPatches":
        twin = copy.copy(self)
        twin._bits = self._bits.copy()
        return twin

    # -- maintenance -----------------------------------------------------------

    def extend(self, new_row_count: int, new_patch_rowids: np.ndarray) -> None:
        if new_row_count < self.row_count:
            raise StorageError("extend cannot shrink the relation")
        new_patch_rowids = np.asarray(new_patch_rowids, dtype=np.int64)
        if len(new_patch_rowids) and new_patch_rowids.min() < self.row_count:
            raise StorageError("extend patches must lie in the appended range")
        new_bytes = (new_row_count + 7) // 8
        bits = np.zeros(new_bytes, dtype=np.uint8)
        bits[: len(self._bits)] = self._bits
        self._bits = bits
        self.row_count = new_row_count
        if len(new_patch_rowids):
            self.add(new_patch_rowids)

    def add(self, rowids: np.ndarray) -> None:
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) == 0:
            return
        if rowids.min() < 0 or rowids.max() >= self.row_count:
            raise StorageError("add rowid out of range")
        np.bitwise_or.at(
            self._bits,
            rowids >> 3,
            np.left_shift(np.uint8(1), (rowids & 7).astype(np.uint8)),
        )
        # Input may repeat rowids or re-mark existing patches; recount
        # lazily on the next patch_count() call.
        self._patch_count = None

    def remove(self, rowids: np.ndarray) -> None:
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) == 0:
            return
        if rowids.min() < 0 or rowids.max() >= self.row_count:
            raise StorageError("remove rowid out of range")
        np.bitwise_and.at(
            self._bits,
            rowids >> 3,
            np.invert(
                np.left_shift(np.uint8(1), (rowids & 7).astype(np.uint8))
            ),
        )
        self._patch_count = None

    def remap_after_delete(self, deleted: np.ndarray) -> None:
        deleted = np.asarray(deleted, dtype=np.int64)
        if len(deleted) == 0:
            return
        unpacked = np.unpackbits(self._bits, bitorder="little")[: self.row_count]
        keep = np.ones(self.row_count, dtype=np.bool_)
        keep[deleted] = False
        survivors = unpacked[keep]
        self.row_count = len(survivors)
        self._patch_count = int(survivors.sum())
        self._bits = np.packbits(survivors, bitorder="little")
        expected = (self.row_count + 7) // 8
        if len(self._bits) != expected:  # pad for an all-zero tail
            padded = np.zeros(expected, dtype=np.uint8)
            padded[: len(self._bits)] = self._bits
            self._bits = padded
