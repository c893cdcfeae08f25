"""Vectorized open-addressing hash table for int64 keys.

Hash joins and hash aggregation need key → payload lookup over large
arrays.  A per-row Python dict would dominate runtime and distort the
operator cost ratios the paper's evaluation depends on; this table keeps
both build and probe fully vectorized: batched scatter with collision
detection, then iterative re-probing of only the unresolved lanes
(linear probing).  The expected number of probe rounds is O(1) at the
fixed load factor.

Keys are int64; callers with other key types map them to int64 first
(dates are already stored as day numbers, HashJoin maps a float to its
bits; strings go through HashJoin's dict of positions).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError

_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio multiplier


def _next_power_of_two(value: int) -> int:
    result = 1
    while result < value:
        result <<= 1
    return result


class Int64HashTable:
    """Open-addressing (linear probing) map from int64 keys to int64 values.

    Duplicate keys are rejected at insert: a hash join whose build keys
    repeat inserts one key per run of equal keys and keeps the runs
    itself.
    """

    def __init__(self, expected: int, load_factor: float = 0.5):
        if expected < 0:
            raise ExecutionError("expected size must be non-negative")
        capacity = _next_power_of_two(max(8, int(expected / load_factor) + 1))
        self._mask = np.uint64(capacity - 1)
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._used = np.zeros(capacity, dtype=np.bool_)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return len(self._keys)

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.astype(np.uint64) * _MULTIPLIER
        hashed ^= hashed >> np.uint64(32)
        return hashed & self._mask

    # -- build ----------------------------------------------------------

    def insert_unique(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert key→value pairs; raises on any duplicate key."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if len(keys) != len(values):
            raise ExecutionError("keys/values length mismatch")
        if self._count + len(keys) > self.capacity // 2:
            self._grow(self._count + len(keys))
        duplicates = np.zeros(len(keys), dtype=np.bool_)
        pending = np.arange(len(keys))
        slots = self._slots(keys)
        while len(pending):
            lanes_slots = slots[pending]
            occupied = self._used[lanes_slots]
            same_key = occupied & (self._keys[lanes_slots] == keys[pending])
            if same_key.any():
                # Key already present in the table: duplicate lane.
                duplicates[pending[same_key]] = True
                active = ~same_key
                pending = pending[active]
                lanes_slots = lanes_slots[active]
                occupied = occupied[active]
            free = ~occupied
            writers = pending[free]
            write_slots = lanes_slots[free]
            if len(writers):
                # Several lanes may target the same free slot; elect the
                # first lane per slot (stable order) and write only those
                # — no scatter races to untangle.
                order = np.argsort(write_slots, kind="stable")
                ordered_slots = write_slots[order]
                ordered_writers = writers[order]
                is_first = np.ones(len(order), dtype=np.bool_)
                is_first[1:] = ordered_slots[1:] != ordered_slots[:-1]
                chosen = ordered_writers[is_first]
                chosen_slots = ordered_slots[is_first]
                self._keys[chosen_slots] = keys[chosen]
                self._values[chosen_slots] = values[chosen]
                self._used[chosen_slots] = True
                self._count += len(chosen)
                losers = ordered_writers[~is_first]
                loser_slots = ordered_slots[~is_first]
                # A loser whose key just landed in its slot is a duplicate;
                # the rest keep probing.
                now_equal = self._keys[loser_slots] == keys[losers]
                duplicates[losers[now_equal]] = True
                retry = losers[~now_equal]
            else:
                retry = writers
            blocked = pending[~free]
            pending = np.concatenate([retry, blocked])
            slots[pending] = (slots[pending] + np.uint64(1)) & self._mask
        if duplicates.any():
            raise ExecutionError(
                f"duplicate keys in hash table build "
                f"({int(duplicates.sum())} collisions)"
            )

    def _grow(self, needed: int) -> None:
        old_keys = self._keys[self._used]
        old_values = self._values[self._used]
        capacity = _next_power_of_two(max(8, needed * 4))
        self._mask = np.uint64(capacity - 1)
        self._keys = np.zeros(capacity, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._used = np.zeros(capacity, dtype=np.bool_)
        self._count = 0
        if len(old_keys):
            self.insert_unique(old_keys, old_values)

    # -- probe -----------------------------------------------------------

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized probe; returns values, with -1 for missing keys."""
        keys = np.asarray(keys, dtype=np.int64)
        out = np.full(len(keys), -1, dtype=np.int64)
        pending = np.arange(len(keys))
        slots = self._slots(keys)
        while len(pending):
            lanes_slots = slots[pending]
            occupied = self._used[lanes_slots]
            match = occupied & (self._keys[lanes_slots] == keys[pending])
            out[pending[match]] = self._values[lanes_slots[match]]
            # Missing: hit an empty slot → key not in table.
            keep_probing = occupied & ~match
            pending = pending[keep_probing]
            slots[pending] = (slots[pending] + np.uint64(1)) & self._mask
        return out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test."""
        return self.lookup(keys) != -1
