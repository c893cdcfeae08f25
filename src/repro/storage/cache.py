"""Shared LRU cache of decoded segment blocks.

RSEG2 segments store encoded blocks; decoding them on every scan would
trade the I/O win for CPU.  The :class:`BlockCache` holds decoded
:class:`~repro.storage.column.ColumnVector` blocks keyed by
``(table, segment, column, block, generation)`` — *segment* is the
partition file, which is written once under a name no later file
reuses, and the *generation* is the manifest checkpoint LSN the segment
was loaded under, so a checkpoint can never collide with stale entries:
a file it keeps keeps its sources, keys and warm blocks, readers of a
later load carry the new generation, and keys nothing reads any more age
out of the LRU.

The cache is byte-capacity-bounded and fully observable — the ROADMAP's
pg-xpatch cautionary tale is a cache that silently rejected large
entries until a ``skip_count`` stat exposed it.  Here every outcome is
counted: ``cache.hits`` / ``cache.misses`` / ``cache.evictions`` and
``cache.skip_count`` (entries larger than a quarter of the capacity are
*skipped*, never admitted, and always counted), ``cache.scan_bypass``
(blocks a scan decoded but did not admit because the scan as a whole is
larger than the cache — the sequential-flooding rule: it would only
evict what is resident and then itself), plus ``cache.bytes`` /
``cache.entries`` gauges.

One cache is shared per :class:`~repro.storage.engine.DurableEngine`
(all tables, all threads — a single lock guards the LRU book-keeping;
decode happens outside it), sized by ``cache_bytes=`` or the
``REPRO_CACHE_BYTES`` environment variable.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.check.sanitize import enabled as sanitize_enabled
from repro.check.sanitize import make_lock, register_cache
from repro.errors import StorageError
from repro.storage.column import ColumnVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.segment import SegmentReader

#: Default cache capacity when neither the knob nor the env var is set.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Environment variable overriding the default capacity (bytes).
ENV_CACHE_BYTES = "REPRO_CACHE_BYTES"


def cache_capacity_from_env(default: int = DEFAULT_CACHE_BYTES) -> int:
    """Resolve the cache capacity from ``REPRO_CACHE_BYTES``."""
    raw = os.environ.get(ENV_CACHE_BYTES)
    if raw is None:
        return default
    try:
        return max(0, int(raw))
    except ValueError as exc:
        raise StorageError(
            f"{ENV_CACHE_BYTES} must be an integer byte count, got {raw!r}"
        ) from exc


def vector_nbytes(vector: ColumnVector) -> int:
    """Approximate resident bytes of a decoded column vector."""
    values = vector.values
    if values.dtype == np.dtype(object):
        size = 8 * len(values) + sum(len(item) for item in values)
    else:
        size = int(values.nbytes)
    if vector.validity is not None:
        size += int(vector.validity.nbytes)
    return size


def _base_nbytes(array: np.ndarray) -> int:
    """Bytes of the buffer *array* keeps alive (its own when it owns them)."""
    base = array.base
    if base is None:
        return int(array.nbytes)
    return int(memoryview(base).nbytes)


@dataclass
class ScanIO:
    """Per-scan decode / cache accounting (feeds EXPLAIN ANALYZE)."""

    blocks_decoded: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Encoded payload bytes fetched from segment files.
    bytes_read: int = 0
    #: Decoded vector bytes those payloads expanded into.
    bytes_decoded: int = 0
    #: Decoded bytes the scan expects to pull through the cache in
    #: total (``TableScan.open``): the rows of the blocks it reads (all
    #: covered rows, or the blocks holding a gathered row) x the lazy
    #: columns' item sizes.
    planned_bytes: int = 0
    #: ``"<planned> > <capacity>"`` once the scan decoded a block it did
    #: not admit because it cannot fit the cache as a whole.
    cache_bypass: str | None = None

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class BlockCache:
    """Byte-bounded LRU over decoded blocks with full observability."""

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.capacity_bytes = max(0, int(capacity_bytes))
        #: Entries above this size are skipped (and counted), so one
        #: giant block can never wipe the whole working set.
        self.max_entry_bytes = self.capacity_bytes // 4
        self._lock = make_lock("storage.cache.block")
        self._entries: OrderedDict[tuple, tuple[ColumnVector, int]] = (
            OrderedDict()
        )
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.skips = 0
        self.bypasses = 0
        self._metrics = metrics
        if sanitize_enabled():
            register_cache(self)

    def attach_metrics(self, metrics: "MetricsRegistry") -> None:
        """Publish counters/gauges into *metrics* from now on."""
        with self._lock:
            self._metrics = metrics

    # -- core operations ------------------------------------------------

    def get(self, key: tuple) -> ColumnVector | None:
        return self.get_many([key])[0]

    def get_many(self, keys: list[tuple]) -> list[ColumnVector | None]:
        """Look up *keys* in order under one lock acquisition; a hit
        becomes the most recently used entry, as with :meth:`get`."""
        found: list[ColumnVector | None] = []
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    found.append(None)
                else:
                    self._entries.move_to_end(key)
                    found.append(entry[0])
            misses = found.count(None)
            hits = len(keys) - misses
            self.hits += hits
            self.misses += misses
            metrics = self._metrics
        if metrics is not None:
            if hits:
                metrics.counter("cache.hits").inc(hits)
            if misses:
                metrics.counter("cache.misses").inc(misses)
        return found

    def put(
        self, key: tuple, vector: ColumnVector, nbytes: int | None = None
    ) -> bool:
        """Admit a decoded block; returns False when skipped (oversized)."""
        if nbytes is None:
            nbytes = vector_nbytes(vector)
        if nbytes > self.max_entry_bytes:
            with self._lock:
                self.skips += 1
                metrics = self._metrics
            if metrics is not None:
                metrics.counter("cache.skip_count").inc()
            return False
        evicted = 0
        with self._lock:
            if key in self._entries:
                return True
            while self._bytes + nbytes > self.capacity_bytes and self._entries:
                _, (_, old_bytes) = self._entries.popitem(last=False)
                self._bytes -= old_bytes
                evicted += 1
            self._entries[key] = (vector, nbytes)
            self._bytes += nbytes
            self.evictions += evicted
            metrics = self._metrics
        if metrics is not None and evicted:
            metrics.counter("cache.evictions").inc(evicted)
        return True

    def note_bypass(self, blocks: int) -> None:
        """Count *blocks* decoded but not admitted by a scan that is
        larger than the whole cache."""
        with self._lock:
            self.bypasses += blocks
            metrics = self._metrics
        if metrics is not None:
            metrics.counter("cache.scan_bypass").inc(blocks)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- introspection --------------------------------------------------

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def verify_accounting(self) -> str | None:
        """Cross-check byte/entry bookkeeping against the actual entries.

        Returns a description of the first mismatch, or None when the
        books balance.  The sanitizer teardown fixture calls this for
        every live cache: ``_bytes`` is maintained incrementally on
        put/evict, so any drift means an unbalanced admit/evict pair.
        """
        with self._lock:
            actual = sum(nbytes for _, nbytes in self._entries.values())
            entries = len(self._entries)
            tracked = self._bytes
            vectors = (
                [vector for vector, _ in self._entries.values()]
                if sanitize_enabled()
                else []
            )
        for vector in vectors:
            for array in (vector.values, vector.validity):
                if array is not None and _base_nbytes(array) > array.nbytes:
                    return (
                        f"BlockCache holds a {array.nbytes}-byte view of a "
                        f"{_base_nbytes(array)}-byte buffer: the entry pins "
                        "memory the byte accounting does not see"
                    )
        if actual != tracked:
            return (
                f"BlockCache byte accounting drifted: tracked {tracked} "
                f"!= actual {actual} across {entries} entries"
            )
        if tracked > self.capacity_bytes and entries > 1:
            return (
                f"BlockCache over capacity: {tracked} bytes held, "
                f"capacity {self.capacity_bytes}"
            )
        return None

    def stats(self) -> dict:
        """Snapshot of counters and occupancy for ``\\cache`` / gauges."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity_bytes": self.capacity_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "skip_count": self.skips,
                "scan_bypass": self.bypasses,
            }


class SegmentColumnSource:
    """Lazy, cache-aware view of one segment-backed partition column.

    Stands in for a materialized :class:`ColumnVector` inside a
    :class:`~repro.storage.partition.Partition`: scans pull contiguous
    row slices through :meth:`slice`, and gather scattered rows through
    :meth:`take`; both decode only the blocks they touch (through the
    shared :class:`BlockCache`), so pruned blocks cost neither I/O nor
    decode work.
    """

    __slots__ = ("reader", "cache", "table", "column", "segment", "generation")

    def __init__(
        self,
        reader: "SegmentReader",
        cache: BlockCache | None,
        *,
        table: str,
        column: str,
        segment: str,
        generation: int,
    ):
        self.reader = reader
        self.cache = cache
        self.table = table
        self.column = column
        self.segment = segment
        self.generation = generation

    @property
    def dtype(self):
        return self.reader.dtype

    def __len__(self) -> int:
        return self.reader.rows

    def _decode_run(
        self, first: int, last: int, io: ScanIO | None
    ) -> ColumnVector:
        """Decode missed blocks *first* … *last*; admit them if the scan fits."""
        reader = self.reader
        vector = reader.decode_run(first, last)
        blocks = range(first, last + 1)
        if io is not None:
            io.blocks_decoded += len(blocks)
            if self.cache is not None:
                io.cache_misses += len(blocks)
            io.bytes_read += sum(map(reader.block_payload_bytes, blocks))
            io.bytes_decoded += vector_nbytes(vector)
        cache = self.cache
        if cache is None:
            return vector
        if io is not None and io.planned_bytes > cache.capacity_bytes:
            # A scan larger than the whole cache would evict what is
            # resident and then its own head before re-reading it.
            cache.note_bypass(len(blocks))
            io.cache_bypass = f"{io.planned_bytes} > {cache.capacity_bytes}"
            return vector
        base = reader.stats[first].start
        for index in blocks:
            block = reader.stats[index]
            lo, hi = block.start - base, block.stop - base
            # Copies: a view would pin the whole run's buffer behind an
            # entry accounted at one block's bytes.
            cache.put(
                self._key(index),
                ColumnVector(
                    vector.dtype,
                    vector.values[lo:hi].copy(),
                    None
                    if vector.validity is None
                    else vector.validity[lo:hi].copy(),
                ),
            )
        return vector

    def _key(self, index: int) -> tuple:
        return (self.table, self.segment, self.column, index, self.generation)

    def slice(
        self, start: int, stop: int, io: ScanIO | None = None
    ) -> ColumnVector:
        """Assemble rows ``[start, stop)`` from decoded blocks."""
        if stop <= start:
            return ColumnVector.empty(self.reader.dtype)
        size = self.reader.block_size
        first, last = start // size, (stop - 1) // size
        parts = self._blocks(first, last, io)
        head = start - first * size
        if head:
            parts[0] = parts[0].slice(head, len(parts[0]))
        tail = min((last + 1) * size, self.reader.rows) - stop
        if tail:
            parts[-1] = parts[-1].slice(0, len(parts[-1]) - tail)
        return parts[0] if len(parts) == 1 else ColumnVector.concat(parts)

    def take(
        self, positions: np.ndarray, io: ScanIO | None = None
    ) -> ColumnVector:
        """Gather the rows at the ascending *positions*, decoding only
        the blocks that hold one."""
        if not len(positions):
            return ColumnVector.empty(self.reader.dtype)
        size = self.reader.block_size
        blocks = positions // size
        # Runs of neighbouring touched blocks go through _blocks together,
        # so missed neighbours still decode in one call.
        breaks = (np.flatnonzero(np.diff(blocks) > 1) + 1).tolist()
        values: list[np.ndarray] = []
        validity: list[np.ndarray | None] = []
        for lo, hi in zip([0, *breaks], [*breaks, len(blocks)]):
            first, last = int(blocks[lo]), int(blocks[hi - 1])
            parts = self._blocks(first, last, io)
            starts = np.cumsum([first * size] + [len(part) for part in parts])
            edges = np.searchsorted(positions, starts).tolist()
            for part, start, begin, end in zip(
                parts, starts.tolist(), edges, edges[1:]
            ):
                if end > begin:
                    local = positions[begin:end] - start
                    values.append(part.values[local])
                    validity.append(
                        None if part.validity is None else part.validity[local]
                    )
        if all(mask is None for mask in validity):
            return ColumnVector(self.reader.dtype, np.concatenate(values))
        return ColumnVector(
            self.reader.dtype,
            np.concatenate(values),
            np.concatenate(
                [
                    np.ones(len(chunk), dtype=np.bool_) if mask is None else mask
                    for chunk, mask in zip(values, validity)
                ]
            ),
        )

    def _blocks(
        self, first: int, last: int, io: ScanIO | None
    ) -> list[ColumnVector]:
        """Blocks *first* … *last* as consecutive vectors.

        Cached blocks are used as they are; each maximal run of missed
        neighbours is decoded in one go (``SegmentReader.decode_run``).
        """
        cache = self.cache
        if cache is None:
            return [self._decode_run(first, last, io)]
        found = cache.get_many(
            [self._key(index) for index in range(first, last + 1)]
        )
        parts: list[ColumnVector] = []
        missed_from = -1
        for index, cached in enumerate(found, first):
            if cached is None:
                if missed_from < 0:
                    missed_from = index
                continue
            if missed_from >= 0:
                parts.append(self._decode_run(missed_from, index - 1, io))
                missed_from = -1
            if io is not None:
                io.cache_hits += 1
            parts.append(cached)
        if missed_from >= 0:
            parts.append(self._decode_run(missed_from, last, io))
        return parts

    def materialize(self, io: ScanIO | None = None) -> ColumnVector:
        """Decode the whole column (mutation and discovery paths).

        Bypasses the cache on purpose: the caller keeps the full column
        resident afterwards (``Partition`` installs it), so admitting
        every block would only double the memory and skew the hit ratio
        that ``\\cache`` and the ``cache.hit_ratio`` gauge report with
        one-shot misses.
        """
        if not self.reader.rows:
            return ColumnVector.empty(self.reader.dtype)
        vector = self.reader.read_all()
        if io is not None:
            io.blocks_decoded += self.reader.block_count
            io.bytes_read += sum(
                self.reader.block_payload_bytes(index)
                for index in range(self.reader.block_count)
            )
            io.bytes_decoded += vector_nbytes(vector)
        return vector
