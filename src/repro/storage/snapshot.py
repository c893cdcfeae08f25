"""MVCC-style snapshot reads over the durable storage engine.

Immutable segment files plus a versioned manifest make snapshots nearly
free: a reader *pins* the pair ``(manifest generation, WAL LSN)`` at
statement start and gets exactly that table state —
:func:`repro.storage.materialize.materialize_tables` over the pinned
generation and the WAL records at or below the pinned LSN, cached per
key so N concurrent readers at the same snapshot share one table build.
:class:`SnapshotRegistry` decides *which* of three things a pin costs:

- **reuse** — a cached handle already sits at the key;
- **advance** — an unpinned cached handle of the same generation sits
  at a lower LSN and only data / ``patch_delta`` records lie between:
  the span's data records are replayed onto its tables in place
  (``materialize_tables(base=handle.tables, records=span)``) and its
  ``patch_delta`` records onto the handle's restored PatchIndexes —
  the reader consumes what the writer logged, it classifies nothing;
- **build** — anything else, and every advance refused by name
  (``storage.snapshot.advance_refused.<reason>``): a fresh
  reconstruction.

Writers and checkpoints never block a pinned reader and a reader never
observes a partially-applied generation:

- writers only *append* WAL records (a record with an LSN above the pin
  is invisible to the snapshot by construction);
- a checkpoint installs a new generation but must *defer* deleting the
  old generation's segment directory while any snapshot pins it
  (:meth:`SnapshotRegistry.release` garbage-collects it once the last
  pin drops);
- the generation flip itself (:meth:`SnapshotRegistry.flip`) is
  serialized with pinning under the registry's lock, so a pin sees
  either entirely the old or entirely the new generation.

:class:`SnapshotView` is the read-only ``Database`` facade query
execution runs against; :class:`repro.sql.session.Session` pins one per
read statement when opened with ``snapshot_reads=True`` (the server
does this for every connection).
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import TYPE_CHECKING

from repro.check.sanitize import make_lock, release_resource, track_resource
from repro.errors import ExecutionError
from repro.storage.cache import BlockCache
from repro.storage.catalog import Catalog
from repro.storage.checkpoint import superseded_generations
from repro.storage.manifest import (
    SEGMENTS_DIR,
    Manifest,
    generation_name,
    write_manifest,
)
from repro.storage.materialize import (
    delta_tails,
    materialize_indexes,
    materialize_tables,
)
from repro.storage.wal import DATA_KINDS, PATCH_KINDS, WalRecord, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.delta import PatchDelta
    from repro.core.patch_index import PatchIndex
    from repro.exec.result import QueryResult
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.database import Database
    from repro.storage.table import Table


_LOG = logging.getLogger(__name__)
_LOGGED_REFUSALS: set[str] = set()


def _replay_plan(
    handle: "SnapshotHandle", span: list[WalRecord]
) -> tuple[str | None, list[tuple["PatchIndex", list[PatchDelta]]]]:
    """Why *span* cannot be replayed onto *handle* (``(reason, [])``), or
    ``(None, the deltas each of its restored indexes is to apply)``."""
    for record in span:
        if record.kind in DATA_KINDS:
            if record.payload.get("table") not in handle.tables:
                return "unknown_table", []
        elif record.kind not in PATCH_KINDS:
            return "ddl", []
    found = delta_tails(
        span, [(i.name, i.table_name, i.column_name) for i in handle.delta_fed]
    )
    for _, reason in found.values():
        if reason is not None:
            return reason, []
    return None, [(index, found[index.name][0]) for index in handle.delta_fed]


class SnapshotHandle:
    """A pinned ``(generation LSN, WAL LSN)`` pair and its table state.

    Handles are created, refcounted and cached by :class:`SnapshotRegistry`;
    equal keys share one handle, so repeated reads at an unchanged database
    state reuse the same tables.  ``pins`` and ``wal_lsn`` are guarded by the
    registry lock.
    """

    def __init__(
        self,
        generation_lsn: int,
        wal_lsn: int,
        tables: dict[str, "Table"],
        records: list[WalRecord],
        root: Path,
        metrics: "MetricsRegistry",
    ):
        #: Checkpoint LSN of the pinned manifest generation (0 when the
        #: database has never checkpointed — the snapshot is WAL-only).
        self.generation_lsn = generation_lsn
        #: Last WAL LSN visible to the snapshot.
        self.wal_lsn = wal_lsn
        self.tables = tables
        #: The WAL records at or below the pinned LSN the tables were
        #: materialized from; the catalog reads index DDL and the
        #: ``patch_delta`` tail from here, and an advance appends its span.
        self.records = records
        #: Active pin count; maintained under the registry lock.
        self.pins = 0
        self._root = root
        self._metrics = metrics
        self._catalog: Catalog | None = None
        self._catalog_lock = make_lock("storage.snapshot.catalog")
        #: The catalog's *restored* indexes: detached from table events, an
        #: advance feeds them the span's logged deltas (registry lock).
        self.delta_fed: list["PatchIndex"] = []

    @property
    def key(self) -> tuple[int, int]:
        return (self.generation_lsn, self.wal_lsn)

    @property
    def generation_name(self) -> str | None:
        """Segment directory name of the pinned generation, or None."""
        return generation_name(self.generation_lsn) if self.generation_lsn > 0 else None

    @property
    def catalog(self) -> Catalog:
        """A catalog over the snapshot tables, built once per handle.

        It carries the snapshot's **own** PatchIndexes: live indexes track the
        live (moving) tables and their rowids would not line up with a
        historical snapshot, so :func:`materialize_indexes` brings each index
        back *as of the pinned LSN* and snapshot reads get the same PatchSelect
        rewrites as live reads.  A *restored* index is by construction the
        live index as of the pinned LSN, so it is detached from table events
        and an advance applies the ``patch_delta`` records the writer logged
        (:attr:`delta_fed`).  Only an index that had to be *rebuilt from data*
        stays a table listener and classifies an advance's rows itself: live's
        ops presuppose live's patch sets, and re-discovery may have kept a row
        live holds as a drifted patch.  ``delta_sink`` stays ``None`` either
        way.  Runs under the handle's own lock and touches no registry state
        (that would invert the lock order).
        """
        with self._catalog_lock:
            if self._catalog is None:
                catalog = Catalog()
                for table in self.tables.values():
                    catalog.add_table(table)
                built = materialize_indexes(
                    self.tables,
                    self.records,
                    self.generation_lsn,
                    self._root,
                    provenance="snapshot",
                )
                for index in built.indexes:
                    catalog.add_index(index)
                    index.publish_discovery(self._metrics)
                for index in built.restored:
                    index.detach()
                self.delta_fed = built.restored
                if built.indexes:
                    self._metrics.counter("storage.snapshot.indexes_built").inc(
                        len(built.indexes)
                    )
                    self._metrics.counter("storage.snapshot.index_fallbacks").inc(
                        sum(built.fallbacks.values())
                    )
                self._catalog = catalog
            return self._catalog


class SnapshotRegistry:
    """Pin, release and flip for one durable data directory.

    Everything a pin must see atomically lives here under one lock: the
    current manifest, the cache of handles per ``(generation, LSN)`` key, and
    the pinned / deferred generation refcounts.
    """

    def __init__(
        self,
        root: Path,
        manifest: Manifest | None,
        *,
        cache: BlockCache | None,
        metrics: "MetricsRegistry",
    ):
        self.root = root
        self._cache = cache
        self._metrics = metrics
        self._lock = make_lock("storage.engine.snapshot")
        self._manifest = manifest
        self._handles: dict[tuple[int, int], SnapshotHandle] = {}
        self._pinned_generations: dict[str, int] = {}
        self._deferred_generations: set[str] = set()

    def _count_locked(self, name: str, amount: int = 1) -> None:
        self._metrics.counter(f"storage.snapshot.{name}").inc(amount)

    def _set_active_gauge_locked(self) -> None:
        self._metrics.gauge("storage.snapshot.active").set(
            sum(handle.pins for handle in self._handles.values())
        )

    def _set_deferred_gauge_locked(self) -> None:
        self._metrics.gauge("storage.snapshot.deferred_generations").set(
            len(self._deferred_generations)
        )

    def pin(self, wal: WriteAheadLog) -> SnapshotHandle:
        """Pin the current (manifest generation, WAL LSN) for a reader.

        One refcount on the handle at that key — reused, advanced or built,
        in that order of preference — plus one on the generation's segment
        directory, deferring its GC past any checkpoint that supersedes it.
        """
        with self._lock:
            manifest = self._manifest
            generation_lsn = manifest.checkpoint_lsn if manifest is not None else 0
            wal_lsn = wal.last_lsn
            handle = self._handles.get((generation_lsn, wal_lsn))
            if handle is not None:
                self._count_locked("reuses")
            else:
                # Counts itself: pins == builds + advances + reuses.
                handle = self._advance_locked(wal, generation_lsn, wal_lsn)
            if handle is None:
                records = [r for r in wal.records() if r.lsn <= wal_lsn]
                tables = materialize_tables(
                    self.root, manifest, records, cache=self._cache
                )
                handle = SnapshotHandle(
                    generation_lsn, wal_lsn, tables, records, self.root, self._metrics
                )
                # Retire unpinned handles of superseded states; the cache
                # then holds the pinned set plus this key.
                for stale_key, stale in list(self._handles.items()):
                    if stale.pins <= 0:
                        del self._handles[stale_key]
                self._handles[handle.key] = handle
                self._count_locked("builds")
            handle.pins += 1
            track_resource("snapshot_pin", str(handle.key))
            name = handle.generation_name
            if name is not None:
                self._pinned_generations[name] = (
                    self._pinned_generations.get(name, 0) + 1
                )
            self._count_locked("pins")
            self._set_active_gauge_locked()
        return handle

    def _advance_locked(
        self, wal: WriteAheadLog, generation_lsn: int, wal_lsn: int
    ) -> SnapshotHandle | None:
        """Roll an unpinned cached handle forward to *wal_lsn* in place.

        When a cached handle of the *same* generation sits at a lower LSN and
        is unpinned (no reader observes its tables), the WAL span between the
        two LSNs is replayed onto it and the handle is rekeyed: data records
        onto its tables, ``patch_delta`` records onto its restored indexes
        (an index it rebuilt from data follows the tables as a listener).
        The span is checked *before* anything is touched — DDL-free, on
        tables the handle has, and for every restored index a complete delta
        tail (:func:`~repro.storage.materialize.delta_tails`; a pin can land
        between a writer's data record and its deltas).  A refused advance
        leaves the handle as it was and returns None: build from scratch.
        """
        best = None
        for cached in self._handles.values():
            if (
                cached.pins <= 0
                and cached.generation_lsn == generation_lsn
                and cached.wal_lsn < wal_lsn
                and (best is None or cached.wal_lsn > best.wal_lsn)
            ):
                best = cached
        if best is None:
            return None
        span = [r for r in wal.records() if best.wal_lsn < r.lsn <= wal_lsn]
        reason, tails = _replay_plan(best, span)
        if reason is not None:
            self._count_locked(f"advance_refused.{reason}")
            if reason not in _LOGGED_REFUSALS:
                _LOGGED_REFUSALS.add(reason)
                _LOG.warning(
                    "snapshot advance refused, building instead: %s "
                    "(logged once per reason)",
                    reason,
                )
            return None
        try:
            materialize_tables(
                self.root, self._manifest, span, cache=self._cache, base=best.tables
            )
            for index, deltas in tails:
                for delta in deltas:
                    index.apply_external_delta(delta)
        except BaseException:
            del self._handles[best.key]  # half-replayed: never pin it again
            raise
        del self._handles[best.key]
        best.wal_lsn = wal_lsn
        best.records.extend(span)
        self._handles[best.key] = best
        self._count_locked("advances")
        self._count_locked(
            "advance_records", sum(1 for r in span if r.kind in DATA_KINDS)
        )
        return best

    def release(self, handle: SnapshotHandle) -> list[Path]:
        """Drop one pin; returns generation directories to delete.

        Releasing a handle that holds no pin is a no-op: its generation's
        refcount belongs to the other readers of that generation.  A deferred
        generation that lost its last pin is swept from the bookkeeping —
        with the unpinned handles over it, so a later pin can never resurrect
        readers over deleted files — and returned; the caller deletes it
        *after* this returns, since nothing can reach it any more and readers
        should not queue behind directory deletion.
        """
        doomed: list[Path] = []
        with self._lock:
            if handle.pins > 0:
                handle.pins -= 1
                release_resource("snapshot_pin", str(handle.key))
                name = handle.generation_name
                if name is not None:
                    remaining = self._pinned_generations.get(name, 0) - 1
                    if remaining > 0:
                        self._pinned_generations[name] = remaining
                    else:
                        self._pinned_generations.pop(name, None)
            for name in list(self._deferred_generations):
                if self._pinned_generations.get(name, 0) > 0:
                    continue
                doomed.append(self.root / SEGMENTS_DIR / name)
                self._deferred_generations.discard(name)
                for key, cached in list(self._handles.items()):
                    if cached.pins <= 0 and cached.generation_name == name:
                        del self._handles[key]
            self._set_deferred_gauge_locked()
            self._set_active_gauge_locked()
        return doomed

    def flip(
        self, manifest: Manifest, wal: WriteAheadLog, *, sync: bool
    ) -> tuple[int, list[Path]]:
        """Make *manifest*'s generation the current one, atomically.

        Manifest install, WAL marker + compaction and the choice of superseded
        generations all happen under the lock.  Returns the number of WAL
        records pruned and the directories the caller deletes once the lock
        is released (concurrent pins should not stall behind ``rmtree``).
        """
        with self._lock:  # lock-ok: the flip's fsyncs ARE the atomicity contract vs concurrent pins
            write_manifest(self.root, manifest, sync=sync)
            self._manifest = manifest
            wal.checkpoint({"checkpoint_lsn": manifest.checkpoint_lsn})
            pruned = wal.compact()
            doomed, deferred = superseded_generations(
                self.root / SEGMENTS_DIR,
                generation_name(manifest.checkpoint_lsn),
                self._pinned_generations,
            )
            self._deferred_generations = deferred
            self._set_deferred_gauge_locked()
            # Every cached block keyed by an older generation is now
            # unreachable from new readers: drop them eagerly rather than
            # letting them age out of the LRU.
            if self._cache is not None:
                self._cache.clear()
        return pruned, doomed


class SnapshotView:
    """A read-only ``Database`` facade bound to one pinned snapshot.

    Exposes exactly the surface statement execution needs — ``catalog``
    (the snapshot tables), ``obs`` (shared with the owning database so
    served reads feed the same observability), and ``parallelism``.
    Only ``SELECT`` / ``EXPLAIN`` statements may run; morsel threads
    read the snapshot's own tables in place.

    The view owns its pin: :meth:`close` (or context-manager exit)
    releases it, allowing deferred generation GC to run.
    """

    def __init__(self, database: "Database", handle: SnapshotHandle):
        self._database = database
        self.handle = handle
        self.catalog = handle.catalog
        self.obs = database.obs
        self.parallelism = database.parallelism
        self._released = False

    @property
    def wal_lsn(self) -> int:
        return self.handle.wal_lsn

    @property
    def generation_lsn(self) -> int:
        return self.handle.generation_lsn

    def sql(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        profile: bool = False,
        optimizer_options=None,
    ) -> "QueryResult":
        """Execute one read statement against the pinned snapshot."""
        from repro.sql.session import statement_kind

        if statement_kind(text) != "read":
            raise ExecutionError(
                "snapshot views are read-only: only SELECT / EXPLAIN may "
                "run against a pinned snapshot"
            )
        return self._sql_read(
            text,
            parallelism=parallelism,
            profile=profile,
            optimizer_options=optimizer_options,
        )

    def _sql_read(
        self, text: str, *, parallelism, profile, optimizer_options
    ) -> "QueryResult":
        """:meth:`sql` for a caller that already classified *text* as a read."""
        from repro.sql.session import _execute_statement

        self._check_released()
        effective = parallelism if parallelism is not None else self.parallelism
        return _execute_statement(
            self,
            text,
            optimizer_options=optimizer_options,
            parallelism=effective,
            profile=profile,
        )

    def explain(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        analyze: bool = False,
        optimizer_options=None,
    ) -> str:
        """Render the plan of a query against the pinned snapshot."""
        from repro.sql.session import explain_statement

        return self.sql(
            explain_statement(text, analyze),
            parallelism=parallelism,
            optimizer_options=optimizer_options,
        ).text()

    def table(self, name: str) -> "Table":
        return self.catalog.table(name)

    def close(self) -> None:
        """Release the pin (idempotent); deferred GC may then collect."""
        if not self._released:
            self._released = True
            self._database.engine.release_snapshot(self.handle)

    def _check_released(self) -> None:
        if self._released:
            raise ExecutionError("snapshot view is closed")

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SnapshotView(generation={self.handle.generation_lsn}, "
            f"lsn={self.handle.wal_lsn}, tables={sorted(self.handle.tables)})"
        )
