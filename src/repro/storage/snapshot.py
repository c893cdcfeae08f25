"""Snapshot reads: a pin is a copy of the live catalog.

A reader *pins* the database at statement start and gets exactly the
tables and PatchIndexes of that moment: :meth:`Catalog.copy` taken under
the catalog's state lock, which every live mutation holds for its
in-memory step.  The copy's tables share the live column vectors and
segment sources (a mutation replaces vectors, it never writes into one),
its PatchIndexes get copied patch sets — PatchSelect reads a patch set
in place, as in the paper (§VI-A) — and nothing the writer does later
reaches it.  No WAL record is read: the log is replayed on recovery only
(:mod:`repro.storage.materialize`).

:class:`SnapshotRegistry` keeps the latest copy and hands it to every
pin while the catalog's versions (``ddl_version`` and every table's
``data_version``) and the manifest generation are unchanged
(``storage.snapshot.reuses``); otherwise the pin copies
(``storage.snapshot.builds``).  ``pins == builds + reuses``.

A pin may wait for one in-flight in-memory mutation step, or for a
drift-triggered rebuild's discovery — never for an fsync the writer
batches outside its statements.  Checkpoints never block a pinned
reader:

- a copy shares the segment sources of every partition still clean
  since the last reopen, which read their files through descriptors
  opened at load (a checkpoint carries those files forward by hard
  link); every pin also pins the current generation, and a checkpoint
  that supersedes it *defers* deleting the directory while any snapshot
  pins it (:meth:`SnapshotRegistry.release` garbage-collects it once the
  last pin drops);
- the generation flip itself (:meth:`SnapshotRegistry.flip`) is
  serialized with pinning under the registry's lock, so a pin sees
  either entirely the old or entirely the new generation.

:class:`SnapshotView` is the read-only ``Database`` facade query
execution runs against; :class:`repro.sql.session.Session` pins one per
read statement when opened with ``snapshot_reads=True`` (the server
does this for every connection).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.check.sanitize import make_lock, release_resource, track_resource
from repro.errors import ExecutionError
from repro.storage.catalog import Catalog
from repro.storage.checkpoint import superseded_generations
from repro.storage.manifest import (
    SEGMENTS_DIR,
    Manifest,
    generation_name,
    write_manifest,
)
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.result import QueryResult
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.database import Database
    from repro.storage.table import Table


class SnapshotHandle:
    """One copy of the catalog and the state it was taken at.

    Handles are created, refcounted and shared by
    :class:`SnapshotRegistry`: pins of an unchanged database share one
    handle, its tables and its plan cache.  ``pins`` is guarded by the
    registry lock.
    """

    def __init__(
        self,
        generation_lsn: int,
        wal_lsn: int,
        versions: tuple,
        catalog: Catalog,
    ):
        #: Checkpoint LSN of the manifest generation current at the pin
        #: (0 when the database has never checkpointed).
        self.generation_lsn = generation_lsn
        #: Last WAL LSN at the pin.
        self.wal_lsn = wal_lsn
        #: :meth:`Catalog.versions` of the live catalog at the pin.
        self.versions = versions
        self.catalog = catalog
        #: Active pin count; maintained under the registry lock.
        self.pins = 0

    @property
    def key(self) -> tuple:
        """What a later pin must match to share this handle."""
        return (self.generation_lsn, self.versions)

    @property
    def generation_name(self) -> str | None:
        """Segment directory name of the pinned generation, or None."""
        return generation_name(self.generation_lsn) if self.generation_lsn > 0 else None


class SnapshotRegistry:
    """Pin, release and flip for one database.

    Everything a pin must see atomically lives here under one lock: the
    current manifest, the latest handle, and the pinned / deferred
    generation refcounts.  The pin takes the catalog's state lock first,
    then this one; nothing takes them the other way round.
    """

    def __init__(
        self,
        root: Path | None,
        manifest: Manifest | None,
        *,
        metrics: "MetricsRegistry",
    ):
        self.root = root
        self._metrics = metrics
        self._lock = make_lock("storage.engine.snapshot")
        self._manifest = manifest
        self._latest: SnapshotHandle | None = None
        self._active = 0
        self._pinned_generations: dict[str, int] = {}
        self._deferred_generations: set[str] = set()

    def _count_locked(self, name: str) -> None:
        self._metrics.counter(f"storage.snapshot.{name}").inc()

    def _set_gauges_locked(self) -> None:
        self._metrics.gauge("storage.snapshot.active").set(self._active)
        self._metrics.gauge("storage.snapshot.deferred_generations").set(
            len(self._deferred_generations)
        )

    def pin(self, catalog: Catalog, wal: WriteAheadLog) -> SnapshotHandle:
        """Pin *catalog* as it is now, for a reader.

        One refcount on the latest handle when its key still matches,
        else on a fresh copy, plus one on the current generation's
        segment directory, deferring its GC past any checkpoint that
        supersedes it.
        """
        with catalog.state_lock:
            versions = catalog.versions()
            with self._lock:
                manifest = self._manifest
                generation_lsn = manifest.checkpoint_lsn if manifest is not None else 0
                handle = self._latest
                if handle is not None and handle.key == (generation_lsn, versions):
                    self._count_locked("reuses")
                else:
                    handle = SnapshotHandle(
                        generation_lsn, wal.last_lsn, versions, catalog.copy()
                    )
                    self._latest = handle
                    self._count_locked("builds")
                handle.pins += 1
                self._active += 1
                track_resource("snapshot_pin", str(id(handle)))
                name = handle.generation_name
                if name is not None:
                    self._pinned_generations[name] = (
                        self._pinned_generations.get(name, 0) + 1
                    )
                self._count_locked("pins")
                self._set_gauges_locked()
        return handle

    def release(self, handle: SnapshotHandle) -> list[Path]:
        """Drop one pin; returns generation directories to delete.

        Releasing a handle that holds no pin is a no-op: its generation's
        refcount belongs to the other readers of that generation.  A
        deferred generation that lost its last pin is swept from the
        bookkeeping and returned; the caller deletes it *after* this
        returns, since nothing can reach it any more (a pin only ever
        shares a handle of the current generation) and readers should
        not queue behind directory deletion.
        """
        doomed: list[Path] = []
        with self._lock:
            if handle.pins > 0:
                handle.pins -= 1
                self._active -= 1
                release_resource("snapshot_pin", str(id(handle)))
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
            self._set_gauges_locked()
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
            self._set_gauges_locked()
            # The block cache stays: its keys carry the generation a
            # source was loaded from, so none can name stale bytes, and
            # a carried segment keeps serving its warm blocks.
        return pruned, doomed


class SnapshotView:
    """A read-only ``Database`` facade bound to one pinned snapshot.

    Exposes exactly the surface statement execution needs — ``catalog``
    (the snapshot's copy), ``obs`` (shared with the owning database so
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
            f"lsn={self.handle.wal_lsn}, tables={self.catalog.table_names()})"
        )
