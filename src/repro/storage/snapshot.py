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
(``storage.snapshot.builds``).  ``pins == builds + reuses``.  Every
copy reads through the database's one plan cache (:mod:`repro.plan.cache`),
which holds tables by name, so a copy's tables die with it.

A pin may wait for one in-flight in-memory mutation step, or for a
drift-triggered rebuild's discovery — never for an fsync the writer
batches outside its statements.  Checkpoints never block a pinned
reader:

- a copy shares the segment sources of every partition still clean
  since the last reopen, which read their files through descriptors
  opened at load (a checkpoint keeps such a file, unchanged, under the
  same name); every pin also pins the current manifest, and a
  checkpoint that supersedes it *defers* deleting the files only that
  manifest names while any snapshot pins it
  (:meth:`SnapshotRegistry.release` deletes them once the last pin
  drops);
- the manifest flip itself (:meth:`SnapshotRegistry.flip`) is
  serialized with pinning under the registry's lock, so a pin sees
  either entirely the old or entirely the new manifest.

Deleting is file by file (:func:`delete_files`): each file deleted
counts ``checkpoint.files_deleted``, each one that could not be
``fallback.gc_delete_failed``, its reason logged once per process.

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
from repro.storage import disk
from repro.storage.catalog import Catalog
from repro.storage.manifest import Manifest
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.exec.result import QueryResult
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.database import Database
    from repro.storage.table import Table


_LOG = logging.getLogger(__name__)
_LOGGED_REASONS: set[str] = set()


def delete_files(paths: list[Path], metrics: "MetricsRegistry") -> None:
    """Delete each of *paths*, counting ``checkpoint.files_deleted``.

    A file already gone is not a failure; any other error leaves the
    file, counts ``fallback.gc_delete_failed`` and logs its reason once
    per process.  The next reopen retries: it deletes every file the
    manifest does not name.
    """
    for path in paths:
        try:
            disk.DISK.delete("gc.unlink", path)
        except FileNotFoundError:
            continue
        except OSError as exc:
            metrics.counter("fallback.gc_delete_failed").inc()
            reason = exc.strerror or type(exc).__name__
            if reason not in _LOGGED_REASONS:
                _LOGGED_REASONS.add(reason)
                _LOG.warning(
                    "could not delete superseded file %s: %s (logged once "
                    "per reason; a reopen retries)",
                    path,
                    reason,
                )
            continue
        metrics.counter("checkpoint.files_deleted").inc()


class SnapshotHandle:
    """One copy of the catalog and the state it was taken at.

    Handles are created, refcounted and shared by
    :class:`SnapshotRegistry`: pins of an unchanged database share one
    handle, its tables and its bound plans.  ``pins`` is guarded by the
    registry lock.
    """

    def __init__(self, manifest: Manifest | None, versions: tuple, catalog: Catalog):
        #: The manifest current at the pin (None when the database has
        #: never checkpointed).
        self.manifest = manifest
        #: :meth:`Catalog.versions` of the live catalog at the pin.
        self.versions = versions
        self.catalog = catalog
        #: Active pin count; maintained under the registry lock.
        self.pins = 0

    @property
    def generation_lsn(self) -> int:
        """Checkpoint LSN of the manifest current at the pin (0 without)."""
        return self.manifest.checkpoint_lsn if self.manifest is not None else 0

    @property
    def key(self) -> tuple:
        """What a later pin must match to share this handle."""
        return (self.generation_lsn, self.versions)


class SnapshotRegistry:
    """Pin, release and flip for one database.

    Everything a pin must see atomically lives here under one lock: the
    current manifest, the latest handle, the pin count of each manifest
    and the file sets of superseded manifests still pinned.  The pin
    takes the catalog's state lock first, then this one; nothing takes
    them the other way round.
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
        #: Checkpoint LSN → pins on that manifest.
        self._pinned: dict[int, int] = {}
        #: Superseded manifests still pinned: checkpoint LSN → its files.
        self._deferred: dict[int, frozenset[str]] = {}

    @property
    def checkpoint_lsn(self) -> int:
        """Checkpoint LSN of the manifest the log names (0 without one)."""
        with self._lock:
            manifest = self._manifest
        return manifest.checkpoint_lsn if manifest is not None else 0

    def _count_locked(self, name: str) -> None:
        self._metrics.counter(f"storage.snapshot.{name}").inc()

    def _set_gauges_locked(self) -> None:
        self._metrics.gauge("storage.snapshot.active").set(self._active)
        self._metrics.gauge("storage.snapshot.deferred_generations").set(
            len(self._deferred)
        )

    def pin(self, catalog: Catalog) -> SnapshotHandle:
        """Pin *catalog* as it is now, for a reader.

        One refcount on the latest handle when its key still matches,
        else on a fresh copy, plus one on the current manifest, deferring
        the deletion of its files past any checkpoint that supersedes it.
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
                    handle = SnapshotHandle(manifest, versions, catalog.copy())
                    self._latest = handle
                    self._count_locked("builds")
                handle.pins += 1
                self._active += 1
                track_resource("snapshot_pin", str(id(handle)))
                self._pinned[generation_lsn] = self._pinned.get(generation_lsn, 0) + 1
                self._count_locked("pins")
                self._set_gauges_locked()
        return handle

    def release(self, handle: SnapshotHandle) -> None:
        """Drop one pin, then delete the files it alone kept alive.

        Releasing a handle that holds no pin is a no-op: its manifest's
        refcount belongs to the other readers of that manifest.  The
        files are deleted *after* the lock is released, since nothing can
        reach them any more (a pin only ever shares a handle of the
        current manifest) and readers should not queue behind deletes.
        """
        doomed: list[Path] = []
        with self._lock:
            if handle.pins > 0:
                handle.pins -= 1
                self._active -= 1
                release_resource("snapshot_pin", str(id(handle)))
                lsn = handle.generation_lsn
                remaining = self._pinned.get(lsn, 0) - 1
                if remaining > 0:
                    self._pinned[lsn] = remaining
                else:
                    self._pinned.pop(lsn, None)
                    if lsn in self._deferred:
                        doomed = self._unnamed_locked(self._deferred.pop(lsn))
            self._set_gauges_locked()
        delete_files(doomed, self._metrics)

    def _unnamed_locked(self, files: frozenset[str]) -> list[Path]:
        """Those of *files* that neither the current manifest nor any
        pinned superseded one names, as paths to delete."""
        root = self.root
        if root is None:  # the memory engine names no files
            return []
        named = set(self._manifest.files()) if self._manifest is not None else set()
        for other in self._deferred.values():
            named |= other
        return [root / name for name in sorted(files - named)]

    def flip(
        self, manifest: Manifest, rowids: np.ndarray, wal: WriteAheadLog, since: int
    ) -> int:
        """Make *manifest* the current one, atomically; returns the bytes
        the patch *rowids* take in the log's head.

        The install of the log's new head (the records after byte offset
        *since* kept behind it) and the choice of the superseded
        manifest's files to free happen under the lock.  If that manifest
        is still pinned, its files wait for :meth:`release`; otherwise the
        ones *manifest* does not name are deleted once the lock is
        released.  The registry follows the log from its rename on, so an
        install that raises after it still frees what it superseded.
        """
        doomed: list[Path] = []

        def follow() -> None:
            doomed.extend(self._follow_locked(manifest))  # lock-ok: the install below runs this under the lock

        try:
            with self._lock:  # lock-ok: the flip's fsyncs ARE the atomicity contract vs concurrent pins
                return wal.install(manifest, rowids, since, renamed=follow)
        finally:
            delete_files(doomed, self._metrics)

    def _follow_locked(self, manifest: Manifest) -> list[Path]:
        """Make *manifest*, which the log now names, the current one;
        returns the superseded files to delete now."""
        previous, self._manifest = self._manifest, manifest
        doomed: list[Path] = []
        if previous is not None:
            if self._pinned.get(previous.checkpoint_lsn, 0) > 0:
                self._deferred[previous.checkpoint_lsn] = previous.files()
            else:
                doomed = self._unnamed_locked(previous.files())
        self._set_gauges_locked()
        # The block cache stays: its keys carry the manifest a source
        # was loaded from, so none can name stale bytes, and a kept
        # file keeps serving its warm blocks.
        return doomed


class SnapshotView:
    """A read-only ``Database`` facade bound to one pinned snapshot.

    Exposes exactly the surface statement execution needs — ``catalog``
    (the snapshot's copy), ``obs`` (shared with the owning database so
    served reads feed the same observability) and ``wal`` (the owning
    database's, whose ``failed`` stops every statement).
    Only ``SELECT`` / ``EXPLAIN`` statements may run.

    The view owns its pin: :meth:`close` (or context-manager exit)
    releases it, allowing deferred file deletion to run.
    """

    def __init__(self, database: "Database", handle: SnapshotHandle):
        self._database = database
        self.handle = handle
        self.catalog = handle.catalog
        self.obs = database.obs
        self.wal = database.wal
        self._released = False

    def sql(
        self,
        text: str,
        *,
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
            profile=profile,
            optimizer_options=optimizer_options,
        )

    def _sql_read(
        self, text: str, *, profile, optimizer_options
    ) -> "QueryResult":
        """:meth:`sql` for a caller that already classified *text* as a read."""
        from repro.sql.session import _execute_statement

        self._check_released()
        return _execute_statement(
            self,
            text,
            optimizer_options=optimizer_options,
            profile=profile,
        )

    def explain(
        self,
        text: str,
        *,
        analyze: bool = False,
        optimizer_options=None,
    ) -> str:
        """Render the plan of a query against the pinned snapshot."""
        from repro.sql.session import explain_statement

        return self.sql(
            explain_statement(text, analyze),
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
            f"tables={self.catalog.table_names()})"
        )
