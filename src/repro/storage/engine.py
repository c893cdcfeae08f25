"""Pluggable persistence backends: the storage-engine seam.

A :class:`~repro.storage.database.Database` delegates everything about
*durability* to a :class:`StorageEngine`:

- where the :class:`~repro.storage.wal.WriteAheadLog` lives,
- whether table mutations (append / load / delete / update) are logged
  as WAL *data* records,
- what a ``CHECKPOINT`` does,
- and how a database instance is brought back after a restart.

Two engines exist.  :class:`MemoryEngine` persists nothing: its WAL
assigns LSNs and keeps no record.  :class:`DurableEngine` manages a
*data directory* (layout: :mod:`repro.storage.manifest`) and is the
lifecycle around the modules that do the work:

- :mod:`repro.storage.checkpoint` writes what the next manifest names:
  a file per changed partition (a partition nothing changed keeps the
  file it has) plus the PatchIndexes' patch sets, from a snapshot copy
  of the catalog;
- :mod:`repro.storage.wal` installs that manifest as the log's head
  record, in front of the records the checkpoint does not cover;
- :mod:`repro.storage.materialize` reads it back: tables from segments
  and PatchIndexes from the persisted patch sets (or discovered from
  data, paper §V), then one pass over the records after the head that
  the indexes re-classify — recovery, and nothing else;
- :mod:`repro.storage.snapshot` pins copies of the live catalog for
  readers, serializes them with the checkpoint flip, and decides which
  files a flip or a release frees.

Snapshots work on both engines: a pin copies in-memory state, it reads
no file.  The durable engine adds what a copy of lazy, segment-backed
columns needs: the files its manifest names stay on disk while pinned.

The seam leaves query execution untouched: segment-backed columns sit
inside the same :class:`~repro.storage.partition.Partition` objects, so
scans, block pruning and the PatchSelect rowid invariants (§VI-A1)
work unchanged.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.check.sanitize import make_lock
from repro.errors import StorageError
from repro.storage import disk
from repro.storage.cache import BlockCache, cache_capacity_from_env
from repro.storage.checkpoint import (
    CHECKPOINT_COUNTS,
    flush_table,
    nsc_patch_rowids,
    patch_sets,
)
from repro.storage.column import ColumnVector
from repro.storage.manifest import (
    PATCH_ROWIDS,
    SEGMENTS_DIR,
    WAL_NAME,
    Manifest,
    TableManifest,
    checkpoint_files,
    refuse_older_formats,
)
from repro.storage.materialize import load_tables, replay_log
from repro.storage.snapshot import SnapshotHandle, SnapshotRegistry, delete_files
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database


def encoded_ratio(table: Table) -> float:
    """Encoded/raw payload byte ratio of a loaded table, read from the
    segment headers behind its still-lazy columns: what the checkpoint
    that wrote them reported (:meth:`~repro.storage.segment.SegmentReader.
    write_info`)."""
    payload_total = raw_payload_total = 0
    for partition in table.partitions:
        for source in partition.sources():
            info = source.reader.write_info()
            payload_total += info.payload_bytes
            raw_payload_total += info.raw_payload_bytes
    return payload_total / raw_payload_total if raw_payload_total else 1.0


# -- the seam ----------------------------------------------------------------


class StorageEngine:
    """Interface a Database persists through; also the in-memory engine.

    The base class implements the in-memory behaviour: table data lives
    in memory, the WAL keeps no record, a checkpoint writes nothing, and
    there is nothing to recover.
    """

    name = "memory"
    #: True when table mutations are logged as WAL data records.
    logs_data = False
    #: Built by :meth:`open_wal` (by :meth:`DurableEngine.recover`, which
    #: knows the manifest to start from).
    _snapshots: SnapshotRegistry

    def cache_stats(self) -> dict | None:
        """Block-cache snapshot, or None when the engine has no cache."""
        return None

    def pin_snapshot(self, database: "Database") -> SnapshotHandle:
        """Pin a copy of *database*'s catalog as it is now."""
        return self._snapshots.pin(database.catalog)

    def release_snapshot(self, handle: SnapshotHandle) -> None:
        """Drop one pin; files only it kept alive are deleted."""
        self._snapshots.release(handle)

    def open_wal(self, database: "Database") -> WriteAheadLog:
        self._snapshots = SnapshotRegistry(None, None, metrics=database.obs)
        return WriteAheadLog(metrics=database.obs)

    def recover(self, database: "Database") -> None:
        """Restore durable state on open (no-op for the memory engine)."""

    def table_event(
        self, database: "Database", event: str, payload: dict
    ) -> None:
        """Observe one table mutation (no-op for the memory engine)."""

    def checkpoint(self, database: "Database") -> dict:
        """Durably flush state; returns a summary for the caller."""
        return {
            "engine": self.name,
            "lsn": database.wal.last_lsn,
            "tables": len(database.catalog.table_names()),
            "segments": 0,
            "segments_written": 0,
            "segments_carried": 0,
            "blocks_carried": 0,
            "blocks_encoded": 0,
            "segment_bytes": 0,
            "patches_bytes": 0,
            "wal_pruned": 0,  # the in-memory log keeps no record
        }

    def close(self, database: "Database") -> None:
        """Release resources held on behalf of *database*."""

    def describe(self) -> str:
        return self.name


class MemoryEngine(StorageEngine):
    """Volatile storage: nothing survives the process."""


class DurableEngine(StorageEngine):
    """Columnar segment persistence with a data WAL under one directory."""

    name = "durable"
    logs_data = True

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        sync: bool = True,
        cache_bytes: int | None = None,
    ):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StorageError(
                f"data directory {str(self.root)!r} exists and is not a directory"
            )
        self.sync = sync
        if cache_bytes is None:
            cache_bytes = cache_capacity_from_env()
        #: Shared decoded-block cache; ``None`` when disabled (``cache_bytes=0``).
        self._cache = BlockCache(cache_bytes) if cache_bytes > 0 else None
        #: One checkpoint at a time: two would write the same file names
        #: and flip manifests out of order.
        self._checkpoint_lock = make_lock("storage.engine.checkpoint")

    def cache_stats(self) -> dict | None:
        if self._cache is None:
            return None
        return self._cache.stats()

    # -- lifecycle --------------------------------------------------------

    def open_wal(self, database: "Database") -> WriteAheadLog:
        refuse_older_formats(self.root)
        log, segments = self.root / WAL_NAME, self.root / SEGMENTS_DIR
        created = [
            path
            for path in (*reversed(self.root.parents), self.root, segments)
            if not path.exists()
        ]
        for directory in created:
            disk.DISK.mkdir("open.mkdir", directory)
        if not log.exists():
            created.append(log)
        # An install that crashed before its rename: the log is whole.
        with contextlib.suppress(FileNotFoundError):
            disk.DISK.delete("open.stale_tmp_unlink", self.root / (WAL_NAME + ".tmp"))
        if self._cache is not None:
            self._cache.attach_metrics(database.obs)
        wal = WriteAheadLog(log, sync=self.sync, metrics=database.obs)
        if self.sync:
            # What this open created is named durably before the first
            # append is acknowledged; a reopen creates nothing.
            for parent in dict.fromkeys(path.parent for path in created):
                disk.DISK.fsync_path("open.dir_fsync", parent)
        return wal

    def describe(self) -> str:
        return f"durable({self.root})"

    # -- mutation logging -------------------------------------------------

    def table_event(self, database: "Database", event: str, payload: dict) -> None:
        """Append the WAL data record mirroring one table mutation: the
        mutation's columns, a delete's rowids or an update's cell as a
        column of its own."""
        table_name = payload.get("table")
        if table_name is None:  # a listener fed us a foreign event
            return
        if event in ("append", "load"):
            columns = payload["columns"]
        elif event == "delete":
            columns = {
                "rowids": ColumnVector(
                    DataType.INT64, np.asarray(payload["rowids"], dtype=np.int64)
                )
            }
        elif event == "update":
            name = payload["column"]
            dtype = database.catalog.table(table_name).schema.field(name).dtype
            columns = {name: ColumnVector.from_pylist(dtype, [payload["value"]])}
        else:
            return
        record = {"table": table_name, "row_count": len(next(iter(columns.values())))}
        if event == "update":
            record["rowid"] = int(payload["rowid"])
        database.wal.append(event, record, columns)

    # -- checkpoint -------------------------------------------------------

    def checkpoint(self, database: "Database") -> dict:
        """Write what changed, install a head record naming it, free what
        it superseded.

        Pin a copy (under the state lock, as every pin); outside every
        lock but this engine's checkpoint lock, keep the copy's clean
        partition files, write the rest, and flip to a manifest naming
        them and carrying the patch sets: the log's new head
        (:meth:`~repro.storage.wal.WriteAheadLog.install`); the release
        of the pin deletes the files no live manifest names.  Live
        partitions keep their segment sources: their readers' open files
        stay valid after a name is gone.
        """
        with self._checkpoint_lock:  # lock-ok: serializes whole checkpoints; their file writes are what it orders
            return self._checkpoint_locked(database)

    def _checkpoint_locked(self, database: "Database") -> dict:
        with database.catalog.state_lock:  # no append between pin and reserve
            handle = self._snapshots.pin(database.catalog)
            lsn, since = database.wal.reserve()
        catalog, previous = handle.catalog, handle.manifest
        obs = database.obs
        tables: dict[str, TableManifest] = {}
        table_details: dict[str, dict] = {}
        segments = 0
        counts = dict.fromkeys(CHECKPOINT_COUNTS, 0)
        try:
            for table in catalog.tables():
                name = table.name
                tables[name], detail, table_counts = flush_table(
                    self.root,
                    lsn,
                    table,
                    nsc_patch_rowids(catalog, table),
                    previous=None if previous is None else previous.tables.get(name),
                    sync=self.sync,
                )
                table_details[name] = detail
                table_segments = table.partition_count * len(table.schema)
                segments += table_segments
                for key, count in table_counts.items():
                    counts[key] += count
                obs.gauge(f"storage.{name}.segments").set(table_segments)
                obs.gauge(f"storage.{name}.segment_bytes").set(detail["segment_bytes"])
                obs.gauge(f"storage.{name}.encoded_ratio").set(detail["encoded_ratio"])
            patches, rowids = patch_sets(catalog)
            manifest = Manifest(
                checkpoint_lsn=lsn,
                tables=tables,
                indexes=[index.definition() for index in catalog.indexes()],
                patches=patches,
            )
            kept = previous.files() if previous is not None else frozenset()
            if self.sync and manifest.files() - kept:
                # The new files' names, before the log names them.
                disk.DISK.fsync_path("segments.dir_fsync", self.root / SEGMENTS_DIR)
            patches_bytes = self._snapshots.flip(manifest, rowids, database.wal, since)
        except BaseException:
            if self._snapshots.checkpoint_lsn != lsn:
                # The log never named this checkpoint and no later one
                # will: what it wrote goes now rather than at the next
                # reopen.
                written = checkpoint_files(self.root, lsn)
                delete_files([*written, self.root / (WAL_NAME + ".tmp")], obs)
            raise
        finally:
            self.release_snapshot(handle)
        # The old log held its head (if any) and one record per LSN up to
        # this checkpoint's (LSNs are consecutive but for one a failed
        # checkpoint reserved).
        pruned = lsn - (1 if previous is None else previous.checkpoint_lsn)
        obs.gauge("storage.checkpoint_lsn").set(lsn)
        obs.gauge("storage.patches_bytes").set(patches_bytes)
        carried = counts["segments_carried"]
        obs.counter("checkpoint.segments_written").inc(segments - carried)
        for key, count in counts.items():
            obs.counter(f"checkpoint.{key}").inc(count)
        return {
            "engine": self.name,
            "lsn": lsn,
            "tables": len(tables),
            "segments": segments,
            "segments_written": segments - carried,
            **counts,
            "segment_bytes": sum(d["segment_bytes"] for d in table_details.values()),
            "patches_bytes": patches_bytes,
            "wal_pruned": pruned,
            "table_details": table_details,
        }

    def close(self, database: "Database") -> None:
        database.wal.close()

    # -- recovery ---------------------------------------------------------

    def recover(self, database: "Database") -> None:
        """Materialize the directory's state into the live catalog.

        One read of the log: its head record's tables and the
        PatchIndexes its patch sets restore (or that are discovered from
        data), then every later record in order, which the indexes
        re-classify as it replays
        (:func:`~repro.storage.materialize.replay_log`).
        ``recovery.indexes_restored`` vs ``recovery.indexes_rebuilt``
        report which path each index took, ``recovery.index_fallbacks``
        how many discoveries were refused restores.
        """
        started = time.perf_counter()
        records = database.wal.records()
        first = next(records, None)
        manifest = rowids = None
        if first is not None and first.kind == "checkpoint":
            try:
                manifest = Manifest.from_payload(first.payload)
            except StorageError as exc:
                raise StorageError(f"{self.root / WAL_NAME}: {exc}") from exc
            rowids = first.columns.get(PATCH_ROWIDS)
            first = None
        # A crash before an install leaves files no head names yet, one
        # after it files only the superseded head named: nothing pins
        # either.
        named = manifest.files() if manifest is not None else frozenset()
        delete_files(
            [
                entry
                for entry in sorted((self.root / SEGMENTS_DIR).iterdir())
                if entry.is_file()
                and f"{SEGMENTS_DIR}/{entry.name}" not in named
            ],
            database.obs,
        )
        tables = load_tables(self.root, manifest, cache=self._cache)
        obs = database.obs
        for name, table in tables.items():
            # Read off the segment headers now: the replay below
            # materializes the partitions it mutates.
            obs.gauge(f"storage.{name}.encoded_ratio").set(encoded_ratio(table))
        with self._checkpoint_lock:  # what a checkpoint reads and writes
            self._snapshots = SnapshotRegistry(self.root, manifest, metrics=obs)
        recovered = replay_log(
            records if first is None else itertools.chain([first], records),
            tables,
            manifest,
            rowids,
        )
        database._install_recovered(recovered)
        obs.counter("recovery.count").inc()
        obs.histogram("recovery.seconds").observe(time.perf_counter() - started)
        obs.gauge("recovery.replayed_records").set(recovered.replayed)
        obs.gauge("recovery.indexes_restored").set(len(recovered.restored))
        obs.gauge("recovery.indexes_rebuilt").set(
            len(recovered.indexes) - len(recovered.restored)
        )
        obs.counter("recovery.index_fallbacks").inc(sum(recovered.fallbacks.values()))
        for reason, count in recovered.fallbacks.items():
            obs.counter(f"recovery.index_fallbacks.{reason}").inc(count)
