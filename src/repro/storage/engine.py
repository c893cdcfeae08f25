"""Pluggable persistence backends: the storage-engine seam.

A :class:`~repro.storage.database.Database` delegates everything about
*durability* to a :class:`StorageEngine`:

- where the :class:`~repro.storage.wal.WriteAheadLog` lives,
- whether table mutations (append / load / delete / update) are logged
  as WAL *data* records,
- what a ``CHECKPOINT`` does,
- and how a database instance is brought back after a restart.

Two engines exist.  :class:`MemoryEngine` persists nothing: its WAL is
an in-memory list.  :class:`DurableEngine` manages a *data directory*
(layout: :mod:`repro.storage.manifest`) and is the lifecycle around
three modules that do the work:

- :mod:`repro.storage.checkpoint` writes a generation: every partition
  column as a segment file (hard-linked from the previous generation
  when the column is unchanged) plus the PatchIndexes' patch sets, from
  a snapshot copy of the catalog;
- :mod:`repro.storage.materialize` reads one back: tables from segments
  and PatchIndexes from the persisted patch sets (or discovered from
  data, paper §V), then one pass over the WAL tail that the indexes
  re-classify — recovery, and nothing else;
- :mod:`repro.storage.snapshot` pins copies of the live catalog for
  readers and serializes them with the checkpoint flip.

Snapshots work on both engines: a pin copies in-memory state, it reads
no file.  The durable engine adds what a copy of lazy, segment-backed
columns needs: the generation it reads stays on disk while pinned.

The seam leaves query execution untouched: segment-backed columns sit
inside the same :class:`~repro.storage.partition.Partition` objects, so
serial and morsel-parallel scans, block pruning and the PatchSelect
rowid invariants (§VI-A1) work unchanged.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StorageError
from repro.storage.cache import BlockCache, cache_capacity_from_env
from repro.storage.checkpoint import (
    flush_table,
    nsc_patch_rowids,
    superseded_generations,
    write_patch_sets,
    written_patch_rowids,
)
from repro.storage.column import ColumnVector
from repro.storage.manifest import (
    SEGMENTS_DIR,
    WAL_NAME,
    Manifest,
    TableManifest,
    generation_name,
    read_manifest,
)
from repro.storage.materialize import load_tables, read_patch_sets, replay_log
from repro.storage.snapshot import SnapshotHandle, SnapshotRegistry
from repro.storage.table import Table
from repro.storage.wal import DATA_KINDS, WriteAheadLog, live_records_of
from repro.types import DataType
from repro.types.datatypes import coerce_scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database


# -- data-record serialization -----------------------------------------------


def column_to_jsonable(column: ColumnVector) -> list:
    """Physical scalar list for a WAL data record (``None`` for NULL)."""
    if column.values.dtype == np.dtype(object):
        out: list = list(column.values)
    else:
        out = column.values.tolist()
    if column.validity is not None:
        for position in np.flatnonzero(~column.validity):
            out[int(position)] = None
    return out


def scalar_to_jsonable(value: object, dtype: DataType) -> object:
    """Physical representation of one cell value (dates → day numbers)."""
    coerced = coerce_scalar(value, dtype)
    if isinstance(coerced, np.generic):  # pragma: no cover - defensive
        return coerced.item()
    return coerced


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

    The base class implements the in-memory behaviour: table data and
    the WAL live in memory, a checkpoint writes a WAL marker and
    compacts the log, and there is nothing to recover.
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
        return self._snapshots.pin(database.catalog, database.wal)

    def release_snapshot(self, handle: SnapshotHandle) -> None:
        """Drop one pin; deferred generation GC may run."""
        for stale in self._snapshots.release(handle):
            shutil.rmtree(stale, ignore_errors=True)

    def encoded_ratios(self) -> dict[str, float]:
        """Per-table encoded/raw payload byte ratio (empty without one)."""
        return {}

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
        lsn = database.wal.last_lsn
        database.wal.checkpoint({"checkpoint_lsn": lsn})
        pruned = database.wal.compact()
        return {
            "engine": self.name,
            "lsn": lsn,
            "tables": len(database.catalog.table_names()),
            "segments": 0,
            "segments_written": 0,
            "segments_carried": 0,
            "segment_bytes": 0,
            "wal_pruned": pruned,
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
        #: Per-table encoded/raw byte ratio, refreshed at checkpoint and
        #: recovery.
        self._encoded_ratios: dict[str, float] = {}

    def cache_stats(self) -> dict | None:
        if self._cache is None:
            return None
        return self._cache.stats()

    def encoded_ratios(self) -> dict[str, float]:
        """Per-table encoded/raw payload byte ratio (≤ 1.0 when smaller)."""
        return dict(self._encoded_ratios)

    # -- lifecycle --------------------------------------------------------

    def open_wal(self, database: "Database") -> WriteAheadLog:
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / SEGMENTS_DIR).mkdir(exist_ok=True)
        if self._cache is not None:
            self._cache.attach_metrics(database.obs)
        return WriteAheadLog(
            self.root / WAL_NAME,
            sync=self.sync,
            tolerate_torn_tail=True,
            metrics=database.obs,
        )

    def describe(self) -> str:
        return f"durable({self.root})"

    # -- mutation logging -------------------------------------------------

    def table_event(self, database: "Database", event: str, payload: dict) -> None:
        """Append the WAL data record mirroring one table mutation."""
        table_name = payload.get("table")
        if table_name is None:  # a listener fed us a foreign event
            return
        record: dict = {"table": table_name}
        if event in ("append", "load"):
            record["columns"] = {
                name: column_to_jsonable(column)
                for name, column in payload["columns"].items()
            }
            if event == "append":
                record["row_count"] = payload["row_count"]
            else:
                record["round_robin"] = bool(payload.get("round_robin", False))
        elif event == "delete":
            record["rowids"] = np.asarray(payload["rowids"]).tolist()
        elif event == "update":
            dtype = database.catalog.table(table_name).schema.field(
                payload["column"]
            ).dtype
            record["rowid"] = int(payload["rowid"])
            record["column"] = payload["column"]
            record["value"] = scalar_to_jsonable(payload["value"], dtype)
        else:
            return
        database.wal.append(event, record)

    # -- checkpoint -------------------------------------------------------

    def checkpoint(self, database: "Database") -> dict:
        """Flush a generation, flip the manifest to it, drop the old ones.

        Pin a copy (under the state lock, as every pin); outside every
        lock, carry the copy's clean segments into the new generation,
        write the rest and the patch sets, flip, release.  Live
        partitions keep their segment sources: their readers' open files
        stay valid after the old generation's names are gone.
        """
        handle = self._snapshots.pin(database.catalog, database.wal)
        catalog, lsn = handle.catalog, handle.wal_lsn
        obs = database.obs
        tables: dict[str, TableManifest] = {}
        table_details: dict[str, dict] = {}
        segments = carried = 0
        try:
            written_rowids = written_patch_rowids(self.root, handle.generation_lsn)
            for table in catalog.tables():
                name = table.name
                tables[name], detail, table_carried = flush_table(
                    self.root,
                    lsn,
                    table,
                    nsc_patch_rowids(catalog, table),
                    previous_lsn=handle.generation_lsn,
                    written_rowids=(
                        None if written_rowids is None else written_rowids.get(name, {})
                    ),
                    sync=self.sync,
                )
                table_details[name] = detail
                self._encoded_ratios[name] = detail["encoded_ratio"]
                table_segments = table.partition_count * len(table.schema)
                segments += table_segments
                carried += table_carried
                obs.gauge(f"storage.{name}.segments").set(table_segments)
                obs.gauge(f"storage.{name}.segment_bytes").set(detail["segment_bytes"])
                obs.gauge(f"storage.{name}.encoded_ratio").set(detail["encoded_ratio"])
            write_patch_sets(self.root, lsn, catalog, sync=self.sync)
            manifest = Manifest(checkpoint_lsn=lsn, tables=tables)
            pruned, doomed = self._snapshots.flip(
                manifest, database.wal, sync=self.sync
            )
        finally:
            self.release_snapshot(handle)
        for stale in doomed:
            shutil.rmtree(stale, ignore_errors=True)
        obs.gauge("storage.checkpoint_lsn").set(lsn)
        obs.counter("checkpoint.segments_written").inc(segments - carried)
        obs.counter("checkpoint.segments_carried").inc(carried)
        return {
            "engine": self.name,
            "lsn": lsn,
            "tables": len(tables),
            "segments": segments,
            "segments_written": segments - carried,
            "segments_carried": carried,
            "segment_bytes": sum(d["segment_bytes"] for d in table_details.values()),
            "wal_pruned": pruned,
            "table_details": table_details,
        }

    # -- recovery ---------------------------------------------------------

    def recover(self, database: "Database") -> None:
        """Materialize the directory's state into the live catalog.

        The manifest's tables and the PatchIndexes its patch sets restore
        (or that are discovered from data), then one pass over the WAL
        tail in LSN order that the indexes re-classify as it replays
        (:func:`~repro.storage.materialize.replay_log`).
        ``recovery.indexes_restored`` vs ``recovery.indexes_rebuilt``
        report which path each index took, ``recovery.index_fallbacks``
        how many discoveries were refused restores.
        """
        started = time.perf_counter()
        manifest = read_manifest(self.root)
        generation_lsn = manifest.checkpoint_lsn if manifest is not None else 0
        # A crash before a flip leaves a half-written generation, one
        # after it the superseded one: nothing pins either.
        orphans, _ = superseded_generations(
            self.root / SEGMENTS_DIR, generation_name(generation_lsn), {}
        )
        for orphan in orphans:
            shutil.rmtree(orphan, ignore_errors=True)
        cache = self._cache
        self._snapshots = SnapshotRegistry(self.root, manifest, metrics=database.obs)
        records = database.wal.records()
        tables = load_tables(self.root, manifest, cache=cache)
        for name, table in tables.items():
            # Read off the segment headers now: the tail replay below
            # materializes the partitions it mutates.
            self._encoded_ratios[name] = encoded_ratio(table)
        recovered = replay_log(
            records, tables, generation_lsn, read_patch_sets(self.root, generation_lsn)
        )
        database._install_recovered(recovered)
        obs = database.obs
        obs.counter("recovery.count").inc()
        obs.histogram("recovery.seconds").observe(time.perf_counter() - started)
        obs.gauge("recovery.replayed_records").set(
            sum(
                1
                for record in live_records_of(records)
                if record.kind in DATA_KINDS and record.lsn > generation_lsn
            )
        )
        obs.gauge("recovery.indexes_restored").set(len(recovered.restored))
        obs.gauge("recovery.indexes_rebuilt").set(
            len(recovered.indexes) - len(recovered.restored)
        )
        obs.counter("recovery.index_fallbacks").inc(sum(recovered.fallbacks.values()))
        for reason, count in recovered.fallbacks.items():
            obs.counter(f"recovery.index_fallbacks.{reason}").inc(count)
