"""What a checkpoint writes: one generation of segments and patch sets.

A checkpoint at WAL LSN *n* writes a fresh *generation* directory
``segments/g<n>/`` — every column of every partition as an immutable
segment file, plus ``patches.json``, the materialized patch sets of
every PatchIndex — from a snapshot copy of the catalog pinned at *n*,
outside every lock: nothing can see the directory until the manifest
flips to it (:meth:`repro.storage.snapshot.SnapshotRegistry.flip`).
The functions here are the writers; :mod:`repro.storage.materialize` is
the reader of everything they produce.  :func:`superseded_generations`
picks what the flip may delete afterwards.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.database import schema_to_payload
from repro.storage.manifest import (
    SEGMENTS_DIR,
    PartitionManifest,
    TableManifest,
    generation_name,
    patches_path,
)
from repro.storage.segment import write_segment
from repro.storage.table import Table


def nsc_patch_rowids(
    catalog: Catalog, table: Table
) -> dict[str, dict[int, np.ndarray]]:
    """Partition-local NSC patch rowids per column of *table*.

    The patch-aware ``pfor`` codec stores exactly these rows verbatim so
    the kept values pack at the clean-column rate — the compressor
    reusing the PatchIndex's knowledge (paper §VIII).
    """
    per_column: dict[str, dict[int, np.ndarray]] = {}
    for index in catalog.indexes_on(table.name):
        if index.kind != "sorted":
            continue
        by_partition = per_column.setdefault(index.column_name, {})
        for partition in table.partitions:
            rowids = index.partition_patches(partition.partition_id).rowids()
            existing = by_partition.get(partition.partition_id)
            if existing is not None:
                rowids = np.union1d(existing, rowids)
            by_partition[partition.partition_id] = np.asarray(
                rowids, dtype=np.int64
            )
    return per_column


def flush_table(
    root: Path,
    checkpoint_lsn: int,
    table: Table,
    patch_rowids: dict[str, dict[int, np.ndarray]],
    *,
    sync: bool,
) -> tuple[TableManifest, dict]:
    """Write every partition column of *table* into the new generation,
    each block in the encoding the per-block picker chooses.

    Returns the table's manifest entry and its checkpoint-summary detail
    (``segment_bytes``, ``encoded_ratio``, per-column bytes and encoding
    counts).
    """
    relative_dir = f"{SEGMENTS_DIR}/{generation_name(checkpoint_lsn)}/{table.name}"
    table_dir = root / relative_dir
    table_dir.mkdir(parents=True, exist_ok=True)
    partition_manifests: list[PartitionManifest] = []
    columns: dict[str, dict] = {
        field.name: {"segment_bytes": 0, "encodings": {}} for field in table.schema
    }
    table_bytes = 0
    payload_total = 0
    raw_payload_total = 0
    for partition in table.partitions:
        segments: dict[str, str] = {}
        for field in table.schema:
            filename = f"p{partition.partition_id}.{field.name}.seg"
            info = write_segment(
                table_dir / filename,
                partition.column(field.name),
                table.block_size,
                sync=sync,
                patch_rowids=patch_rowids.get(field.name, {}).get(
                    partition.partition_id
                ),
            )
            segments[field.name] = f"{relative_dir}/{filename}"
            table_bytes += info.bytes_written
            detail = columns[field.name]
            detail["segment_bytes"] += info.bytes_written
            for tag, count in info.encodings.items():
                detail["encodings"][tag] = detail["encodings"].get(tag, 0) + count
            payload_total += info.payload_bytes
            raw_payload_total += info.raw_payload_bytes
        partition_manifests.append(
            PartitionManifest(row_count=partition.row_count, segments=segments)
        )
    table_manifest = TableManifest(
        name=table.name,
        schema=schema_to_payload(table.schema),
        block_size=table.block_size,
        partitions=partition_manifests,
    )
    detail = {
        "segment_bytes": table_bytes,
        "encoded_ratio": (
            payload_total / raw_payload_total if raw_payload_total else 1.0
        ),
        "columns": columns,
    }
    return table_manifest, detail


def entry_checksum(entry: dict) -> int:
    """CRC-32 over the canonical JSON of a ``patches.json`` entry,
    leaving out its own ``checksum`` key."""
    body = {key: value for key, value in entry.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def persisted_index_entry(index) -> dict:
    """Checksummed ``patches.json`` entry for one PatchIndex.

    Captures everything a restore needs without touching table data: the
    definition (to match against the WAL ``create_index`` record), the
    physical design, the rebuild count, the drift counters and the
    materialized per-partition patch sets as of the checkpoint.
    """
    stats = index.maintenance_stats()
    body = {
        "definition": {
            "name": index.name,
            "table": index.table_name,
            "column": index.column_name,
            "kind": index.kind,
            "mode": index.mode.value if index.mode is not None else None,
            "threshold": index.threshold,
            "scope": index.scope,
            "ascending": index.ascending,
            "strict": index.strict,
        },
        "design": index.design,
        "rebuild_count": index.rebuild_count,
        "stats": stats.to_payload() if stats is not None else None,
        "partitions": [
            {
                "row_count": index.partition_patches(pid).row_count,
                "rowids": index.partition_patches(pid).rowids().tolist(),
            }
            for pid in range(index.table.partition_count)
        ],
    }
    body["checksum"] = entry_checksum(body)
    return body


def write_patch_sets(
    root: Path, checkpoint_lsn: int, catalog: Catalog, *, sync: bool
) -> None:
    """Materialize every index's patch sets into the new generation.

    With the patch sets persisted per checkpoint, recovery restores them
    and lets the indexes re-classify the WAL tail's data records, instead
    of re-discovering every index from data.  Readers find the file by
    *checkpoint_lsn* (:func:`~repro.storage.manifest.patches_path`).
    """
    entries = {
        index.name: persisted_index_entry(index)
        for table in catalog.tables()
        for index in catalog.indexes_on(table.name)
    }
    path = patches_path(root, checkpoint_lsn)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"checkpoint_lsn": checkpoint_lsn, "indexes": entries}, handle)
        handle.write("\n")
        handle.flush()
        if sync:
            os.fsync(handle.fileno())


def superseded_generations(
    segments_root: Path, current: str, pinned: dict[str, int]
) -> tuple[list[Path], set[str]]:
    """Split the generations a checkpoint superseded into (doomed, deferred).

    A generation still pinned by a live snapshot is *deferred*: it stays
    on disk until its last pin drops, so a checkpoint never deletes
    files an in-flight scan reads.  Everything else that is not
    *current* is *doomed*: unreachable from any future pin, safe to
    delete once the caller has released the snapshot lock.
    """
    doomed: list[Path] = []
    deferred: set[str] = set()
    for entry in segments_root.iterdir():
        if entry.name == current or not entry.is_dir():
            continue
        if pinned.get(entry.name, 0) > 0:
            deferred.add(entry.name)
        else:
            doomed.append(entry)
    return doomed, deferred
