"""What a checkpoint writes: one generation of segments and patch sets.

A checkpoint at WAL LSN *n* fills a fresh *generation* directory
``segments/g<n>/`` — every column of every partition as an immutable
segment file, plus ``patches.json``, the materialized patch sets of
every PatchIndex — from a snapshot copy of the catalog pinned at *n*,
outside every lock: nothing can see the directory until the manifest
flips to it (:meth:`repro.storage.snapshot.SnapshotRegistry.flip`).

Only what changed is written.  A partition column that still holds the
segment it was loaded from (:meth:`~repro.storage.partition.Partition.
segment_source`), whose file in the current generation is still that
segment, and whose NSC patch rowids (the ``pfor`` hint) match the ones
that generation recorded, is *carried*: hard-linked into the new
directory, byte-identical to what a rewrite would produce.  Deleting the
superseded generation then frees only the inodes of rewritten files.

The functions here are the writers; :mod:`repro.storage.materialize` is
the reader of everything they produce.  :func:`superseded_generations`
picks what the flip (or a reopen) may delete.
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
from repro.storage.segment import SegmentReader, write_segment
from repro.storage.table import Table

#: Partition-local NSC patch rowids per column, then per partition id.
PatchRowids = dict[str, dict[int, np.ndarray]]


def _add_rowids(
    per_column: PatchRowids, column: str, partition_id: int, rowids
) -> None:
    by_partition = per_column.setdefault(column, {})
    existing = by_partition.get(partition_id)
    if existing is not None:
        rowids = np.union1d(existing, rowids)
    by_partition[partition_id] = np.asarray(rowids, dtype=np.int64)


def nsc_patch_rowids(catalog: Catalog, table: Table) -> PatchRowids:
    """Partition-local NSC patch rowids per column of *table*.

    The patch-aware ``pfor`` codec stores exactly these rows verbatim so
    the kept values pack at the clean-column rate — the compressor
    reusing the PatchIndex's knowledge (paper §VIII).
    """
    per_column: PatchRowids = {}
    for index in catalog.indexes_on(table.name):
        if index.kind != "sorted":
            continue
        for partition in table.partitions:
            rowids = index.partition_patches(partition.partition_id).rowids()
            _add_rowids(per_column, index.column_name, partition.partition_id, rowids)
    return per_column


def written_patch_rowids(
    root: Path, generation_lsn: int
) -> dict[str, PatchRowids] | None:
    """Per table, the :func:`nsc_patch_rowids` the segments of generation
    *generation_lsn* were written with, read back from its
    ``patches.json`` (written from the same catalog copy).  ``None`` when
    there is no such generation or its file cannot be read: then nothing
    is carried from it.  A hint only picks encodings, so a wrong one
    could cost compression, never rows.
    """
    if generation_lsn <= 0:
        return None
    per_table: dict[str, PatchRowids] = {}
    try:
        text = patches_path(root, generation_lsn).read_text(encoding="utf-8")
        for entry in json.loads(text)["indexes"].values():
            definition = entry["definition"]
            if definition["kind"] != "sorted":
                continue
            per_column = per_table.setdefault(definition["table"], {})
            for partition_id, patches in enumerate(entry["partitions"]):
                _add_rowids(
                    per_column, definition["column"], partition_id, patches["rowids"]
                )
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return per_table


def _same_rowids(left: np.ndarray | None, right: np.ndarray | None) -> bool:
    """Whether two ``pfor`` hints are the same row set (None = empty)."""
    empty = np.empty(0, dtype=np.int64)
    return np.array_equal(
        np.unique(empty if left is None else left),
        np.unique(empty if right is None else right),
    )


def link_segment(
    reader: SegmentReader, previous: Path, target: Path, *, sync: bool
) -> bool:
    """Hard-link *previous* to *target* when it is the very file *reader*
    has open; False (the caller rewrites) when it is not, or when the
    file system refuses the link."""
    try:
        status = os.stat(previous)
        if (status.st_dev, status.st_ino) != reader.file_id():
            return False
        try:
            os.link(previous, target)
        except FileExistsError:  # left by a checkpoint that failed before its flip
            os.unlink(target)
            os.link(previous, target)
    except OSError:
        return False
    if sync:
        # The generation the file came from may have been written with
        # sync=False; the manifest must not point at unsynced data.
        descriptor = os.open(target, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
    return True


def flush_table(
    root: Path,
    checkpoint_lsn: int,
    table: Table,
    patch_rowids: PatchRowids,
    *,
    previous_lsn: int,
    written_rowids: PatchRowids | None,
    sync: bool,
) -> tuple[TableManifest, dict, int]:
    """Fill *table*'s directory of the new generation: carry each clean
    partition column's segment from generation *previous_lsn* by hard
    link, write every other one, each block in the encoding the
    per-block picker chooses.

    *written_rowids* is the ``pfor`` hint the previous generation's
    segments were written with (:func:`written_patch_rowids`; ``None``
    carries nothing).  Returns the table's manifest entry, its
    checkpoint-summary detail (``segment_bytes``, ``encoded_ratio``,
    per-column bytes and encoding counts — the same for a carried
    segment as for a rewritten one) and how many segments were carried.
    """
    relative_dir = f"{SEGMENTS_DIR}/{generation_name(checkpoint_lsn)}/{table.name}"
    table_dir = root / relative_dir
    table_dir.mkdir(parents=True, exist_ok=True)
    previous_dir = root / SEGMENTS_DIR / generation_name(previous_lsn) / table.name
    carried = 0
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
            hint = patch_rowids.get(field.name, {}).get(partition.partition_id)
            source = partition.segment_source(field.name)
            if (
                source is not None
                and written_rowids is not None
                and _same_rowids(
                    hint,
                    written_rowids.get(field.name, {}).get(partition.partition_id),
                )
                and link_segment(
                    source.reader,
                    previous_dir / filename,
                    table_dir / filename,
                    sync=sync,
                )
            ):
                info = source.reader.write_info()
                carried += 1
            else:
                info = write_segment(
                    table_dir / filename,
                    partition.column(field.name),
                    table.block_size,
                    sync=sync,
                    patch_rowids=hint,
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
    return table_manifest, detail, carried


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
    """Split the generations other than *current* into (doomed, deferred).

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
