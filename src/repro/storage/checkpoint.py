"""What a checkpoint writes: partition files and the head's patch sets.

A checkpoint at WAL LSN *n* works from a snapshot copy of the catalog
pinned at *n*, outside every lock, and produces the next manifest:
every partition as one file in ``segments/`` holding its columns'
segments back to back, plus ``patches``, an entry per PatchIndex, and
the patch rowids of them all, the head's one column (:func:`patch_sets`).
Nothing can see what it writes until the manifest flips
(:meth:`repro.storage.snapshot.SnapshotRegistry.flip`).

Only what changed is written.  A partition column that still holds the
segment it was loaded from (:meth:`~repro.storage.partition.Partition.
segment_source`), at the file and offset the previous manifest names for
it, and whose NSC patch rowids (the ``pfor`` hint) have the digest that
manifest recorded for the segment (:func:`hint_digest`), is *clean*: its
encoded bytes are what a rewrite would produce.  A partition whose
columns are all clean, and whose file on disk is still the inode its
readers hold, *keeps* that file: the new manifest names it again and
nothing is written.  Any other partition gets a new file
``<table>.p<k>.<n>.seg`` in which clean columns are copied as encoded
bytes and the rest are encoded with *block carry*: each column's
segment in the previous manifest (the checkpoint's pin keeps its file)
is decoded and compared with the column bit for bit, and a block whose
rows are unchanged in place, under a ``pfor`` hint that would not change
its encoding, is copied as its encoded bytes with its header entry
(:func:`repro.storage.segment.encode_segment`); only the other blocks
are encoded.  Appends and a delete near the end of the last partition
so re-encode the last one or two blocks of each column, and the file is
byte for byte a full re-encode.  Superseding the previous manifest then
frees only the files of rewritten partitions.

The functions here are the writers; :mod:`repro.storage.materialize` is
the reader of everything they produce.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import StorageError
from repro.storage import disk
from repro.storage.catalog import Catalog
from repro.storage.database import schema_to_payload
from repro.storage.manifest import PartitionManifest, TableManifest, partition_file
from repro.storage.segment import (
    SegmentReader,
    SegmentWriteInfo,
    encode_segment,
    write_segments,
)
from repro.storage.table import Table

#: Partition-local NSC patch rowids per column, then per partition id.
PatchRowids = dict[str, dict[int, np.ndarray]]


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
        by_partition = per_column.setdefault(index.column_name, {})
        for partition in table.partitions:
            pid = partition.partition_id
            rowids = index.partition_patches(pid).rowids()
            if pid in by_partition:  # a second sorted index on the column
                rowids = np.union1d(by_partition[pid], rowids)
            by_partition[pid] = np.asarray(rowids, dtype=np.int64)
    return per_column


def hint_digest(rowids: np.ndarray | None) -> int:
    """CRC-32 of a ``pfor`` hint's distinct rowids (that of no rowids
    when *rowids* is None): what the manifest records next to each
    segment, so a later checkpoint can tell whether the hint it would
    encode with has changed.  A hint only picks encodings, so a
    colliding digest could cost compression, never rows."""
    empty = np.empty(0, dtype=np.int64)
    unique = np.unique(empty if rowids is None else np.asarray(rowids))
    return zlib.crc32(unique.astype("<i8").tobytes())


#: What :func:`flush_table` counts: column segments kept or copied
#: whole, and the blocks of the segments it encoded, carried as bytes
#: from the previous segment or encoded afresh.
CHECKPOINT_COUNTS = ("segments_carried", "blocks_carried", "blocks_encoded")


def _previous_segment(
    root: Path, before: PartitionManifest | None, name: str
) -> SegmentReader | None:
    """The segment of column *name* that *before* names, whose blocks a
    new encode may carry; ``None`` when there is none, or when its file
    no longer opens as one (a full encode writes the same bytes).  The
    checkpoint's pin keeps the file on disk."""
    if before is None or name not in before.segments:
        return None
    offset, length, _ = before.segments[name]
    try:
        return SegmentReader(root / before.file, offset, length)
    except (OSError, StorageError):
        return None


def _file_is_held(path: Path, readers: list[SegmentReader], *, sync: bool) -> bool:
    """Whether *path* is still the very file every one of *readers* has
    open (with ``sync``, then fsynced: the checkpoint that wrote it may
    have run with ``sync=False``, and a manifest must not name unsynced
    data)."""
    try:
        status = os.stat(path)
    except OSError:
        return False
    if any((status.st_dev, status.st_ino) != reader.file_id() for reader in readers):
        return False
    if sync:
        disk.DISK.fsync_path("segments.carried_fsync", path)
    return True


def flush_table(
    root: Path,
    checkpoint_lsn: int,
    table: Table,
    patch_rowids: PatchRowids,
    *,
    previous: TableManifest | None,
    sync: bool,
) -> tuple[TableManifest, dict, dict[str, int]]:
    """Keep or write each partition file of *table* for the checkpoint at
    *checkpoint_lsn*, each block of a newly encoded segment carried or in
    the encoding the per-block picker chooses.

    *previous* is the table's entry in the manifest being superseded
    (``None`` makes nothing clean and carries no block).  Returns the
    table's manifest entry, its checkpoint-summary detail
    (``segment_bytes``, ``encoded_ratio``, per-column bytes and encoding
    counts — the same for a reused segment or a carried block as for a
    re-encoded one) and its :data:`CHECKPOINT_COUNTS`.
    """
    counts = dict.fromkeys(CHECKPOINT_COUNTS, 0)
    partition_manifests: list[PartitionManifest] = []
    columns: dict[str, dict] = {
        field.name: {"segment_bytes": 0, "encodings": {}} for field in table.schema
    }
    table_bytes = 0
    payload_total = 0
    raw_payload_total = 0
    for partition in table.partitions:
        pid = partition.partition_id
        before = (
            previous.partitions[pid]
            if previous is not None and pid < previous.partition_count
            else None
        )
        hints = {
            name: hint_digest(patch_rowids.get(name, {}).get(pid))
            for name in table.schema.names
        }
        clean: dict[str, SegmentReader] = {}
        for name in table.schema.names:
            source = partition.segment_source(name)
            if source is None or before is None or source.segment != before.file:
                continue
            offset, _, hint = before.segments[name]
            if (offset, hint) == (source.reader.offset, hints[name]):
                clean[name] = source.reader
        infos: list[SegmentWriteInfo] = []
        if (
            before is not None
            and len(clean) == len(table.schema)
            and _file_is_held(root / before.file, list(clean.values()), sync=sync)
        ):
            entry = before
            infos = [clean[name].write_info() for name in table.schema.names]
        else:

            def segments() -> Iterator[list[bytes]]:
                """Each column's segment pieces, the clean ones copied,
                the others encoded with the unchanged blocks carried."""
                for name in table.schema.names:
                    reader = clean.get(name)
                    if reader is not None:
                        infos.append(reader.write_info())
                        yield [reader.raw_bytes()]
                        continue
                    previous_segment = _previous_segment(root, before, name)
                    try:
                        pieces, info = encode_segment(
                            partition.column(name),
                            table.block_size,
                            patch_rowids=patch_rowids.get(name, {}).get(pid),
                            previous=previous_segment,
                        )
                    finally:
                        if previous_segment is not None:
                            previous_segment.close()
                    counts["blocks_carried"] += info.blocks_carried
                    counts["blocks_encoded"] += (
                        sum(info.encodings.values()) - info.blocks_carried
                    )
                    infos.append(info)
                    yield pieces

            file = partition_file(table.name, pid, checkpoint_lsn)
            extents = write_segments(root / file, segments(), sync=sync)
            entry = PartitionManifest(
                row_count=partition.row_count,
                file=file,
                segments={
                    name: (offset, length, hints[name])
                    for name, (offset, length) in zip(table.schema.names, extents)
                },
            )
        counts["segments_carried"] += len(clean)
        partition_manifests.append(entry)
        for field, info in zip(table.schema, infos):
            table_bytes += info.bytes_written
            detail = columns[field.name]
            detail["segment_bytes"] += info.bytes_written
            for tag, count in info.encodings.items():
                detail["encodings"][tag] = detail["encodings"].get(tag, 0) + count
            payload_total += info.payload_bytes
            raw_payload_total += info.raw_payload_bytes
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
    return table_manifest, detail, counts


def persisted_index_entry(index, rowids: list[np.ndarray]) -> dict:
    """Manifest ``patches`` entry for one PatchIndex; appends its
    per-partition patch rowids to *rowids*.

    Captures everything a restore needs without touching table data: the
    definition (to match against the one the log's head carries), the
    physical design, the rebuild count, the drift counters and, per
    partition, the row count and the patch count the head's rowid column
    is sliced by.
    """
    stats = index.maintenance_stats()
    partitions = []
    for pid in range(index.table.partition_count):
        patches = index.partition_patches(pid)
        rowids.append(patches.rowids())
        partitions.append(
            {"row_count": patches.row_count, "patch_count": len(rowids[-1])}
        )
    return {
        "definition": index.definition(),
        "design": index.design,
        "rebuild_count": index.rebuild_count,
        "stats": stats.to_payload() if stats is not None else None,
        "partitions": partitions,
    }


def patch_sets(catalog: Catalog) -> tuple[dict[str, dict], np.ndarray]:
    """Every index's :func:`persisted_index_entry`, by index name — the
    manifest's ``patches`` — and their rowids back to back in that
    order: the head's :data:`~repro.storage.manifest.PATCH_ROWIDS`.

    With the patch sets persisted per checkpoint, recovery restores them
    and lets the indexes re-classify the data records after the log's
    head, instead of re-discovering every index from data.
    """
    rowids: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    entries = {
        index.name: persisted_index_entry(index, rowids)
        for table in catalog.tables()
        for index in catalog.indexes_on(table.name)
    }
    return entries, np.concatenate(rowids)
