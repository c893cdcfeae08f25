"""The manifest: what a checkpoint record holds, and the directory layout.

A checkpoint is the head record of the log (:mod:`repro.storage.wal`):
the first frame of ``wal.log``, a ``checkpoint`` record whose JSON
header is a :class:`Manifest`.  It names every table, its schema and partition
layout, the file backing each partition and where in it each column's
segment sits, the definition of every PatchIndex, and ``patches``, per
index its design, drift counters and per-partition patch counts, all
as of one ``checkpoint_lsn``.  No rowid enters the manifest: the head's
one column, :data:`PATCH_ROWIDS`, holds them.  Every later frame of the log
is a record with a greater LSN: recovery
(:mod:`repro.storage.materialize`) loads the manifest and replays them.

This module owns the manifest's JSON and the layout of the data
directory::

    <root>/wal.log                          head record + the log after it
    <root>/segments/<table>.p<k>.<lsn>.seg  one file per partition

A partition file holds its columns' segments back to back and is
written once, by the checkpoint at ``<lsn>``; every later manifest that
keeps the partition unchanged names the same file, with each column's
``[offset, length, hint]`` (the hint a digest of the NSC patch rowids
the segment was encoded around).  So a checkpoint adds only the files
of partitions it rewrote, and superseding a manifest frees only the
files no live manifest names
(:class:`repro.storage.snapshot.SnapshotRegistry`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import quote

from repro.errors import StorageError

#: Bump when the log, manifest or segment layout changes incompatibly.
#: Version 7 is the log as binary frames (``wal.log``), the patch rowids
#: a column of the head.  Older directories are refused, not read: 6
#: kept the rowids as JSON in the head's header; 5 kept the head record
#: in a JSON-lines ``wal.jsonl``; 4 and older keep a ``manifest.json`` —
#: 1-2 (raw RSEG1 segments, no persisted patch sets) never shipped in a
#: directory, 3 kept one directory of per-column files and a
#: ``patches.json`` per checkpoint, 4 the manifest in its own file.
FORMAT_VERSION = 7

#: The head record's one column: every index's per-partition patch
#: rowids (partition-local), back to back in the order of ``patches``.
PATCH_ROWIDS = "rowids"

WAL_NAME = "wal.log"
#: The log of a format-5 directory.
JSONL_WAL_NAME = "wal.jsonl"
SEGMENTS_DIR = "segments"


def partition_file(table: str, partition_id: int, checkpoint_lsn: int) -> str:
    """Data-directory-relative name of the file the checkpoint at
    *checkpoint_lsn* writes for one partition of *table* (a quoted table
    name may hold ``/``: it is percent-encoded, never a path)."""
    name = quote(table, safe="")
    return f"{SEGMENTS_DIR}/{name}.p{partition_id}.{checkpoint_lsn:012d}.seg"


def checkpoint_files(root: Path, checkpoint_lsn: int) -> list[Path]:
    """The partition files in *root* that the checkpoint at
    *checkpoint_lsn* wrote: each name :func:`partition_file` gives it
    ends in that LSN."""
    suffix = f".{checkpoint_lsn:012d}.seg"
    return sorted(
        entry
        for entry in (root / SEGMENTS_DIR).iterdir()
        if entry.name.endswith(suffix)
    )


def refuse_older_formats(root: Path) -> None:
    """Raise :class:`StorageError` when *root* is a directory of an older
    format: one holding a ``manifest.json`` (format 4 or older, named by
    the version it records) or a JSON-lines ``wal.jsonl`` (format 5)."""
    path = root / "manifest.json"
    if path.exists():
        try:
            version = json.loads(path.read_text(encoding="utf-8")).get(
                "format_version"
            )
        except (OSError, ValueError, AttributeError):
            version = "unknown"
        raise StorageError(
            f"{path}: manifest format version {version} is not supported "
            f"(expected {FORMAT_VERSION}: the checkpoint is the head of {WAL_NAME})"
        )
    if (root / JSONL_WAL_NAME).exists():
        raise StorageError(
            f"{root / JSONL_WAL_NAME}: a format 5 log (JSON lines) is not "
            f"supported (expected format {FORMAT_VERSION}: binary frames in "
            f"{WAL_NAME})"
        )


@dataclass(frozen=True)
class PartitionManifest:
    """One partition: its row count, its file, and each column's segment
    in that file as ``(offset, length, hint)``.  *hint* is the digest of
    the NSC patch rowids the segment's ``pfor`` blocks were encoded
    around (:func:`repro.storage.checkpoint.hint_digest`)."""

    row_count: int
    #: Partition file path relative to the data directory.
    file: str
    segments: dict[str, tuple[int, int, int]]


@dataclass(frozen=True)
class TableManifest:
    """One table: schema payload, layout, and its partition manifests."""

    name: str
    #: Schema serialized as in WAL ``create_table`` records.
    schema: list[dict]
    block_size: int
    partitions: list[PartitionManifest]

    @property
    def partition_count(self) -> int:
        return len(self.partitions)


@dataclass(frozen=True)
class Manifest:
    """Snapshot of the durable state as of ``checkpoint_lsn``."""

    checkpoint_lsn: int
    tables: dict[str, TableManifest] = field(default_factory=dict)
    #: Every PatchIndex's definition, a ``create_index`` payload
    #: (:meth:`repro.core.patch_index.PatchIndex.definition`), in catalog
    #: order.
    indexes: list[dict] = field(default_factory=list)
    #: Index name → patch-set entry, its rowids left out
    #: (:func:`repro.storage.checkpoint.persisted_index_entry`).
    patches: dict[str, dict] = field(default_factory=dict)

    def files(self) -> frozenset[str]:
        """Every partition file this manifest names."""
        return frozenset(
            partition.file
            for table in self.tables.values()
            for partition in table.partitions
        )

    def to_payload(self) -> dict:
        """The head record's JSON header (:meth:`from_payload` reads it)."""
        return {
            "format_version": FORMAT_VERSION,
            "checkpoint_lsn": self.checkpoint_lsn,
            "tables": {
                name: {
                    "schema": table.schema,
                    "block_size": table.block_size,
                    "partitions": [asdict(partition) for partition in table.partitions],
                }
                for name, table in sorted(self.tables.items())
            },
            "indexes": self.indexes,
            "patches": self.patches,
        }

    @classmethod
    def from_payload(cls, raw: dict) -> "Manifest":
        """The manifest a checkpoint record's header holds."""
        if "checkpoint_lsn" not in raw:
            raise StorageError("corrupt manifest: missing checkpoint_lsn")
        version = raw.get("format_version")
        if version != FORMAT_VERSION:
            raise StorageError(
                f"manifest format version {version} is not supported "
                f"(expected {FORMAT_VERSION})"
            )
        try:
            tables = {
                name: _table_from_json(name, entry)
                for name, entry in raw.get("tables", {}).items()
            }
            indexes = [dict(definition) for definition in raw.get("indexes", [])]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StorageError(f"corrupt manifest: bad table entry ({exc!r})") from exc
        patches = raw.get("patches")
        return cls(
            checkpoint_lsn=int(raw["checkpoint_lsn"]),
            tables=tables,
            indexes=indexes,
            patches=dict(patches) if isinstance(patches, dict) else {},
        )


def _table_from_json(name: str, entry: dict) -> TableManifest:
    return TableManifest(
        name=name,
        schema=list(entry["schema"]),
        block_size=int(entry["block_size"]),
        partitions=[
            PartitionManifest(
                row_count=int(partition["row_count"]),
                file=str(partition["file"]),
                segments={
                    column: (int(offset), int(length), int(hint))
                    for column, (offset, length, hint) in partition[
                        "segments"
                    ].items()
                },
            )
            for partition in entry["partitions"]
        ],
    )
