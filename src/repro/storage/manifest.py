"""The versioned manifest of a durable database directory.

The manifest is the root of the on-disk state: it names every table, its
schema and partition layout, and the segment file backing each column of
each partition, all as of one checkpoint LSN.  Everything in the WAL
with an LSN at or below ``checkpoint_lsn`` is already reflected in the
segments; :mod:`repro.storage.materialize` loads the manifest first and
then replays only the WAL tail beyond it.  Next to the segments, the
generation keeps ``patches.json``, the materialized patch sets of every
PatchIndex as of the checkpoint, from which indexes are restored; its
path follows from ``checkpoint_lsn`` (:func:`patches_path`).

The manifest is a single JSON document written atomically (temp file +
fsync + rename), so a crash during checkpoint leaves either the old or
the new manifest, never a torn one.  This module also owns the layout
of the data directory around it::

    <root>/wal.jsonl                    metadata + data WAL
    <root>/manifest.json                this file
    <root>/segments/g<lsn>/             one generation per checkpoint
        <table>/p<k>.<col>.seg          one segment per partition column
        patches.json                    the generation's patch sets

A segment a checkpoint did not need to rewrite is a hard link to the
previous generation's file (:func:`repro.storage.checkpoint.flush_table`),
so two generations may share inodes; deleting the older one frees only
the files that were rewritten.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StorageError

#: Bump when the manifest or segment layout changes incompatibly.
#: Version 3 is RSEG2 segments plus a ``patches.json`` per generation
#: (older version-3 manifests also carry a ``patches`` key naming it,
#: which readers ignore); nothing in the repo ever shipped a directory
#: of versions 1-2 (raw RSEG1 segments, no persisted patch sets), so
#: they are rejected, not read.
FORMAT_VERSION = 3

#: Manifest versions this reader understands.
SUPPORTED_VERSIONS = frozenset({3})

MANIFEST_NAME = "manifest.json"
WAL_NAME = "wal.jsonl"
SEGMENTS_DIR = "segments"
PATCHES_NAME = "patches.json"


def generation_name(checkpoint_lsn: int) -> str:
    """Directory name of the generation a checkpoint at that LSN wrote."""
    return f"g{checkpoint_lsn:012d}"


def patches_path(root: str | os.PathLike, checkpoint_lsn: int) -> Path:
    """Where the generation of *checkpoint_lsn* keeps its patch sets."""
    return (
        Path(root) / SEGMENTS_DIR / generation_name(checkpoint_lsn) / PATCHES_NAME
    )


@dataclass(frozen=True)
class PartitionManifest:
    """One partition: its row count and column → segment path mapping."""

    row_count: int
    #: Column name → segment file path relative to the data directory.
    segments: dict[str, str]


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
    format_version: int = FORMAT_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": self.format_version,
                "checkpoint_lsn": self.checkpoint_lsn,
                "tables": {
                    name: {
                        "schema": table.schema,
                        "block_size": table.block_size,
                        "partitions": [
                            {
                                "row_count": partition.row_count,
                                "segments": partition.segments,
                            }
                            for partition in table.partitions
                        ],
                    }
                    for name, table in sorted(self.tables.items())
                },
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StorageError("corrupt manifest: not valid JSON") from exc
        if not isinstance(raw, dict) or "checkpoint_lsn" not in raw:
            raise StorageError("corrupt manifest: missing checkpoint_lsn")
        version = int(raw.get("format_version", 0))
        if version not in SUPPORTED_VERSIONS:
            raise StorageError(
                f"manifest format version {version} is not supported "
                f"(expected one of {sorted(SUPPORTED_VERSIONS)})"
            )
        tables: dict[str, TableManifest] = {}
        for name, entry in raw.get("tables", {}).items():
            tables[name] = TableManifest(
                name=name,
                schema=list(entry["schema"]),
                block_size=int(entry["block_size"]),
                partitions=[
                    PartitionManifest(
                        row_count=int(partition["row_count"]),
                        segments=dict(partition["segments"]),
                    )
                    for partition in entry["partitions"]
                ],
            )
        return cls(
            checkpoint_lsn=int(raw["checkpoint_lsn"]),
            tables=tables,
            format_version=version,
        )


def write_manifest(
    root: str | os.PathLike, manifest: Manifest, *, sync: bool = True
) -> Path:
    """Atomically install *manifest* as ``<root>/manifest.json``."""
    root = Path(root)
    path = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(manifest.to_json())
        handle.write("\n")
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_manifest(root: str | os.PathLike) -> Manifest | None:
    """Load ``<root>/manifest.json``, or None when no checkpoint exists."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return Manifest.from_json(path.read_text(encoding="utf-8"))
    except StorageError as exc:
        raise StorageError(f"{path}: {exc}") from exc
