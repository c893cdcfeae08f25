"""The versioned manifest of a durable database directory.

The manifest is the root of the on-disk state: it names every table, its
schema and partition layout, the file backing each partition and where
in it each column's segment sits, all as of one checkpoint LSN.
Everything in the WAL with an LSN at or below ``checkpoint_lsn`` is
already reflected in the segments; :mod:`repro.storage.materialize`
loads the manifest first and then replays only the WAL tail beyond it.
It also carries ``patches``, the materialized patch sets of every
PatchIndex as of the checkpoint (one checksummed entry per index), from
which indexes are restored.

The manifest is a single compact JSON document written atomically (temp
file + fsync + rename), so a crash during checkpoint leaves either the
old or the new manifest, never a torn one, and one rename installs the
segments and the patch sets together.  This module also owns the layout
of the data directory around it::

    <root>/wal.jsonl                        metadata + data WAL
    <root>/manifest.json                    this file
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
import os
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

from repro.errors import StorageError

#: Bump when the manifest or segment layout changes incompatibly.
#: Version 4 is one file per partition in a flat ``segments/``, with the
#: patch sets inside the manifest.  Versions 1-3 are rejected, not read:
#: 1-2 (raw RSEG1 segments, no persisted patch sets) never shipped in a
#: directory, 3 kept one directory of per-column files and a
#: ``patches.json`` per checkpoint.
FORMAT_VERSION = 4

#: Manifest versions this reader understands.
SUPPORTED_VERSIONS = frozenset({4})

#: JSON separators of the manifest: compact, so a patch set's rowids
#: take one comma each.
_COMPACT = (",", ":")

MANIFEST_NAME = "manifest.json"
WAL_NAME = "wal.jsonl"
SEGMENTS_DIR = "segments"


def partition_file(table: str, partition_id: int, checkpoint_lsn: int) -> str:
    """Data-directory-relative name of the file the checkpoint at
    *checkpoint_lsn* writes for one partition of *table* (a quoted table
    name may hold ``/``: it is percent-encoded, never a path)."""
    name = quote(table, safe="")
    return f"{SEGMENTS_DIR}/{name}.p{partition_id}.{checkpoint_lsn:012d}.seg"


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
    #: Index name → checksummed patch-set entry
    #: (:func:`repro.storage.checkpoint.persisted_index_entry`).
    patches: dict[str, dict] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def files(self) -> frozenset[str]:
        """Every partition file this manifest names."""
        return frozenset(
            partition.file
            for table in self.tables.values()
            for partition in table.partitions
        )

    def catalog_json(self) -> str:
        """The manifest as compact JSON, but for its ``patches`` key
        (:func:`write_manifest` streams that one)."""
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
                                "file": partition.file,
                                "segments": {
                                    column: list(extent)
                                    for column, extent in partition.segments.items()
                                },
                            }
                            for partition in table.partitions
                        ],
                    }
                    for name, table in sorted(self.tables.items())
                },
            },
            separators=_COMPACT,
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
        try:
            tables = {
                name: _table_from_json(name, entry)
                for name, entry in raw.get("tables", {}).items()
            }
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StorageError(f"corrupt manifest: bad table entry ({exc!r})") from exc
        patches = raw.get("patches")
        return cls(
            checkpoint_lsn=int(raw["checkpoint_lsn"]),
            tables=tables,
            patches=dict(patches) if isinstance(patches, dict) else {},
            format_version=version,
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


def write_manifest(
    root: str | os.PathLike, manifest: Manifest, *, sync: bool = True
) -> int:
    """Atomically install *manifest* as ``<root>/manifest.json``; returns
    the bytes its patch sets take in it.

    The patch sets are written one index at a time, each encoded in one
    call of the C encoder (``iterencode`` would run the pure-Python
    one), so no string holds more than one index's patch sets.
    """
    root = Path(root)
    path = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    encode = json.JSONEncoder(separators=_COMPACT).encode
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(manifest.catalog_json()[:-1] + ',"patches":{')
        patches_bytes = 2  # the braces; ASCII: ensure_ascii is on
        for position, (name, entry) in enumerate(manifest.patches.items()):
            chunk = ("," if position else "") + encode(name) + ":" + encode(entry)
            handle.write(chunk)
            patches_bytes += len(chunk)
        handle.write("}}\n")
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    return patches_bytes


def read_manifest(root: str | os.PathLike) -> Manifest | None:
    """Load ``<root>/manifest.json``, or None when no checkpoint exists."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return Manifest.from_json(path.read_text(encoding="utf-8"))
    except StorageError as exc:
        raise StorageError(f"{path}: {exc}") from exc
