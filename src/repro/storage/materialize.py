"""Recovery: one pass over the log, in the order it ran live.

"Load a checkpoint, replay the WAL, end with tables and their PatchIndexes"
is what a reopen needs, and only a reopen: a snapshot copies the live
catalog (:mod:`repro.storage.snapshot`) and reads no log.  It is one
function, :func:`replay_log`, with one caller,
:meth:`~repro.storage.engine.DurableEngine.recover`, which hands it the
manifest of the log's head record (none before the first checkpoint),
that manifest's tables, and the records after the head.

The pass starts from the checkpoint's tables with its indexes attached as
table listeners: each *restored* from the manifest's ``patches`` entry
and its slice of the head's rowid column (:func:`split_patch_rowids`),
or — when the entry is unusable — discovered from the checkpoint's data
by the definition the head carries (a fallback, counted under one of
:data:`FALLBACK_REASONS`).  The head frame's CRC covers entries and
rowids alike; a damaged head is a :class:`~repro.errors.WalError`
before any entry is read.  Every later record then replays as it ran
live: a data record through :class:`~repro.storage.table.Table`, whose
events the indexes' maintainers re-classify; a ``create_table`` or
``drop_table``, a ``create_index`` by discovery at its LSN (the paper's
§V recovery, :func:`index_from_payload`), a ``drop_index`` by detaching
its index; a ``rebuild_index`` by ``rebuild()``.  So a reopen
reproduces the live patch sets and drift counters exactly.  The log
carries no patches outside its head, and no crash window separates a
data record from its index maintenance.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.constraints import ConstraintKind
from repro.core.maintenance import MaintenanceStats
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.core.patches import PatchSet
from repro.errors import StorageError, WalError
from repro.storage.blocks import DEFAULT_BLOCK_SIZE
from repro.storage.cache import BlockCache, SegmentColumnSource
from repro.storage.column import ColumnVector
from repro.storage.database import payload_to_schema
from repro.storage.manifest import Manifest, PartitionManifest, TableManifest
from repro.storage.partition import Partition
from repro.storage.segment import open_segment
from repro.storage.table import Table
from repro.storage.wal import DATA_KINDS, WalRecord

#: Why a covered index was discovered from data instead of restored.
FALLBACK_REASONS = (
    "missing",  # the manifest holds no patch-set entry for the index
    "definition",  # the entry describes a different index
    "partition_count",  # entry and checkpointed table disagree on partitions
    "row_count",  # entry and checkpointed partitions disagree on rows
    "malformed",  # the entry or its rowids do not parse
)

_LOG = logging.getLogger(__name__)
_LOGGED_REASONS: set[str] = set()


# -- tables ------------------------------------------------------------------


def load_table(
    root: Path,
    table_manifest: TableManifest,
    generation: int,
    *,
    cache: BlockCache | None,
) -> Table:
    """Attach one table to its checkpointed segment files.

    Columns stay *lazy*: each is backed by a
    :class:`~repro.storage.cache.SegmentColumnSource` that decodes blocks on
    demand through *cache*, keyed by the manifest *generation* (the checkpoint
    LSN) so a later checkpoint can never serve stale blocks.  Block sketches
    come straight from the segment headers, so range pruning works without
    touching any value bytes.  A partition file that is missing, or
    shorter than the segments the manifest places in it, is a
    :class:`~repro.errors.StorageError` naming the file and *generation*.
    """
    name = table_manifest.name
    schema = payload_to_schema(table_manifest.schema)
    table = Table(
        name, schema, table_manifest.partition_count, table_manifest.block_size
    )
    partitions: list[Partition] = []
    for partition_id, partition_manifest in enumerate(table_manifest.partitions):
        _check_partition_file(root, partition_manifest, generation)
        sources = {
            column: SegmentColumnSource(
                open_segment(root / partition_manifest.file, offset, length),
                cache,
                table=name,
                column=column,
                segment=partition_manifest.file,
                generation=generation,
            )
            for column, (offset, length, _) in partition_manifest.segments.items()
        }
        partition = Partition(
            partition_id,
            schema,
            {},
            base_rowid=0,
            block_size=table_manifest.block_size,
            sources=sources,
        )
        for column, source in sources.items():
            partition.preload_block_stats(column, source.reader.stats)
        partitions.append(partition)
    table.partitions = partitions
    table._renumber()
    return table


def _check_partition_file(
    root: Path, partition_manifest: PartitionManifest, generation: int
) -> None:
    """Raise unless the file holds every segment the manifest places in it."""
    path = root / partition_manifest.file
    segments = partition_manifest.segments.values()
    span = max((offset + length for offset, length, _ in segments), default=0)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        raise StorageError(
            f"partition file {partition_manifest.file} is missing; the log's "
            f"head (checkpoint lsn {generation}) names it"
        ) from None
    if size < span:
        raise StorageError(
            f"partition file {partition_manifest.file} is {size} bytes; the "
            f"log's head (checkpoint lsn {generation}) records {span}"
        )


def load_tables(
    root: Path,
    manifest: Manifest | None,
    *,
    cache: BlockCache | None,
) -> dict[str, Table]:
    """Every table of *manifest*, segment-backed (none without a manifest)."""
    if manifest is None:
        return {}
    return {
        entry.name: load_table(root, entry, manifest.checkpoint_lsn, cache=cache)
        for entry in manifest.tables.values()
    }


def apply_data_record(table: Table, record: WalRecord) -> None:
    """Re-apply one WAL data record to *table*: its columns as the
    record stored them."""
    columns = record.columns
    if record.kind == "append":
        table.append_columns(columns)
    elif record.kind == "load":
        table.load_columns(columns)
    elif record.kind == "delete":
        table.delete_rowids(columns["rowids"].values)
    elif record.kind == "update":
        ((name, cell),) = columns.items()
        table.update_rowid(int(record.payload["rowid"]), name, cell[0])


# -- indexes -----------------------------------------------------------------


class Recovered(NamedTuple):
    """What :func:`replay_log` rebuilt, and how each index came back."""

    tables: dict[str, Table]
    #: In catalog order, each the live index as of the log's last LSN.
    indexes: list[PatchIndex]
    #: Those of *indexes* restored from persisted patch sets; the rest
    #: were discovered from data.
    restored: list[PatchIndex]
    #: Refused restores, reason → count (a subset of the discovered ones:
    #: an index younger than the checkpoint has nothing to fall back from).
    fallbacks: dict[str, int]
    #: Data records replayed.
    replayed: int


def _definition(payload: dict) -> dict:
    """The definition in a ``create_index`` payload, defaults filled in."""
    return {
        "name": payload["name"],
        "table": payload["table"],
        "column": payload["column"],
        "kind": payload["kind"],
        "threshold": float(payload.get("threshold", 1.0)),
        "scope": payload.get("scope", "global"),
        "ascending": bool(payload.get("ascending", True)),
        "strict": bool(payload.get("strict", False)),
    }


def index_from_payload(table: Table, payload: dict) -> PatchIndex:
    """Discover a PatchIndex from *table*'s data, given its ``create_index``
    record.

    The paper's recovery (§V): the log carries the definition only, and
    discovery recomputes the patches.  The threshold was enforced when the
    index was created; a fallback must not fail just because maintenance
    had drifted the column past it by the checkpoint.
    """
    wanted = _definition(payload)
    return PatchIndex.create(
        wanted["name"],
        table,
        wanted["column"],
        kind=wanted["kind"],
        mode=PatchIndexMode(payload.get("mode") or "auto"),
        threshold=wanted["threshold"],
        scope=wanted["scope"],
        ascending=wanted["ascending"],
        strict=wanted["strict"],
        provenance="recovery",
        enforce_threshold=False,
    )


def split_patch_rowids(
    patches: dict[str, dict], column: ColumnVector | None
) -> dict[str, list[np.ndarray]]:
    """Each ``patches`` entry's per-partition rowids, by index name: the
    head's rowid *column* (None: empty) cut by the entries' patch counts,
    each piece a copy, so no restored set aliases another or the log's
    bytes.  An entry whose counts do not parse or run past the column
    stops the cutting: it and every later entry get no rowids."""
    values = column.values if column is not None else np.empty(0, np.int64)
    pieces: dict[str, list[np.ndarray]] = {}
    offset = 0
    for name, entry in patches.items():
        try:
            counts = [int(part["patch_count"]) for part in entry["partitions"]]
        except (KeyError, TypeError, ValueError):
            break
        if min(counts, default=0) < 0 or offset + sum(counts) > len(values):
            break
        pieces[name] = []
        for count in counts:
            pieces[name].append(np.array(values[offset : offset + count], np.int64))
            offset += count
    return pieces


def restore_patch_index(
    table: Table, payload: dict, entry: dict | None, rowids: list[np.ndarray] | None
) -> tuple[PatchIndex | None, str | None]:
    """Restore one PatchIndex from its manifest ``patches`` entry and its
    per-partition *rowids* (:func:`split_patch_rowids`; None if uncut).

    *payload* is the index's definition in the log's head (a
    ``create_index`` payload) and *table* is at the
    checkpoint the entry was written at.  Returns ``(index, None)``, or
    ``(None, reason)`` — *reason* one of :data:`FALLBACK_REASONS` — when
    anything disqualifies the restore.
    """
    if entry is None:
        return None, "missing"
    try:
        definition = entry.get("definition", {})
        wanted = _definition(payload)
        if any(definition.get(key) != value for key, value in wanted.items()):
            return None, "definition"
        partitions = entry["partitions"]
        if len(partitions) != table.partition_count:
            return None, "partition_count"
        if any(
            int(part["row_count"]) != partition.row_count
            for part, partition in zip(partitions, table.partitions)
        ):
            return None, "row_count"
        if rowids is None:
            return None, "malformed"
        patch_sets = [
            PatchSet.build(part_rowids, int(part["row_count"]), entry["design"])
            for part, part_rowids in zip(partitions, rowids)
        ]
        rebuild_count = int(entry.get("rebuild_count", 0))
        stats = entry.get("stats")
        stats = MaintenanceStats.from_payload(stats) if stats is not None else None
        # The live index may legitimately carry a different mode than its
        # create record (a rebuild re-resolves AUTO); the persisted
        # definition records the live mode as of the checkpoint.
        mode = definition.get("mode")
        mode = PatchIndexMode(mode) if mode is not None else None
    except (StorageError, KeyError, TypeError, ValueError, AttributeError):
        return None, "malformed"
    index = PatchIndex(
        wanted["name"],
        table,
        wanted["column"],
        ConstraintKind.from_name(wanted["kind"]),
        patch_sets,
        wanted["threshold"],
        ascending=wanted["ascending"],
        strict=wanted["strict"],
        scope=wanted["scope"],
        provenance="recovery",
        mode=mode,
    )
    index.rebuild_count = rebuild_count
    if stats is not None:
        index.seed_maintenance_stats(stats)
    return index, None


def _fall_back(name: str, reason: str, fallbacks: dict[str, int]) -> None:
    """Count a refused restore, and log its reason once per process."""
    fallbacks[reason] = fallbacks.get(reason, 0) + 1
    if reason not in _LOGGED_REASONS:
        _LOGGED_REASONS.add(reason)
        _LOG.warning(
            "PatchIndex %r rebuilt from data, persisted patch sets not "
            "usable: %s (logged once per reason)",
            name,
            reason,
        )


def _named(found: dict, name: str, record: WalRecord):
    """``found[name]``, or a :class:`WalError` naming the record."""
    try:
        return found[name]
    except KeyError:
        raise WalError(
            f"{record.kind} record {record.lsn} names unknown {name!r}"
        ) from None


def replay_log(
    records: Iterable[WalRecord],
    tables: dict[str, Table],
    manifest: Manifest | None,
    patch_rowids: ColumnVector | None,
) -> Recovered:
    """Tables and PatchIndexes as of the last of *records*.

    *tables* are *manifest*'s (empty, and *manifest* None, before the
    first checkpoint), *patch_rowids* the head's rowid column and
    *records* the log after its head.  Each index the manifest defines
    is restored from its ``patches`` entry and rowids (or discovered
    over the checkpoint's data when the entry is refused); then every
    record replays in order.  The indexes come back attached
    to their tables as listeners; *tables* is updated in place.
    """
    indexes: dict[str, PatchIndex] = {}
    restored: list[PatchIndex] = []
    fallbacks: dict[str, int] = {}
    rowids = split_patch_rowids(
        manifest.patches if manifest is not None else {}, patch_rowids
    )
    for definition in manifest.indexes if manifest is not None else ():
        name = definition["name"]
        try:
            table = tables[definition["table"]]
        except KeyError:
            raise StorageError(
                f"corrupt manifest: index {name!r} names an unknown table"
            ) from None
        index, reason = restore_patch_index(
            table, definition, manifest.patches.get(name), rowids.get(name)
        )
        if index is None:
            _fall_back(name, reason, fallbacks)
            index = index_from_payload(table, definition)
        else:
            restored.append(index)
        indexes[name] = index
    replayed = 0
    for record in records:
        payload = record.payload
        if record.kind == "create_table":
            tables[payload["name"]] = Table(
                payload["name"],
                payload_to_schema(payload["schema"]),
                int(payload.get("partition_count", 1)),
                int(payload.get("block_size", DEFAULT_BLOCK_SIZE)),
            )
        elif record.kind == "drop_table":
            dropped = tables.pop(_named(tables, payload["name"], record).name)
            indexes = {n: i for n, i in indexes.items() if i.table is not dropped}
        elif record.kind == "create_index":
            table = _named(tables, payload["table"], record)
            indexes[payload["name"]] = index_from_payload(table, payload)
        elif record.kind == "drop_index":
            indexes.pop(_named(indexes, payload["name"], record).name).detach()
        elif record.kind == "rebuild_index":
            _named(indexes, payload["name"], record).rebuild()
        elif record.kind in DATA_KINDS:
            apply_data_record(_named(tables, payload["table"], record), record)
            replayed += 1
    return Recovered(tables, list(indexes.values()), restored, fallbacks, replayed)
