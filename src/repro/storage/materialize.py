"""Recovery: one pass over the live WAL, in LSN order.

"Load a generation, replay the WAL, end with tables and their PatchIndexes"
is what a reopen needs, and only a reopen: a snapshot copies the live
catalog (:mod:`repro.storage.snapshot`) and reads no log.  It is one
function, :func:`replay_log`, with one caller,
:meth:`~repro.storage.engine.DurableEngine.recover`, which hands it the
manifest's tables and patch sets (none before the first checkpoint).

The pass starts from the checkpoint's tables with the indexes it covers
attached as table listeners: each *restored* from that generation's
``patches.json``, or — when the entry is unusable — discovered from the
checkpoint's data (a fallback, counted under one of
:data:`FALLBACK_REASONS`).  Every later record then replays as it ran
live: a data record through :class:`~repro.storage.table.Table`, whose
events the restored indexes' maintainers re-classify; a ``create_index``
by discovery at its LSN (the paper's §V recovery,
:func:`index_from_payload`); a ``rebuild_index`` by ``rebuild()``.  So a
reopen reproduces the live patch sets and drift counters exactly.  The
log carries no patches, and no crash window separates a data record
from its index maintenance.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.constraints import ConstraintKind
from repro.core.maintenance import MaintenanceStats
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.core.patches import PatchSet
from repro.errors import StorageError, WalError
from repro.storage.blocks import DEFAULT_BLOCK_SIZE
from repro.storage.cache import BlockCache, SegmentColumnSource
from repro.storage.checkpoint import entry_checksum
from repro.storage.column import ColumnVector
from repro.storage.database import payload_to_schema
from repro.storage.manifest import (
    Manifest,
    TableManifest,
    patches_path,
)
from repro.storage.partition import Partition
from repro.storage.segment import open_segment
from repro.storage.table import Table
from repro.storage.wal import DATA_KINDS, WalRecord, live_records_of

#: Why a covered index was discovered from data instead of restored.
FALLBACK_REASONS = (
    "missing",  # no readable patches.json entry for the index
    "checksum",  # the entry fails its checksum
    "definition",  # the entry describes a different index
    "partition_count",  # entry and checkpointed table disagree on partitions
    "row_count",  # entry and checkpointed partitions disagree on rows
    "malformed",  # the entry does not parse
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
    touching any value bytes.
    """
    name = table_manifest.name
    schema = payload_to_schema(table_manifest.schema)
    table = Table(
        name, schema, table_manifest.partition_count, table_manifest.block_size
    )
    partitions: list[Partition] = []
    for partition_id, partition_manifest in enumerate(table_manifest.partitions):
        sources = {
            column: SegmentColumnSource(
                open_segment(root / relative),
                cache,
                table=name,
                column=column,
                segment=relative,
                generation=generation,
            )
            for column, relative in partition_manifest.segments.items()
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
    """Re-apply one WAL data record to *table*."""
    payload = record.payload
    if record.kind == "append":
        columns = [payload["columns"][name] for name in table.schema.names]
        table.insert_rows(
            [
                [column[position] for column in columns]
                for position in range(int(payload["row_count"]))
            ]
        )
    elif record.kind == "load":
        table.load_columns(
            {
                name: ColumnVector.from_pylist(table.schema.field(name).dtype, items)
                for name, items in payload["columns"].items()
            },
            partition_by_round_robin_blocks=bool(payload.get("round_robin", False)),
        )
    elif record.kind == "delete":
        table.delete_rowids(np.asarray(payload["rowids"], dtype=np.int64))
    elif record.kind == "update":
        table.update_rowid(int(payload["rowid"]), payload["column"], payload["value"])


# -- indexes -----------------------------------------------------------------


class Recovered(NamedTuple):
    """What :func:`replay_log` rebuilt, and how each index came back."""

    tables: dict[str, Table]
    #: In creation order, each the live index as of the log's last LSN.
    indexes: list[PatchIndex]
    #: Those of *indexes* restored from persisted patch sets; the rest
    #: were discovered from data.
    restored: list[PatchIndex]
    #: Refused restores, reason → count (a subset of the discovered ones:
    #: an index younger than the checkpoint has nothing to fall back from).
    fallbacks: dict[str, int]


def read_patch_sets(root: Path, generation_lsn: int) -> dict:
    """Per-index ``patches.json`` entries of one generation.

    A missing or unreadable file yields ``{}`` and degrades every index to
    discovery from data rather than failing the open: the persisted patch
    sets are an optimization, never a correctness requirement.
    """
    if generation_lsn <= 0:
        return {}
    try:
        text = patches_path(root, generation_lsn).read_text(encoding="utf-8")
        indexes = json.loads(text)["indexes"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return dict(indexes) if isinstance(indexes, dict) else {}


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
        mode=PatchIndexMode(payload.get("mode", "auto")),
        threshold=wanted["threshold"],
        scope=wanted["scope"],
        ascending=wanted["ascending"],
        strict=wanted["strict"],
        provenance="recovery",
        enforce_threshold=False,
    )


def restore_patch_index(
    table: Table, payload: dict, entry: dict | None
) -> tuple[PatchIndex | None, str | None]:
    """Restore one PatchIndex from its ``patches.json`` entry.

    *payload* is the WAL ``create_index`` record and *table* is at the
    checkpoint the entry was written at.  Returns ``(index, None)``, or
    ``(None, reason)`` — *reason* one of :data:`FALLBACK_REASONS` — when
    anything disqualifies the restore.
    """
    if entry is None:
        return None, "missing"
    try:
        if entry.get("checksum") != entry_checksum(entry):
            return None, "checksum"
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
        patch_sets = [
            PatchSet.build(
                np.asarray(part["rowids"], dtype=np.int64),
                int(part["row_count"]),
                entry["design"],
            )
            for part in partitions
        ]
        rebuild_count = int(entry.get("rebuild_count", 0))
        stats = entry.get("stats")
        stats = MaintenanceStats.from_payload(stats) if stats is not None else None
        # The live index may legitimately carry a different mode than its
        # create record (a rebuild re-resolves AUTO); the persisted
        # definition records the live mode as of the checkpoint.
        mode = definition.get("mode")
        mode = PatchIndexMode(mode) if mode is not None else None
    except (StorageError, KeyError, TypeError, ValueError):
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
    records: list[WalRecord],
    tables: dict[str, Table],
    generation_lsn: int,
    persisted: dict,
) -> Recovered:
    """Tables and PatchIndexes as of the last of *records*.

    *tables* are the checkpoint's at *generation_lsn* (empty, and
    *generation_lsn* 0, without one) and *persisted* is that generation's
    ``patches.json`` entries (:func:`read_patch_sets`).  One pass over the
    live records in LSN order; what the checkpoint covers — its data and
    rebuild records — is skipped, except that each index it covers is
    restored from *persisted* (or discovered over the checkpoint's data
    when the entry is refused) as its ``create_index`` comes by, before any
    record of the tail; an index created after the checkpoint is discovered
    from the data replayed so far, as its ``create_index`` comes by.  The
    indexes come back attached to their tables as listeners; *tables* is
    updated in place.
    """
    # Tables dropped after the checkpoint are gone even though the
    # manifest still carries them.
    for record in records:
        if record.kind == "drop_table" and record.lsn > generation_lsn:
            tables.pop(record.payload["name"], None)
    indexes: dict[str, PatchIndex] = {}
    restored: list[PatchIndex] = []
    fallbacks: dict[str, int] = {}
    for record in live_records_of(records):
        payload = record.payload
        if record.kind == "create_table":
            name = payload["name"]
            if name not in tables:  # else loaded from the manifest
                tables[name] = Table(
                    name,
                    payload_to_schema(payload["schema"]),
                    int(payload.get("partition_count", 1)),
                    int(payload.get("block_size", DEFAULT_BLOCK_SIZE)),
                )
        elif record.kind == "create_index":
            table = _named(tables, payload["table"], record)
            index = None
            if record.lsn <= generation_lsn:  # the checkpoint covers it
                index, reason = restore_patch_index(
                    table, payload, persisted.get(payload["name"])
                )
                if index is None:
                    _fall_back(payload["name"], reason, fallbacks)
                else:
                    restored.append(index)
            if index is None:
                index = index_from_payload(table, payload)
            indexes[payload["name"]] = index
        elif record.lsn <= generation_lsn:
            continue  # in the checkpoint's segments and patch sets already
        elif record.kind == "rebuild_index":
            _named(indexes, payload["name"], record).rebuild()
        elif record.kind in DATA_KINDS:
            apply_data_record(_named(tables, payload["table"], record), record)
    return Recovered(tables, list(indexes.values()), restored, fallbacks)
