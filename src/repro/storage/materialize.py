"""Recovery: tables first, then PatchIndexes.

"Load a generation, replay the WAL, end with tables and their PatchIndexes"
is what a reopen needs, and only a reopen: a snapshot copies the live
catalog (:mod:`repro.storage.snapshot`) and reads no log.  It is written
once, as two functions, with two thin callers::

                         materialize_tables      materialize_indexes
    DurableEngine.recover  manifest + whole log  restore or rebuild
    Database.recover       whole metadata log    rebuild (no generation)

:func:`materialize_indexes` holds the one restore-vs-rebuild rule.  An index
whose ``create_index`` record the generation's checkpoint covers is *restored*:
its persisted patch sets (``patches.json`` of that generation) with the
``patch_delta`` tail replayed on top.  Anything that makes the persisted state
unusable — and every index younger than the checkpoint — is rebuilt from data
by discovery, the paper's §V recovery (:func:`index_from_payload`).  Each
refused restore names its reason (:data:`FALLBACK_REASONS`).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.constraints import ConstraintKind
from repro.core.delta import PatchDelta, delta_checksum
from repro.core.maintenance import MaintenanceStats
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.core.patches import PatchSet
from repro.errors import StorageError, WalError
from repro.storage.blocks import DEFAULT_BLOCK_SIZE
from repro.storage.cache import BlockCache, SegmentColumnSource
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
from repro.storage.wal import (
    DATA_KINDS,
    PATCH_KINDS,
    WalRecord,
    live_records_of,
)

#: Why a covered index was rebuilt from data instead of restored.
FALLBACK_REASONS = (
    "missing",  # no readable patches.json entry for the index
    "checksum",  # the entry fails its checksum
    "definition",  # the entry describes a different index
    "invalidated",  # a rebuild after the checkpoint voided the delta stream
    "delta_gap",  # a data record of the tail has no patch_delta
    "partition_count",  # entry and recovered table disagree on partitions
    "row_count",  # replayed patch sets and partitions disagree on rows
    "malformed",  # the entry or a delta does not parse
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
    root: Path | None,
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


def materialize_tables(
    root: Path | None,
    manifest: Manifest | None,
    records: list[WalRecord],
    *,
    cache: BlockCache | None,
    base: dict[str, Table] | None = None,
) -> dict[str, Table]:
    """Table state of *manifest* with *records* replayed on top.

    Starts from *base* when given (tables already at some point of the log;
    *records* then reaches from there on) and from the manifest's
    segment-backed tables otherwise.  Tables dropped after the checkpoint are
    gone even though the manifest still carries them, so those drops apply
    first; then the live ``create_table`` and data records beyond the
    checkpoint replay in LSN order.  The caller picks the point in time by
    passing only the records at or below it.
    """
    checkpoint_lsn = manifest.checkpoint_lsn if manifest is not None else 0
    tables = base
    if tables is None:
        tables = load_tables(root, manifest, cache=cache)
    for record in records:
        if record.kind == "drop_table" and record.lsn > checkpoint_lsn:
            tables.pop(record.payload["name"], None)
    for record in live_records_of(records):
        payload = record.payload
        if record.kind == "create_table":
            if payload["name"] not in tables:  # else loaded from the manifest
                tables[payload["name"]] = Table(
                    payload["name"],
                    payload_to_schema(payload["schema"]),
                    int(payload.get("partition_count", 1)),
                    int(payload.get("block_size", DEFAULT_BLOCK_SIZE)),
                )
        elif record.kind in DATA_KINDS and record.lsn > checkpoint_lsn:
            table = tables.get(payload["table"])
            if table is None:
                raise WalError(
                    f"data record {record.lsn} names unknown table {payload['table']!r}"
                )
            apply_data_record(table, record)
    return tables


# -- indexes -----------------------------------------------------------------


class MaterializedIndexes(NamedTuple):
    """What :func:`materialize_indexes` built, and by which path."""

    indexes: list[PatchIndex]
    #: Those of *indexes* that were restored — each is the live index as of
    #: the records' last LSN; the rest were rebuilt from data.
    restored: list[PatchIndex]
    #: ``patch_delta`` records replayed over restored patch sets.
    deltas_replayed: int
    #: Refused restores, reason → count (a subset of the rebuilt ones: an
    #: index younger than the checkpoint has nothing to fall back from).
    fallbacks: dict[str, int]


def read_patch_sets(root: Path | None, generation_lsn: int) -> dict:
    """Per-index ``patches.json`` entries of one generation.

    A missing or unreadable file yields ``{}`` and degrades every index to
    rebuild-from-data rather than failing the open: the persisted patch sets
    are an optimization, never a correctness requirement.
    """
    if root is None or generation_lsn <= 0:
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


def index_from_payload(table: Table, payload: dict, provenance: str) -> PatchIndex:
    """Rebuild a PatchIndex from data, given its ``create_index`` record.

    The paper's recovery (§V): the log carries the definition only, and
    discovery recomputes the patches.  The threshold was enforced when the
    index was created; a rebuild must not fail just because maintenance has
    drifted the column past it since.
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
        provenance=provenance,
        enforce_threshold=False,
    )


def delta_tails(
    records: Iterable[WalRecord], indexes: Iterable[tuple[str, str, str]]
) -> dict[str, tuple[list[PatchDelta], str | None]]:
    """Per index, the deltas it needs to follow *records*, or why it cannot.

    The rule for replaying the tail beyond the checkpoint onto restored
    patch sets, in one pass for all *indexes* — ``(index, table,
    column)`` names: every ``patch_delta`` of an index parses and passes its
    checksum, none is a rebuild marker, and every data record that must have
    produced a delta — each append / load / delete of the table, each update
    of the column — is named by one's ``applies_to``.  Maps each index name
    to ``(deltas in LSN order, None)`` or ``([], reason)``.
    """
    on_table: dict[str, list[tuple[str, str]]] = {}
    deltas: dict[str, list[PatchDelta]] = {}
    owed: dict[str, set[int]] = {}
    for index_name, table_name, column_name in indexes:
        on_table.setdefault(table_name, []).append((index_name, column_name))
        deltas[index_name] = []
        owed[index_name] = set()
    refused: dict[str, str] = {}
    for record in records:
        payload = record.payload
        if record.kind in DATA_KINDS:
            for name, column_name in on_table.get(payload["table"], ()):
                if record.kind != "update" or payload.get("column") == column_name:
                    owed[name].add(record.lsn)
        elif record.kind in PATCH_KINDS and payload.get("index") in deltas:
            name = payload["index"]
            try:
                delta, applies_to = PatchDelta.from_payload(payload)
            except StorageError:
                refused.setdefault(name, "malformed")
                continue
            if delta.invalidates:
                refused.setdefault(name, "invalidated")
            deltas[name].append(delta)
            owed[name].discard(applies_to)  # a delta follows its data record
    return {
        name: ([], refused.get(name, "delta_gap"))
        if name in refused or owed[name]
        else (found, None)
        for name, found in deltas.items()
    }


def restore_patch_index(
    table: Table,
    payload: dict,
    entry: dict,
    tail: tuple[list[PatchDelta], str | None],
    provenance: str,
) -> tuple[PatchIndex | None, int, str | None]:
    """Restore one PatchIndex from a persisted entry plus its delta tail.

    *payload* is the WAL ``create_index`` record, *entry* the matching
    ``patches.json`` entry and *tail* what :func:`delta_tails` made of the
    records beyond the checkpoint for this index.  Returns ``(index,
    deltas_replayed, None)`` on success and ``(None, 0, reason)`` — *reason*
    one of :data:`FALLBACK_REASONS` — when anything disqualifies the restore.
    """
    index = None
    try:
        body = {key: value for key, value in entry.items() if key != "checksum"}
        if entry.get("checksum") != delta_checksum(body):
            return None, 0, "checksum"
        definition = entry.get("definition", {})
        wanted = _definition(payload)
        if any(definition.get(key) != value for key, value in wanted.items()):
            return None, 0, "definition"
        deltas, reason = tail
        if reason is not None:
            return None, 0, reason
        partitions = entry["partitions"]
        if len(partitions) != table.partition_count:
            return None, 0, "partition_count"
        patch_sets = [
            PatchSet.build(
                np.asarray(part["rowids"], dtype=np.int64),
                int(part["row_count"]),
                entry["design"],
            )
            for part in partitions
        ]
        # The live index may legitimately carry a different mode than its
        # create record (a rebuild re-resolves AUTO); the persisted
        # definition records the live mode as of the checkpoint.
        mode = definition.get("mode")
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
            provenance=provenance,
            mode=PatchIndexMode(mode) if mode is not None else None,
        )
        index.rebuild_count = int(entry.get("rebuild_count", 0))
        if entry.get("stats") is not None:
            index.seed_maintenance_stats(MaintenanceStats.from_payload(entry["stats"]))
        for delta in deltas:
            index.apply_external_delta(delta)
    except (StorageError, KeyError, TypeError, ValueError):
        if index is not None:
            index.detach()
        return None, 0, "malformed"
    if any(
        index.partition_patches(partition.partition_id).row_count != partition.row_count
        for partition in table.partitions
    ):
        index.detach()
        return None, 0, "row_count"
    return index, len(deltas), None


def materialize_indexes(
    tables: dict[str, Table],
    records: list[WalRecord],
    generation_lsn: int,
    root: Path | None,
    *,
    provenance: str,
) -> MaterializedIndexes:
    """The PatchIndexes live in *records*, attached to *tables*.

    *tables* must already be at the state *records* describes
    (:func:`materialize_tables` over the same records).  An index whose
    ``create_index`` record is at or below *generation_lsn* is restored from
    that generation's persisted patch sets plus its ``patch_delta`` tail; a
    refused restore, or an index created after the checkpoint, is rebuilt
    from data.  The indexes come back attached to their tables as listeners,
    in creation order; registering them in a catalog and wiring a
    ``delta_sink`` is the caller's business.
    """
    persisted = read_patch_sets(root, generation_lsn)
    creates: list[WalRecord] = []
    tail: list[WalRecord] = []  # what the segments and patch sets lack
    for record in live_records_of(records):
        if record.kind == "create_index":
            creates.append(record)
        elif record.lsn > generation_lsn and record.kind in DATA_KINDS | PATCH_KINDS:
            tail.append(record)
    tails = delta_tails(
        tail,
        [
            (create.payload["name"], create.payload["table"], create.payload["column"])
            for create in creates
            if create.lsn <= generation_lsn
        ],
    )
    indexes: list[PatchIndex] = []
    restored: list[PatchIndex] = []
    deltas_replayed = 0
    fallbacks: dict[str, int] = {}
    for record in creates:
        payload = record.payload
        table = tables.get(payload["table"])
        if table is None:
            raise WalError(f"index {payload['name']!r} references missing table")
        index, reason = None, None
        if record.lsn <= generation_lsn:  # the checkpoint covers this index
            entry = persisted.get(payload["name"])
            if entry is None:
                reason = "missing"
            else:
                index, count, reason = restore_patch_index(
                    table, payload, entry, tails[payload["name"]], provenance
                )
                deltas_replayed += count
        if reason is not None:
            fallbacks[reason] = fallbacks.get(reason, 0) + 1
            if reason not in _LOGGED_REASONS:
                _LOGGED_REASONS.add(reason)
                _LOG.warning(
                    "PatchIndex %r rebuilt from data, persisted patch sets not "
                    "usable: %s (logged once per reason)",
                    payload["name"],
                    reason,
                )
        if index is not None:
            restored.append(index)
        else:
            index = index_from_payload(table, payload, provenance)
        indexes.append(index)
    return MaterializedIndexes(indexes, restored, deltas_replayed, fallbacks)
