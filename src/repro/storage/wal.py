"""Write-ahead log for DDL, PatchIndex creation, and row data.

The paper keeps the WAL slim: a ``CREATE PATCHINDEX`` record is logged
*without* the discovered patches, and on log replay the index is rebuilt
from the data using the same discovery mechanism as at creation time
(paper §V).  This module implements that design as a JSON-lines log.

Record kinds:

metadata records
    ``create_table``     table name, schema, partition count
    ``drop_table``       table name
    ``create_index``     index name, table, column, kind, mode, threshold
    ``drop_index``       index name
    ``checkpoint``       marker after which earlier records may be pruned
                         (see :meth:`WriteAheadLog.compact`)

data records (durable storage engine, :mod:`repro.storage.engine`)
    ``append``           rows appended to a table (column → values)
    ``load``             a bulk load split across partitions
    ``delete``           global rowids removed from a table
    ``update``           one cell written in place

index records (durable storage engine)
    ``rebuild_index``    a live PatchIndex rebuild (index and table name)

The log carries data and DDL only, never patches.  Recovery replays the
tail beyond the last checkpoint through the tables, and the PatchIndexes
— restored from the checkpoint's patch sets, or discovered at their
``create_index`` — re-classify every replayed mutation as they did live;
a ``rebuild_index`` re-runs the rebuild at its LSN.
Data records carry *physical* scalar values (dates as day numbers, NULL
as ``null``) so replay is byte-exact.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import WalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

_METADATA_KINDS = frozenset(
    {"create_table", "drop_table", "create_index", "drop_index", "checkpoint"}
)
#: Row-data record kinds; replayed by the durable storage engine and
#: prunable once a checkpoint has flushed them into segment files.
DATA_KINDS = frozenset({"append", "load", "delete", "update"})

#: What a checkpoint makes redundant: the data it flushed and the
#: rebuilds its persisted patch sets already reflect.
_PRUNABLE_KINDS = DATA_KINDS | {"rebuild_index"}

_KNOWN_KINDS = _METADATA_KINDS | _PRUNABLE_KINDS


@dataclass(frozen=True)
class WalRecord:
    """One log record: a kind plus a JSON-serializable payload."""

    lsn: int
    kind: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        # The payload is nested so its keys (e.g. an index's own "kind")
        # can never collide with the record envelope.
        return json.dumps(
            {"lsn": self.lsn, "kind": self.kind, "payload": self.payload}
        )

    @classmethod
    def from_json(cls, line: str) -> "WalRecord":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WalError(f"corrupt WAL line: {line!r}") from exc
        if not isinstance(raw, dict) or "kind" not in raw or "lsn" not in raw:
            raise WalError(f"malformed WAL record: {line!r}")
        kind = raw["kind"]
        lsn = raw["lsn"]
        payload = raw.get("payload", {})
        if not isinstance(kind, str) or kind not in _KNOWN_KINDS:
            raise WalError(f"unknown WAL record kind: {kind!r}")
        # JSON has no integer type of its own; bool is an int subclass in
        # Python, and floats/strings would corrupt LSN arithmetic later.
        if isinstance(lsn, bool) or not isinstance(lsn, int):
            raise WalError(f"malformed WAL LSN: {lsn!r}")
        if not isinstance(payload, dict):
            raise WalError(f"malformed WAL payload: {line!r}")
        return cls(lsn=lsn, kind=kind, payload=payload)


def live_records_of(records: list[WalRecord]) -> list[WalRecord]:
    """The still-effective subset of *records*, in LSN order.

    The shared core behind :meth:`WriteAheadLog.live_records` and
    recovery's replay (:func:`repro.storage.materialize.replay_log`).
    Checkpoint markers fall through every branch and are dropped.
    """
    dropped_tables: set[str] = set()
    dropped_indexes: set[str] = set()
    live: list[WalRecord] = []
    for record in reversed(records):
        if record.kind == "drop_table":
            dropped_tables.add(record.payload["name"])
        elif record.kind == "drop_index":
            dropped_indexes.add(record.payload["name"])
        elif record.kind == "create_table":
            name = record.payload["name"]
            if name in dropped_tables:
                dropped_tables.discard(name)
            else:
                live.append(record)
        elif record.kind == "create_index":
            name = record.payload["name"]
            table = record.payload["table"]
            if name in dropped_indexes or table in dropped_tables:
                dropped_indexes.discard(name)
            else:
                live.append(record)
        elif record.kind in _PRUNABLE_KINDS:
            # A data record dies with its table, a rebuild with its index
            # or table (only a rebuild names an index).  The reversed scan
            # elides a dropped incarnation's records before reaching (and
            # cancelling) its create record.
            if (
                record.payload.get("table") not in dropped_tables
                and record.payload.get("name") not in dropped_indexes
            ):
                live.append(record)
    live.reverse()
    return live


class WriteAheadLog:
    """Append-only JSONL log with replay support.

    When *path* is ``None`` the log is kept in memory only (the
    in-memory engine's log); a durable data directory passes its
    ``wal.jsonl``, which gives on-disk durability with fsync-on-append.

    ``tolerate_torn_tail=True`` accepts a final line torn by a crash
    mid-append: the partial record was never acknowledged, so it is
    discarded and the file truncated back to the last complete record.
    A corrupt record *followed by complete ones* still raises — that is
    real corruption, not a torn write.  ``metrics`` optionally wires a
    :class:`~repro.obs.metrics.MetricsRegistry` that counts appended
    records and bytes (``wal.records`` / ``wal.bytes``).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        sync: bool = True,
        *,
        tolerate_torn_tail: bool = False,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._path = Path(path) if path is not None else None
        self._sync = sync
        self._metrics = metrics
        self._records: list[WalRecord] = []
        self._next_lsn = 1
        #: True inside a :meth:`deferred_sync` block — appends skip
        #: their per-record fsync and the batch syncs once at exit.
        self._defer_sync = False
        self._deferred_appends = 0
        if self._path is not None and self._path.exists():
            self._records = self._read_from_disk(self._path, tolerate_torn_tail)
            if self._records:
                self._next_lsn = self._records[-1].lsn + 1

    def _read_from_disk(
        self, path: Path, tolerate_torn_tail: bool
    ) -> list[WalRecord]:
        raw = path.read_bytes()
        records: list[WalRecord] = []
        previous_lsn = 0
        good_end = 0
        position = 0
        lines: list[tuple[int, bytes]] = []
        for chunk in raw.split(b"\n"):
            lines.append((position, chunk))
            position += len(chunk) + 1
        nonblank = [
            (offset, chunk) for offset, chunk in lines if chunk.strip()
        ]
        for index, (offset, chunk) in enumerate(nonblank):
            try:
                record = WalRecord.from_json(chunk.decode("utf-8", "replace"))
                if record.lsn <= previous_lsn:
                    raise WalError(
                        f"non-monotonic LSN {record.lsn} after {previous_lsn}"
                    )
            except WalError:
                if tolerate_torn_tail and index == len(nonblank) - 1:
                    # A torn final append: drop it and truncate the file
                    # so subsequent appends start on a clean boundary.
                    # The truncation must be as durable as the appends
                    # were — a crash right after recovery must not
                    # resurrect the torn bytes.
                    with open(path, "r+b") as handle:
                        handle.truncate(good_end)
                        if self._sync:
                            os.fsync(handle.fileno())
                    break
                raise
            previous_lsn = record.lsn
            records.append(record)
            good_end = offset + len(chunk) + 1
        return records

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, payload: dict | None = None) -> WalRecord:
        """Append a record, durably when the log is file-backed."""
        if kind not in _KNOWN_KINDS:
            raise WalError(f"unknown WAL record kind: {kind!r}")
        record = WalRecord(self._next_lsn, kind, dict(payload or {}))
        self._next_lsn += 1
        self._records.append(record)
        line = record.to_json() + "\n"
        if self._path is not None:
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                if self._sync and not self._defer_sync:
                    os.fsync(handle.fileno())
        if self._defer_sync:
            self._deferred_appends += 1
        if self._metrics is not None:
            self._metrics.counter("wal.records").inc()
            self._metrics.counter("wal.bytes").inc(len(line))
            if kind in DATA_KINDS:
                self._metrics.counter("wal.data_records").inc()
        return record

    def checkpoint(self, payload: dict | None = None) -> WalRecord:
        """Write a checkpoint marker (optionally carrying manifest info)."""
        return self.append("checkpoint", payload)

    # -- group commit --------------------------------------------------------

    def sync(self) -> None:
        """fsync the log file (closes a deferred group-commit batch)."""
        if self._path is None or not self._path.exists():
            return
        with open(self._path, "a", encoding="utf-8") as handle:
            os.fsync(handle.fileno())

    @contextmanager
    def deferred_sync(self) -> Iterator[None]:
        """Group commit: batch the fsyncs of all appends in this block.

        Appends inside the block are written to the file immediately but
        skip their per-record fsync; one :meth:`sync` at block exit makes
        the whole batch durable together.  This is the server's write
        path under load — N concurrent commits pay one fsync instead of
        N.  No record is acknowledged to a caller until the block exits,
        so the durability contract per *acknowledged* record is
        unchanged.  Re-entrant blocks are no-ops (the outermost block
        owns the sync).
        """
        if self._defer_sync:
            yield
            return
        self._defer_sync = True
        self._deferred_appends = 0
        try:
            yield
        finally:
            self._defer_sync = False
            batched = self._deferred_appends
            self._deferred_appends = 0
            if batched and self._sync:
                self.sync()
            if batched and self._metrics is not None:
                self._metrics.counter("wal.group_commit.batches").inc()
                self._metrics.counter("wal.group_commit.records").inc(batched)
                self._metrics.histogram("wal.group_commit.batch_size").observe(
                    batched
                )

    # -- reading -------------------------------------------------------------

    def records(self) -> list[WalRecord]:
        """All records in LSN order."""
        return list(self._records)

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record, or 0 for an empty log."""
        return self._records[-1].lsn if self._records else 0

    def last_checkpoint_lsn(self) -> int | None:
        """LSN of the most recent checkpoint marker, or None."""
        for record in reversed(self._records):
            if record.kind == "checkpoint":
                return record.lsn
        return None

    def live_records(self) -> list[WalRecord]:
        """Records that still have an effect after replay.

        Create records cancelled by a later matching drop are elided,
        drop records themselves never survive (they only cancel), and
        data records of dropped tables disappear with the table.
        Checkpoint markers are bookkeeping, not replay input, so they
        are excluded.  The result is what a replay actually needs to
        apply.
        """
        return live_records_of(self._records)

    # -- compaction ---------------------------------------------------------

    def compact(self) -> int:
        """Prune records made redundant by drops and the last checkpoint.

        This implements the documented checkpoint contract ("earlier
        records may be pruned"): metadata records are condensed to the
        live set (cancelled create/drop pairs disappear), and data and
        ``rebuild_index`` records at or below the most recent checkpoint
        marker are dropped — a checkpoint has already flushed their
        effect into segment files and the manifest's patch sets, so
        only the WAL tail beyond it is ever replayed.  Metadata records
        are kept across checkpoints because index *definitions* are
        always replayed from the log (their patch sets come from the
        checkpoint's manifest, or from data as the fallback).

        Replay is unaffected: :meth:`live_records` before and after
        compaction differ only in data and rebuild records covered by
        the checkpoint.  LSNs are preserved, as is the next LSN to assign.
        Returns the number of records pruned.
        """
        checkpoint_lsn = self.last_checkpoint_lsn()
        kept = [
            record
            for record in self.live_records()
            if not (
                record.kind in _PRUNABLE_KINDS
                and checkpoint_lsn is not None
                and record.lsn <= checkpoint_lsn
            )
        ]
        if checkpoint_lsn is not None:
            marker = next(
                record
                for record in self._records
                if record.lsn == checkpoint_lsn
            )
            kept.append(marker)
            kept.sort(key=lambda record: record.lsn)
        pruned = len(self._records) - len(kept)
        if pruned == 0:
            return 0
        self._records = kept
        if self._path is not None:
            tmp = self._path.with_suffix(self._path.suffix + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for record in kept:
                    handle.write(record.to_json() + "\n")
                handle.flush()
                if self._sync:
                    os.fsync(handle.fileno())
            os.replace(tmp, self._path)
        return pruned

    def __len__(self) -> int:
        return len(self._records)
