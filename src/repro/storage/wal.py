"""Write-ahead log: the one durable file of a data directory.

The paper keeps the WAL slim: a ``CREATE PATCHINDEX`` record is logged
*without* the discovered patches, and on log replay the index is rebuilt
from the data using the same discovery mechanism as at creation time
(paper §V).  This module implements that design as a JSON-lines file,
``<root>/wal.jsonl``:

- once a checkpoint has run, its first line is the ``checkpoint`` head
  record: the :class:`~repro.storage.manifest.Manifest` of the state
  the records before it left (tables, partition files, index
  definitions and the patch sets the indexes are restored from), with
  the checkpoint's own LSN, ``checkpoint_lsn``;
- every later line is a record whose LSN is greater, one per statement
  step, in the order they ran live.

Record kinds:

metadata records
    ``create_table``     table name, schema, partition count
    ``drop_table``       table name
    ``create_index``     index name, table, column, kind, mode, threshold
    ``drop_index``       index name
    ``checkpoint``       the head record (:meth:`WriteAheadLog.install`)

data records (durable storage engine, :mod:`repro.storage.engine`)
    ``append``           rows appended to a table (column → values)
    ``load``             a bulk load split across partitions
    ``delete``           global rowids removed from a table
    ``update``           one cell written in place

index records (durable storage engine)
    ``rebuild_index``    a live PatchIndex rebuild (index and table name)

Only the head carries patch sets; the per-statement records carry data
and DDL, never patches.  Recovery (:mod:`repro.storage.materialize`)
loads the head and replays every later record through the tables, which
the PatchIndexes re-classify as they did live.  Data records carry
*physical* scalar values (dates as day numbers, NULL as ``null``) so
replay is byte-exact.

In memory the log keeps its next LSN, the file's end offset and one
open append handle; records are read back from the file, by recovery
only.  A checkpoint takes its LSN and the end offset together with its
pin (:meth:`WriteAheadLog.reserve`); appends are sequential, so the
bytes after that offset are exactly the records with a greater LSN.
It installs its head with one rename
(:meth:`WriteAheadLog.install`): the head followed by those bytes,
written to ``wal.jsonl.tmp``, fsynced, renamed over the log, the data
directory fsynced.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.check.sanitize import make_lock
from repro.errors import StorageError, WalError
from repro.storage import disk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.manifest import Manifest

#: Row-data record kinds, replayed by the durable storage engine.
DATA_KINDS = frozenset({"append", "load", "delete", "update"})

_KNOWN_KINDS = DATA_KINDS | {
    "create_table", "drop_table", "create_index", "drop_index", "checkpoint",
    "rebuild_index",
}


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
    def from_json(cls, line: str | bytes) -> "WalRecord":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WalError(f"corrupt WAL line: {line[:200]!r}") from exc
        if not isinstance(raw, dict) or "kind" not in raw or "lsn" not in raw:
            raise WalError(f"malformed WAL record: {line[:200]!r}")
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
            raise WalError(f"malformed WAL payload: {line[:200]!r}")
        return cls(lsn=lsn, kind=kind, payload=payload)


def _last_lsn(path: Path, sync: bool) -> int:
    """LSN of the last record of the log at *path* (0 for none).

    An append writes its line and newline at once, so bytes after the
    last newline are a torn append that was never acknowledged: they are
    truncated.
    """
    data = path.read_bytes() if path.exists() else b""
    end = data.rfind(b"\n") + 1
    if end < len(data):
        # The truncation must be as durable as the appends were — a
        # crash right after recovery must not resurrect the torn bytes.
        with disk.DISK.open_append("wal.torn_tail_open", path) as handle:
            disk.DISK.shrink("wal.torn_tail", handle, end)
            if sync:
                disk.DISK.fsync("wal.torn_tail_fsync", handle)
    stop = len(data[:end].rstrip())
    last = data[data.rfind(b"\n", 0, stop) + 1 : stop]
    return WalRecord.from_json(last).lsn if last else 0


class WriteAheadLog:
    """Append-only JSON-lines log.

    When *path* is ``None`` the log is the in-memory engine's: it assigns
    LSNs, and writes and keeps nothing.  A durable data directory passes
    its ``wal.jsonl``, appended through one open handle and fsynced per
    record (``sync=True``) or per :meth:`deferred_sync` batch.

    Opening reads only the last line.  A final line torn by a crash
    mid-append (no newline after it) was never acknowledged, so the file
    is truncated back to the last complete record.  A corrupt complete
    record still raises, from :meth:`records` — that is real corruption,
    not a torn write.  ``metrics`` optionally wires a
    :class:`~repro.obs.metrics.MetricsRegistry` that counts appended
    records and bytes (``wal.records`` / ``wal.bytes``).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        sync: bool = True,
        *,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._path = Path(path) if path is not None else None
        self._sync = sync
        self._metrics = metrics
        #: Orders appends, :meth:`install` and :meth:`sync` on the file.
        #: Taken under the catalog's state lock and the snapshot
        #: registry's lock, never the other way round.
        self._lock = make_lock("storage.wal")
        self._next_lsn = 1
        #: Byte length of the log file: where the next append lands.
        self._end = 0
        #: Where the acknowledged records end: the last fsync's offset
        #: (with ``sync=False``, the last append's).  A failed append or
        #: :meth:`sync` cuts the log back to it.
        self._synced = 0
        self._handle = None
        #: Set by :meth:`close`; every later append raises.
        self._closed = False
        #: True inside a :meth:`deferred_sync` block — appends skip
        #: their per-record fsync and the batch syncs once at exit.
        self._defer_sync = False
        self._deferred_appends = 0
        if self._path is not None:
            self._next_lsn = _last_lsn(self._path, sync) + 1
            self._handle = disk.DISK.open_append("wal.open", self._path)
            self._end = self._synced = self._handle.tell()

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, payload: dict | None = None) -> WalRecord:
        """Append a record, durably when the log is file-backed."""
        if kind not in _KNOWN_KINDS:
            raise WalError(f"unknown WAL record kind: {kind!r}")
        with self._lock:  # lock-ok: the write and its fsync are the append
            handle = self._append_handle_locked()
            record = WalRecord(self._next_lsn, kind, dict(payload or {}))
            self._next_lsn += 1
            line = (record.to_json() + "\n").encode("utf-8")
            if handle is not None:
                try:
                    disk.DISK.write("wal.append", handle, line)
                    if self._sync and not self._defer_sync:
                        disk.DISK.fsync("wal.append_fsync", handle)
                except OSError as exc:
                    self._abandon_handle_locked(handle)
                    raise StorageError(
                        f"could not append to {self._path}: {exc}"
                    ) from exc
                self._end += len(line)
            if self._defer_sync:
                self._deferred_appends += 1
            if not (self._defer_sync and self._sync):
                # Acknowledged on return: fsynced, or no fsync promised.
                self._synced = self._end
        if self._metrics is not None:
            self._metrics.counter("wal.records").inc()
            self._metrics.counter("wal.bytes").inc(len(line))
            if kind in DATA_KINDS:
                self._metrics.counter("wal.data_records").inc()
        return record

    # -- group commit --------------------------------------------------------

    def sync(self) -> None:
        """fsync the log file (closes a deferred group-commit batch).

        A failed fsync is not retried: the records since the last one
        are cut off and the handle is dropped, as after a failed append,
        so the batch it failed is never made durable by a later fsync.
        """
        with self._lock:  # lock-ok: an install swaps the handle this syncs
            handle = self._append_handle_locked()
            if handle is None:  # the in-memory log
                return
            try:
                disk.DISK.fsync("wal.sync", handle)
            except OSError as exc:
                self._abandon_handle_locked(handle)
                raise StorageError(f"could not fsync {self._path}: {exc}") from exc
            self._synced = self._end

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
        with self._lock:
            outer = not self._defer_sync
            if outer:
                self._defer_sync = True
                self._deferred_appends = 0
        if not outer:
            yield
            return
        try:
            yield
        finally:
            with self._lock:
                self._defer_sync = False
                batched = self._deferred_appends
            if batched and self._sync:
                self.sync()
            if batched and self._metrics is not None:
                self._metrics.counter("wal.group_commit.batches").inc()
                self._metrics.counter("wal.group_commit.records").inc(batched)
                self._metrics.histogram("wal.group_commit.batch_size").observe(
                    batched
                )

    # -- reading -------------------------------------------------------------

    def reserve(self) -> tuple[int, int]:
        """Take the next LSN for a checkpoint; returns it with the log's
        end offset, behind which the records the checkpoint covers lie."""
        with self._lock:
            self._next_lsn += 1
            return self._next_lsn - 1, self._end

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record, or 0 for an empty log."""
        with self._lock:
            return self._next_lsn - 1

    def records(self) -> Iterator[WalRecord]:
        """The file's records in order, read from disk one at a time
        (none for the in-memory log).

        Raises :class:`WalError` on a corrupt line, a non-increasing LSN
        or a ``checkpoint`` record anywhere but the head.
        """
        if self._path is None:
            return
        previous = 0
        with open(self._path, "rb") as handle:
            for number, line in enumerate(handle):
                if not line.strip():
                    continue
                record = WalRecord.from_json(line)
                if record.lsn <= previous:
                    raise WalError(
                        f"non-monotonic LSN {record.lsn} after {previous}"
                    )
                if record.kind == "checkpoint" and number:
                    raise WalError(
                        f"checkpoint record {record.lsn} is not the log's head"
                    )
                previous = record.lsn
                yield record

    # -- checkpoint ----------------------------------------------------------

    def install(
        self, manifest: "Manifest", since: int, renamed: Callable[[], None]
    ) -> int:
        """Make *manifest* the log's head record, keeping the records
        after byte offset *since* (those with LSN above its
        ``checkpoint_lsn``, from :meth:`reserve`); returns the bytes its
        patch sets take.

        Under the log's lock, which appends take too: the head and those
        bytes, copied unparsed, go to ``wal.jsonl.tmp``, which is fsynced
        and renamed over the log; *renamed* runs right after the rename,
        before the steps that can still raise: the append handle is
        reopened on the new file and the data directory fsynced.  A crash
        before the rename leaves the old log whole, one after it the new
        one.  If the reopen fails, every later append, sync and install
        raises :class:`StorageError`.
        """
        path = self._path
        tmp = path.with_name(path.name + ".tmp")
        with self._lock:  # lock-ok: the install's fsyncs and rename ARE the checkpoint
            superseded = self._append_handle_locked()
            with open(path, "rb") as log:
                log.seek(since)
                tail = log.read()  # the appends since the pin
            with disk.DISK.create("wal.install.create", tmp) as out:
                write = partial(disk.DISK.write, "wal.install.write", out)
                write(b'{"lsn":%d,"kind":"checkpoint","payload":' % manifest.checkpoint_lsn)
                patches_bytes = manifest.write(write)
                write(b"}\n" + tail)
                if self._sync:
                    disk.DISK.fsync("wal.install.fsync", out)
            disk.DISK.replace("wal.install.rename", tmp, path)
            renamed()
            self._handle = None  # until the new file is open
            superseded.close()
            self._handle = disk.DISK.open_append("wal.install.reopen", path)
            self._end = self._synced = self._handle.tell()
            if self._sync:
                disk.DISK.fsync_path("wal.install.dir_fsync", path.parent)
        return patches_bytes

    def _append_handle_locked(self):
        """The open append handle (None for the in-memory log); raises
        :class:`StorageError` after :meth:`close`, once an append failed
        or once an install failed to reopen it."""
        if self._path is not None and self._handle is None:
            raise StorageError(
                f"{self._path} is closed"
                if self._closed
                else f"{self._path} has no append handle: an append or an "
                "fsync failed, or a checkpoint renamed the log but could "
                "not reopen it; reopen the database"
            )
        return self._handle

    def _abandon_handle_locked(self, handle) -> None:
        """After a failed append or fsync: cut the log back to its last
        acknowledged record — a group-commit batch's earlier records
        too — and drop the handle, so that nothing unacknowledged is
        written later and every later append, sync and install raises."""
        self._handle = None
        self._end = self._synced
        try:
            disk.DISK.shrink("wal.append_rollback", handle, self._synced)
        except OSError:
            pass  # a reopen truncates a torn tail
        finally:
            handle.close()

    def close(self) -> None:
        """Close the append handle; a later append raises."""
        with self._lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None
