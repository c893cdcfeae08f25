"""Write-ahead log: the one durable file of a data directory.

The paper keeps the WAL slim: a ``CREATE PATCHINDEX`` record is logged
*without* the discovered patches, and on log replay the index is rebuilt
from the data using the same discovery mechanism as at creation time
(paper §V).  This module implements that design as a file of binary
frames, ``<root>/wal.log``:

- once a checkpoint has run, its first frame is the ``checkpoint`` head
  record: the :class:`~repro.storage.manifest.Manifest` of the state
  the records before it left (tables, partition files, index
  definitions and the patch-set entries the indexes are restored
  from), with the checkpoint's own LSN, ``checkpoint_lsn``, as its
  header, and every index's patch rowids as its one column;
- every later frame is a record whose LSN is greater, one per statement
  step, in the order they ran live.

A frame is a little-endian prefix (:data:`PREFIX`: body length, LSN,
kind byte, the body's CRC-32, then a CRC-32 of those four fields) and a
body: a 4-byte header length, a compact JSON header, then the bytes of
each column the header lists.  A record's header is its payload; one
that carries columns (a data record, or the head) adds ``row_count`` and
one ``[name, dtype, width, nullable]`` entry per column.  Columns are
stored as :func:`~repro.storage.segment.encode_log_column` writes them
(INT64 and DATE at the narrowest of 1, 2, 4 or 8 bytes, FLOAT64 bit for
bit, strings as a segment's raw string block, packed validity bits),
and read back with ``np.frombuffer``.  Every frame, the head too, is
built by :func:`encode_body` and :func:`seal` and read by
:func:`decode`.

Record kinds (:data:`KINDS`, the kind byte being the position plus one):

metadata records
    ``create_table``     table name, schema, partition count
    ``drop_table``       table name
    ``create_index``     index name, table, column, kind, mode, threshold
    ``drop_index``       index name
    ``checkpoint``       the head record (:meth:`WriteAheadLog.install`)

data records (durable storage engine, :mod:`repro.storage.engine`)
    ``append``           rows appended to a table (its columns)
    ``load``             a bulk load split across partitions
    ``delete``           global rowids removed from a table (one column)
    ``update``           one cell written in place (a one-row column)

index records (durable storage engine)
    ``rebuild_index``    a live PatchIndex rebuild (index and table name)

Only the head carries patch sets; the per-statement records carry data
and DDL, never patches.  Recovery (:mod:`repro.storage.materialize`)
loads the head and replays every later record through the tables, which
the PatchIndexes re-classify as they did live.

Only the last frame can be torn, and opening the log truncates it: an
append writes its frame at once, so a torn one was never acknowledged.
A frame is the last when nothing but zero bytes follow it (a crash can
leave a file's end zero-filled); it is torn when its prefix is short,
its whole prefix fails its CRC, its declared end passes the end of the
file, or its body fails its CRC.  The prefix's own CRC vouches for the
length before the walk trusts it, so damage to a length is never taken
for a torn tail.  The head is never torn — it is installed whole, by a
rename.  Any other damage is a :class:`WalError`.

In memory the log keeps its next LSN, the file's end offset and one
open append handle; records are read back from the file, by recovery
only.  A checkpoint takes its LSN and the end offset together with its
pin (:meth:`WriteAheadLog.reserve`); appends are sequential, so the
bytes after that offset are exactly the records with a greater LSN.
It installs its head with one rename
(:meth:`WriteAheadLog.install`): the head followed by those bytes,
written to ``wal.log.tmp``, fsynced, renamed over the log, the data
directory fsynced.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from repro.check.sanitize import make_lock
from repro.errors import StorageError, WalError
from repro.storage import disk
from repro.storage.column import ColumnVector
from repro.storage.manifest import PATCH_ROWIDS
from repro.storage.segment import decode_log_column, encode_log_column
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.manifest import Manifest

#: Every record kind; a frame's kind byte is its position here plus one.
KINDS = (
    "checkpoint",
    "create_table",
    "drop_table",
    "create_index",
    "drop_index",
    "rebuild_index",
    "append",
    "load",
    "delete",
    "update",
)
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS, 1)}

#: Row-data record kinds, replayed by the durable storage engine.
DATA_KINDS = frozenset({"append", "load", "delete", "update"})

#: A frame's prefix: body length, LSN, kind byte, the body's CRC-32,
#: and the CRC-32 of the four fields before it.
PREFIX = struct.Struct("<QQBII")
#: The prefix fields its own CRC covers.
_CHECKED = struct.Struct("<QQBI")
_HEADER_LENGTH = struct.Struct("<I")
#: A frame header's JSON: compact.
_encode_header = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class WalRecord:
    """One log record: a kind, its header (*payload*) and, for a data
    record, its columns by name (a delete's ``rowids``, an update's one
    cell under the column's name)."""

    lsn: int
    kind: str
    payload: dict = field(default_factory=dict)
    columns: dict[str, ColumnVector] = field(default_factory=dict)


class Frame(NamedTuple):
    """One whole frame of a log file, as :func:`frames` walks it."""

    offset: int
    end: int
    lsn: int
    kind: str
    #: The body (None when the walk skipped it).
    body: bytes | None


def _kind_code(kind: str) -> int:
    try:
        return _KIND_CODES[kind]
    except KeyError:
        raise WalError(f"unknown WAL record kind: {kind!r}") from None


def encode_body(
    payload: dict, columns: Mapping[str, ColumnVector] | None = None
) -> bytearray:
    """A frame with its prefix left zero (:func:`seal` fills it): the
    header — *payload*, plus one entry per column of *columns* — and the
    columns' bytes."""
    header = dict(payload)
    buffers: list = []
    if columns is not None:
        specs = []
        for name, column in columns.items():
            width, pieces = encode_log_column(column)
            specs.append(
                [name, column.dtype.value, width, int(column.validity is not None)]
            )
            buffers += pieces
        header["columns"] = specs
    text = _encode_header(header).encode("utf-8")
    return bytearray().join(
        [bytes(PREFIX.size), _HEADER_LENGTH.pack(len(text)), text, *buffers]
    )


def seal(frame: bytearray, lsn: int, kind: str, body_crc: int) -> bytearray:
    """Fill *frame*'s prefix for *lsn*; *body_crc* is the CRC-32 of the
    body (everything after the prefix)."""
    fields = _CHECKED.pack(len(frame) - PREFIX.size, lsn, _kind_code(kind), body_crc)
    frame[: PREFIX.size] = fields + struct.pack("<I", zlib.crc32(fields))
    return frame


def _only_zeros(handle: BinaryIO, start: int, size: int) -> bool:
    """Whether the file's bytes from *start* to its end *size* are all
    zero (true when there are none)."""
    handle.seek(start)
    step = PREFIX.size
    while start < size:
        chunk = handle.read(min(step, size - start))
        if chunk.strip(b"\0"):
            return False
        start += len(chunk)
        step = min(2 * step, 1 << 20)
    return True


def frames(handle: BinaryIO, *, bodies: bool = True) -> Iterator[Frame]:
    """The whole frames of the log file open in *handle*, from its start.

    Stops at a torn tail (see the module docstring): a short prefix at
    the end of the file, or a last frame — one followed by zero bytes
    only — whose whole prefix fails its CRC, whose declared end passes
    the end of the file, or whose body fails its CRC.  Raises
    :class:`WalError` at any other CRC failure, an unknown kind, a
    non-increasing LSN, a ``checkpoint`` record anywhere but the head,
    or a head that fails its CRC or is cut short.  Without *bodies* only
    the last frame's body is read; the others are skipped, and yielded
    with ``body=None``.
    """
    size = handle.seek(0, os.SEEK_END)
    offset = previous = 0
    while offset < size:
        handle.seek(offset)
        prefix = handle.read(PREFIX.size)
        if len(prefix) < PREFIX.size:
            return
        length, lsn, code, body_crc, crc = PREFIX.unpack(prefix)
        if zlib.crc32(prefix[: _CHECKED.size]) != crc:
            if _only_zeros(handle, offset, size):
                return
            raise WalError(f"the frame prefix at byte {offset} fails its CRC")
        if not 1 <= code <= len(KINDS):
            raise WalError(f"unknown WAL record kind {code} at byte {offset}")
        kind = KINDS[code - 1]
        if lsn <= previous:
            raise WalError(f"non-monotonic LSN {lsn} after {previous}")
        if kind == "checkpoint" and offset:
            raise WalError(f"checkpoint record {lsn} is not the log's head")
        end = offset + PREFIX.size + length
        if end > size:
            if kind == "checkpoint":
                raise WalError(f"checkpoint record {lsn} ends past the log's end")
            return
        body = None
        if bodies or _only_zeros(handle, end, size):
            handle.seek(offset + PREFIX.size)
            body = handle.read(length)
            if zlib.crc32(body) != body_crc:
                if kind == "checkpoint" or not _only_zeros(handle, end, size):
                    raise WalError(f"WAL record {lsn} at byte {offset} fails its CRC")
                return
        yield Frame(offset, end, lsn, kind, body)
        previous, offset = lsn, end


def decode(frame: Frame) -> WalRecord:
    """The record a whole frame holds (read with its body)."""
    body = frame.body
    try:
        (length,) = _HEADER_LENGTH.unpack_from(body)
        end = _HEADER_LENGTH.size + length
        header = json.loads(body[_HEADER_LENGTH.size : end])
        if not isinstance(header, dict):
            raise ValueError("the header is not an object")
        columns: dict[str, ColumnVector] = {}
        if frame.kind in DATA_KINDS or "columns" in header:
            count = int(header["row_count"])
            for name, dtype, width, nullable in header["columns"]:
                columns[name], end = decode_log_column(
                    DataType(dtype), int(width), bool(nullable), count, body, end
                )
        if end != len(body):
            raise ValueError(f"{len(body) - end} bytes after the last column")
    except (ValueError, KeyError, TypeError, struct.error, StorageError) as exc:
        raise WalError(
            f"malformed {frame.kind} record {frame.lsn} at byte {frame.offset}: {exc}"
        ) from exc
    return WalRecord(frame.lsn, frame.kind, header, columns)


def _last_lsn(path: Path, sync: bool) -> int:
    """LSN of the last record of the log at *path* (0 for none).

    Walks the frames' prefixes; a torn last frame was never
    acknowledged, so it is truncated.
    """
    if not path.exists():
        return 0
    last = end = 0
    with open(path, "rb") as handle:
        for frame in frames(handle, bodies=False):
            last, end = frame.lsn, frame.end
        size = os.fstat(handle.fileno()).st_size
    if end < size:
        # The truncation must be as durable as the appends were — a
        # crash right after recovery must not resurrect the torn bytes.
        with disk.DISK.open_append("wal.torn_tail_open", path) as handle:
            disk.DISK.shrink("wal.torn_tail", handle, end)
            if sync:
                disk.DISK.fsync("wal.torn_tail_fsync", handle)
    return last


class WriteAheadLog:
    """Append-only log of frames.

    When *path* is ``None`` the log is the in-memory engine's: it assigns
    LSNs, and writes and keeps nothing.  A durable data directory passes
    its ``wal.log``, appended through one open handle and fsynced per
    record (``sync=True``) or per :meth:`deferred_sync` batch.

    Opening walks the frames' prefixes and reads only the last frame's
    body.  A last frame torn by a crash mid-append was never
    acknowledged, so the file is truncated back to the frame before it.
    Any other damage raises :class:`WalError` — at open when a prefix
    shows it, else from :meth:`records`.  ``metrics`` optionally wires a
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
        #: Set by a failed append or sync (:attr:`failed`).
        self._failed = False
        #: True inside a :meth:`deferred_sync` block — appends skip
        #: their per-record fsync and the batch syncs once at exit.
        self._defer_sync = False
        self._deferred_appends = 0
        if self._path is not None:
            self._next_lsn = _last_lsn(self._path, sync) + 1
            self._handle = disk.DISK.open_append("wal.open", self._path)
            self._end = self._synced = self._handle.tell()

    # -- appending ---------------------------------------------------------

    def append(
        self,
        kind: str,
        payload: dict | None = None,
        columns: Mapping[str, ColumnVector] | None = None,
    ) -> WalRecord:
        """Append a record, durably when the log is file-backed.

        A data record passes its *columns*.  The frame and the CRC of
        its body are built before the log's lock is taken; under it the
        record gets its LSN and the prefix is filled in.
        """
        _kind_code(kind)
        payload = dict(payload or {})
        frame = encode_body(payload, columns)
        body_crc = zlib.crc32(memoryview(frame)[PREFIX.size :])
        with self._lock:  # lock-ok: the write and its fsync are the append
            handle = self._append_handle_locked()
            record = WalRecord(self._next_lsn, kind, payload, dict(columns or {}))
            self._next_lsn += 1
            seal(frame, record.lsn, kind, body_crc)
            if handle is not None:
                try:
                    disk.DISK.write("wal.append", handle, frame)
                    if self._sync and not self._defer_sync:
                        disk.DISK.fsync("wal.append_fsync", handle)
                except OSError as exc:
                    self._abandon_handle_locked(handle)
                    raise StorageError(
                        f"could not append to {self._path}: {exc}"
                    ) from exc
                self._end += len(frame)
            if self._defer_sync:
                self._deferred_appends += 1
            if not (self._defer_sync and self._sync):
                # Acknowledged on return: fsynced, or no fsync promised.
                self._synced = self._end
        if self._metrics is not None:
            self._metrics.counter("wal.records").inc()
            self._metrics.counter("wal.bytes").inc(len(frame))
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

    @property
    def failed(self) -> bool:
        """True once an append or a sync failed: the records it cut off
        were applied in memory, so nothing may read or write until the
        database is reopened."""
        return self._failed  # lock-ok: set once; a racing statement sees it at its next

    def records(self) -> Iterator[WalRecord]:
        """The file's records in order, read from disk one at a time
        (none for the in-memory log).

        Raises :class:`WalError` where :func:`frames` does, and on a
        frame whose body does not parse.
        """
        if self._path is None:
            return
        with open(self._path, "rb") as handle:
            for frame in frames(handle):
                yield decode(frame)

    # -- checkpoint ----------------------------------------------------------

    def install(
        self,
        manifest: "Manifest",
        rowids: np.ndarray,
        since: int,
        renamed: Callable[[], None],
    ) -> int:
        """Make *manifest* the log's head record, with the patch *rowids*
        as its column, keeping the records after byte offset *since*
        (those with LSN above its ``checkpoint_lsn``, from
        :meth:`reserve`); returns the bytes that column takes.

        The head frame is built first, as an append builds its frame;
        then, under the log's lock, which appends take too: the head and
        those bytes, copied unparsed, go to ``wal.log.tmp``, which is fsynced
        and renamed over the log; *renamed* runs right after the rename,
        before the steps that can still raise: the append handle is
        reopened on the new file and the data directory fsynced.  A crash
        before the rename leaves the old log whole, one after it the new
        one.  If the reopen fails, every later append, sync and install
        raises :class:`StorageError`.
        """
        path = self._path
        tmp = path.with_name(path.name + ".tmp")
        frame = encode_body(
            {**manifest.to_payload(), "row_count": len(rowids)},
            {PATCH_ROWIDS: ColumnVector(DataType.INT64, rowids)},
        )
        body = memoryview(frame)[PREFIX.size :]
        seal(frame, manifest.checkpoint_lsn, "checkpoint", zlib.crc32(body))
        (header_length,) = _HEADER_LENGTH.unpack_from(body)
        patches_bytes = len(body) - _HEADER_LENGTH.size - header_length
        with self._lock:  # lock-ok: the install's fsyncs and rename ARE the checkpoint
            superseded = self._append_handle_locked()
            with open(path, "rb") as log:
                log.seek(since)
                tail = log.read()  # the appends since the pin
            with disk.DISK.create("wal.install.create", tmp) as out:
                disk.DISK.write("wal.install.write", out, frame)
                disk.DISK.write("wal.install.write", out, tail)
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
        self._failed = True
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
