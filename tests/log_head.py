"""Read and edit the checkpoint record at the head of a data directory's log.

Once a checkpoint has run, the first frame of ``wal.log`` is a
``checkpoint`` record whose header is the manifest and whose one column
holds the patch rowids; these helpers read it through the log's own
frame reader, so tests can inspect it, or damage it (and re-seal it) to
drive recovery's fallbacks.  :func:`encode_frame` writes a
record as the log's append does, for tests that build a log by hand.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from repro.storage.column import ColumnVector
from repro.storage.manifest import PATCH_ROWIDS, WAL_NAME, Manifest
from repro.storage.wal import PREFIX, WalRecord, decode, encode_body, frames, seal
from repro.types import DataType


def encode_frame(lsn: int, kind: str, payload: dict, columns=None) -> bytes:
    """The whole frame of one record, as an append writes it."""
    frame = encode_body(payload, columns)
    return bytes(seal(frame, lsn, kind, zlib.crc32(frame[PREFIX.size :])))


def head_and_tail(root: Path) -> tuple[WalRecord, bytes]:
    """The log's first record and the bytes of every frame after it."""
    path = Path(root) / WAL_NAME
    with open(path, "rb") as handle:
        first = next(frames(handle))
        handle.seek(first.end)
        return decode(first), handle.read()


def head_payload(root: Path) -> dict:
    """The header of the head record (fails without a checkpoint)."""
    record = head_and_tail(root)[0]
    assert record.kind == "checkpoint", record.kind
    return record.payload


def read_manifest(root: Path) -> Manifest | None:
    """The manifest of the head record, or None before a checkpoint."""
    path = Path(root) / WAL_NAME
    if not path.exists() or not path.stat().st_size:
        return None
    record = head_and_tail(root)[0]
    if record.kind != "checkpoint":
        return None
    return Manifest.from_payload(record.payload)


def head_rowids(root: Path) -> np.ndarray:
    """The head record's patch rowid column (fails without a checkpoint)."""
    record = head_and_tail(root)[0]
    assert record.kind == "checkpoint", record.kind
    return record.columns[PATCH_ROWIDS].values


def edit_head(root: Path, edit, *, rowids=None) -> None:
    """Re-seal the head record with its header replaced by
    ``edit(header)`` (which may change it in place and return it) and,
    given *rowids*, its patch rowid column by ``rowids(column)`` (a copy
    of the column's values in, any int sequence out); keeps the records
    after it."""
    head, tail = head_and_tail(root)
    header = edit(head.payload)
    column = head.columns[PATCH_ROWIDS].values.copy()
    if rowids is not None:
        column = np.asarray(rowids(column), dtype=np.int64)
    header["row_count"] = len(column)
    columns = {PATCH_ROWIDS: ColumnVector(DataType.INT64, column)}
    frame = encode_frame(head.lsn, head.kind, header, columns)
    (Path(root) / WAL_NAME).write_bytes(frame + tail)
