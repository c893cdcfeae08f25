"""Read and edit the checkpoint record at the head of a data directory's log.

Once a checkpoint has run, the first frame of ``wal.log`` is a
``checkpoint`` record whose header is the manifest; these helpers read
it through the log's own frame reader, so tests can inspect it, or
damage it to drive recovery's fallbacks.  :func:`encode_frame` writes a
record as the log's append does, for tests that build a log by hand.
"""

from __future__ import annotations

import zlib
from pathlib import Path

from repro.storage.manifest import WAL_NAME, Manifest
from repro.storage.wal import PREFIX, WalRecord, decode, encode_body, frames, seal


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


def edit_head(root: Path, edit) -> None:
    """Replace the head record's header with ``edit(header)`` (which may
    change it in place and return it), keeping the records after it."""
    head, tail = head_and_tail(root)
    frame = encode_frame(head.lsn, head.kind, edit(head.payload))
    (Path(root) / WAL_NAME).write_bytes(frame + tail)
