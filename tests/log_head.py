"""Read and edit the checkpoint record at the head of a data directory's log.

Once a checkpoint has run, the first line of ``wal.jsonl`` is a
``checkpoint`` record whose payload is the manifest; these helpers let
tests inspect it, or damage it to drive recovery's fallbacks.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.storage.manifest import WAL_NAME, Manifest


def head_and_tail(root: Path) -> tuple[bytes, bytes]:
    """The log's first line (with its newline) and everything after it."""
    data = (Path(root) / WAL_NAME).read_bytes()
    cut = data.index(b"\n") + 1
    return data[:cut], data[cut:]


def head_payload(root: Path) -> dict:
    """The payload of the head record (fails without a checkpoint)."""
    record = json.loads(head_and_tail(root)[0])
    assert record["kind"] == "checkpoint", record["kind"]
    return record["payload"]


def read_manifest(root: Path) -> Manifest | None:
    """The manifest of the head record, or None before a checkpoint."""
    path = Path(root) / WAL_NAME
    if not path.exists() or not path.stat().st_size:
        return None
    record = json.loads(head_and_tail(root)[0])
    if record["kind"] != "checkpoint":
        return None
    return Manifest.from_payload(record["payload"])


def edit_head(root: Path, edit) -> None:
    """Replace the head record's payload with ``edit(payload)`` (which may
    change it in place and return it), keeping the records after it."""
    head, tail = head_and_tail(root)
    record = json.loads(head)
    record["payload"] = edit(record["payload"])
    (Path(root) / WAL_NAME).write_bytes(json.dumps(record).encode() + b"\n" + tail)
