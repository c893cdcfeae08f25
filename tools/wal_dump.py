#!/usr/bin/env python3
"""Print a data directory's log, one line per frame.

Usage::

    PYTHONPATH=src python tools/wal_dump.py <data directory>

Each line shows the frame's LSN, its kind, its JSON header (a
checkpoint head's manifest is summarized: its tables and, per index
whose patch set it carries, the design, the partition count and the
patches cut from the head's rowid column) and each column's dtype,
stored width in bytes (0 for strings), row count and whether it stores
validity bits.  A torn tail — what an open of the directory would truncate
— is reported on a last line.  The directory is only read.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.errors import WalError
from repro.storage.manifest import PATCH_ROWIDS, WAL_NAME
from repro.storage.materialize import split_patch_rowids
from repro.storage.wal import decode, frames


def describe(frame) -> str:
    """One line for one frame, read through the log's own reader."""
    record = decode(frame)
    header = dict(record.payload)
    specs = header.pop("columns", [])
    if record.kind == "checkpoint":
        entries = header.get("patches", {})
        pieces = split_patch_rowids(entries, record.columns.get(PATCH_ROWIDS))
        header = {
            "format_version": header.get("format_version"),
            "checkpoint_lsn": header.get("checkpoint_lsn"),
            "tables": sorted(header.get("tables", {})),
            "patches": {
                name: {
                    "design": entry.get("design"),
                    "partitions": len(pieces[name]),
                    "patches": sum(map(len, pieces[name])),
                }
                if name in pieces
                else "unreadable"
                for name, entry in entries.items()
            },
        }
    columns = "".join(
        f" | {name}: {dtype} width={width} rows={len(record.columns[name])}"
        + (" nullable" if nullable else "")
        for name, dtype, width, nullable in specs
    )
    text = json.dumps(header, separators=(",", ":"))
    return f"{record.lsn} {record.kind} {text}{columns}"


def dump(root: Path, out=sys.stdout) -> int:
    """Print every frame of *root*'s log; returns the exit status."""
    path = root / WAL_NAME
    if not path.is_file():
        print(f"{path}: no log", file=sys.stderr)
        return 1
    end = 0
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        try:
            for frame in frames(handle):
                print(describe(frame), file=out)
                end = frame.end
        except WalError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 1
    if end < size:
        print(f"torn tail: {size - end} bytes from byte {end}", file=out)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: wal_dump.py <data directory>", file=sys.stderr)
        return 2
    return dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
