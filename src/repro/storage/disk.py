"""The one seam for durable I/O.

Every new file or directory, write, truncate, fsync, rename and unlink
in a data directory is a call on :data:`DISK` naming its site
(``"wal.append"``, ``"segments.dir_fsync"``, …; DESIGN.md §5d lists
them); no other storage module makes one (lint L3).  :class:`Disk`
ignores the site and makes the syscall the site would make inline.
Tests swap ``DISK`` for a disk that fails a call, or that records what
each call made durable and rebuilds what a crash at any call leaves.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO


class Disk:
    """Durable file operations; each takes the name of its call site."""

    def create(self, site: str, path: Path) -> BinaryIO:
        """A new, empty file at *path*, open for buffered writes."""
        return open(path, "wb")

    def open_append(self, site: str, path: Path) -> BinaryIO:
        """*path* open for unbuffered appends, created when missing: a
        failed write leaves nothing behind to be written later."""
        return open(path, "ab", buffering=0)

    def mkdir(self, site: str, path: Path) -> None:
        os.mkdir(path)

    def write(self, site: str, handle: BinaryIO, data: bytes) -> None:
        """Write all of *data*; an unbuffered handle may take it in parts."""
        view = memoryview(data)
        while view:
            view = view[handle.write(view):]

    def shrink(self, site: str, handle: BinaryIO, size: int) -> None:
        """Truncate *handle*'s file to *size* bytes."""
        handle.truncate(size)

    def fsync(self, site: str, handle: BinaryIO) -> None:
        """Flush *handle* and fsync its file."""
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_path(self, site: str, path: Path) -> None:
        """fsync the file or directory at *path*: for a directory, the
        names created, renamed or unlinked in it."""
        descriptor = os.open(path, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def replace(self, site: str, source: Path, target: Path) -> None:
        os.replace(source, target)

    def delete(self, site: str, path: Path) -> None:
        """Unlink *path*."""
        os.unlink(path)


#: The disk every storage module writes through; tests swap it.
DISK = Disk()
