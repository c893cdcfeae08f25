"""Test disks for the durable-I/O seam (``repro.storage.disk``).

Each one is installed with ``monkeypatch.setattr(disk, "DISK", …)``.
:class:`ObservedDisk` routes every seam call through one method,
:meth:`ObservedDisk.call`; :class:`FaultyDisk` fails one site, and
:class:`RecordingDisk` rebuilds the directory a crash before any call
would leave, from what had been made durable by then.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

from repro.storage import disk

#: Every seam operation, by :class:`repro.storage.disk.Disk` method name.
OPERATIONS = tuple(name for name in vars(disk.Disk) if not name.startswith("_"))


def _routed(operation: str):
    real = getattr(disk.Disk, operation)

    def method(self, site, *args):
        return self.call(operation, site, lambda: real(self, site, *args), *args)

    return method


class ObservedDisk(disk.Disk):
    """A disk whose every call goes through :meth:`call`, which gets the
    operation, the site, a thunk making the real call, and its arguments."""

    def call(self, operation: str, site: str, make, *args):
        return make()


for _operation in OPERATIONS:
    setattr(ObservedDisk, _operation, _routed(_operation))


class FaultyDisk(ObservedDisk):
    """Every call at *site* raises ``ENOSPC``; with ``short``, a write
    first writes half its bytes, as a full disk's short write does."""

    def __init__(self, site: str, *, short: bool = False):
        self.site = site
        self.short = short
        self.fired = 0

    def call(self, operation, site, make, *args):
        if site != self.site:
            return make()
        self.fired += 1
        if self.short and operation == "write":
            handle, data = args
            disk.Disk.write(self, site, handle, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, f"injected at {site}: No space left on device")


class RecordingDisk(ObservedDisk):
    """Makes every call, and keeps what a crash would leave of *base*.

    The crash rules: a file's bytes are durable as they were at its last
    fsync (a new file's, empty); a new file or directory, a rename or an
    unlink is durable only once its directory is fsynced after it.  What *base* holds when
    installed counts as durable.  ``points`` holds, for each call in
    order, its site and the index in ``images`` of the tree a crash just
    before it leaves (``{relative path: bytes, or None for a
    directory}``); :meth:`acknowledge` marks a statement's success.  A
    call whose site is in *skip* is not made: a seeded mutation.
    """

    def __init__(self, base: Path, skip=frozenset()):
        self.base = base
        self.skip = frozenset(skip)
        #: A file's bytes at its last fsync, by node.
        self.synced: dict[int, bytes] = {}
        #: Node of each (st_dev, st_ino).
        self.nodes: dict[tuple[int, int], int] = {}
        #: Entries of each known directory: name -> node, None for a
        #: directory; as they are now, and as a crash would leave them.
        self.live: dict[Path, dict[str, int | None]] = {}
        self.durable: dict[Path, dict[str, int | None]] = {}
        self.images: list[dict[str, bytes | None]] = []
        self.points: list[tuple[str, int]] = []
        self.acks: list[int] = []
        self._scan(base)
        self._image()

    def acknowledge(self) -> None:
        self.acks.append(len(self.points))

    def crash_points(self):
        """``(site, image, acknowledged statements)`` for a crash before
        each call, then one after the last (site ``"end"``)."""
        points = [*self.points, ("end", len(self.images) - 1)]
        for number, (site, image) in enumerate(points):
            yield site, image, sum(1 for ack in self.acks if ack <= number)

    def materialize(self, image: int, target: Path) -> None:
        target.mkdir()
        for relative, data in self.images[image].items():
            if data is None:
                (target / relative).mkdir()
            else:
                (target / relative).write_bytes(data)

    # -- the model ---------------------------------------------------------

    def call(self, operation, site, make, *args):
        self.points.append((site, len(self.images) - 1))
        if site in self.skip:
            return None
        makes = operation in ("create", "open_append", "mkdir")
        path = Path(args[0]) if makes else None
        existed = path is not None and path.exists()
        result = make()
        if path is not None and not existed and path.parent in self.live:
            if operation == "mkdir":
                self.live[path], self.durable[path] = {}, {}
                self.live[path.parent][path.name] = None
            else:
                self.live[path.parent][path.name] = self._new_node(os.stat(path))
        elif operation == "fsync":
            self._sync_file(Path(args[0].name), os.fstat(args[0].fileno()))
        elif operation == "fsync_path":
            target = Path(args[0])
            if target in self.live:
                self.durable[target] = dict(self.live[target])
            else:
                self._sync_file(target, os.stat(target))
        elif operation == "replace":
            source, target = map(Path, args)
            entry = self.live[source.parent].pop(source.name)
            self.live[target.parent][target.name] = entry
        elif operation == "delete":
            self.live[Path(args[0]).parent].pop(Path(args[0]).name)
        self._image()
        return result

    def _new_node(self, status, data: bytes = b"") -> int:
        node = len(self.synced)
        self.synced[node] = data
        self.nodes[(status.st_dev, status.st_ino)] = node
        return node

    def _sync_file(self, path: Path, status) -> None:
        assert os.stat(path).st_ino == status.st_ino, path
        self.synced[self.nodes[(status.st_dev, status.st_ino)]] = path.read_bytes()

    def _scan(self, directory: Path) -> None:
        entries: dict[str, int | None] = {}
        for child in sorted(directory.iterdir()):
            if child.is_dir():
                entries[child.name] = None
                self._scan(child)
            else:
                entries[child.name] = self._new_node(os.stat(child), child.read_bytes())
        self.live[directory], self.durable[directory] = entries, dict(entries)

    def _image(self) -> None:
        image: dict[str, bytes | None] = {}

        def walk(directory: Path, prefix: str) -> None:
            for name, node in sorted(self.durable.get(directory, {}).items()):
                image[prefix + name] = None if node is None else self.synced[node]
                if node is None:
                    walk(directory / name, prefix + name + "/")

        walk(self.base, "")
        if not self.images or image != self.images[-1]:
            self.images.append(image)
