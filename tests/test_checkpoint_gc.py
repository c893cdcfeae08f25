"""What a checkpoint frees, and that checkpoints never trip over each other.

Each inode a checkpoint frees costs a fixed, large amount on some file
systems (an ext4 mount with ``discard``), so the durable layout is built
to free only what a checkpoint actually replaced: one file per
partition in a flat ``segments/`` directory, written once and named by
every later manifest that keeps it, with the manifest and its patch
sets as the log's head record (``storage/wal.py``).  These tests count
the calls that free an inode during a checkpoint on the
``mixed_ingest`` shape, pin that ``segments/`` holds exactly the files
live manifests name, that a failed delete is counted and logged instead
of swallowed, that the patch-set bytes stay observable, that a
checkpoint that wrote a file fsyncs both directories, and that
concurrent ``checkpoint()`` calls leave a directory that reopens whole.
"""

from __future__ import annotations

import os
import shutil
import stat
import threading

import numpy as np
import pytest

import repro
from repro.errors import StorageError
from repro.storage import disk, snapshot
from repro.storage.manifest import PATCH_ROWIDS, SEGMENTS_DIR, WAL_NAME
from tests.disks import FaultyDisk
from tests.log_head import head_payload, head_rowids, read_manifest


def on_disk(root) -> set[str]:
    return {f"{SEGMENTS_DIR}/{path.name}" for path in (root / SEGMENTS_DIR).iterdir()}


def counter(db, name: str) -> int:
    return db.metrics().export()["counters"].get(name, 0)


class InodeFrees:
    """Counts the calls that free an inode while installed: an
    ``unlink`` of a file's last link, any ``rmdir``, and an
    ``os.replace`` / ``os.rename`` onto an existing name."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, str]] = []
        for name in ("unlink", "remove", "rmdir", "replace", "rename"):
            monkeypatch.setattr(os, name, self._wrap(name, getattr(os, name)))

    def _wrap(self, name, real):
        def counted(path, *args, **kwargs):
            if name in ("replace", "rename"):
                target = args[0]
                dir_fd = kwargs.get("dst_dir_fd")
            else:
                target = path
                dir_fd = kwargs.get("dir_fd")
            try:
                status = os.stat(target, dir_fd=dir_fd, follow_symlinks=False)
            except OSError:
                status = None
            if status is not None and (
                name == "rmdir"
                or (not stat.S_ISDIR(status.st_mode) and status.st_nlink == 1)
            ):
                self.calls.append((name, os.fspath(target)))
            return real(path, *args, **kwargs)

        return counted


def mixed_ingest_shape(root, rows: int = 200_000):
    """``bench_e2e``'s ``mixed_ingest`` table, checkpointed and reopened:
    k ascending, u nearly unique, s nearly sorted, v payload, four
    partitions, a UNIQUE and a SORTED PatchIndex."""
    rng = np.random.default_rng(7)
    keys = np.arange(rows, dtype=np.int64)
    u = keys.copy()
    u[rng.choice(rows, rows // 100, replace=False)] = rng.integers(0, rows, rows // 100)
    s = keys.copy()
    s[rng.choice(rows, rows // 100, replace=False)] = rng.integers(0, rows, rows // 100)
    db = repro.connect(root, sync=False)
    schema = repro.Schema(
        repro.Field(name, repro.DataType.INT64) for name in ("k", "u", "s", "v")
    )
    table = db.create_table("t", schema, partition_count=4)
    table.load_columns(
        {
            name: repro.ColumnVector(repro.DataType.INT64, values)
            for name, values in (
                ("k", keys),
                ("u", u),
                ("s", s),
                ("v", rng.integers(0, 1_000, rows, dtype=np.int64)),
            )
        }
    )
    db.sql("CREATE PATCHINDEX pi_u ON t(u) TYPE UNIQUE")
    db.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
    db.checkpoint()
    db.close()
    return repro.connect(root, sync=False)


class TestInodeFrees:
    def test_a_mixed_ingest_checkpoint_frees_at_most_two(self, tmp_path, monkeypatch):
        root = tmp_path / "db"
        db = mixed_ingest_shape(root)
        rows = db.table("t").row_count
        next_key = rows
        for round_ in range(3):
            for _ in range(5):
                values = ", ".join(
                    f"({k}, {k + 4 * rows}, {k}, {k % 1000})"
                    for k in range(next_key, next_key + 100)
                )
                db.sql(f"INSERT INTO t VALUES {values}")
                next_key += 100
            low = next_key - 500
            db.sql(f"DELETE FROM t WHERE k BETWEEN {low} AND {low + 49}")
            before = read_manifest(root).files()
            deleted = counter(db, "checkpoint.files_deleted")
            frees = InodeFrees(monkeypatch)
            summary = db.checkpoint()
            monkeypatch.undo()
            # The last partition's old file, the log's rename.
            assert len(frees.calls) <= 2, frees.calls
            assert counter(db, "checkpoint.files_deleted") - deleted == 1, round_
            after = read_manifest(root).files()
            assert len(before - after) == len(after - before) == 1
            assert summary["segments_carried"] == 12
            assert on_disk(root) == after
        db.close()


class TestOnlyNamedFilesStay:
    def test_segments_holds_what_live_manifests_name(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.create_table_from_pydict(
            "t",
            repro.Schema([repro.Field("k", repro.DataType.INT64)]),
            {"k": list(range(400))},
            partition_count=4,
        )
        db.checkpoint()
        db.close()
        db = repro.connect(root, sync=False)
        views = []
        pinned: list[frozenset[str]] = []
        for step in range(6):
            db.sql(f"INSERT INTO t VALUES ({1000 + step})")
            if step % 2 == 0:
                views.append(db.snapshot())
                pinned.append(read_manifest(root).files())
            db.checkpoint()
            live = set(read_manifest(root).files()).union(*pinned)
            assert on_disk(root) == live, step
        for view, files in list(zip(views, pinned)):
            view.close()
            pinned.remove(files)
            live = set(read_manifest(root).files()).union(*pinned)
            assert on_disk(root) == live
        assert db.obs.gauge("storage.snapshot.deferred_generations").value == 0
        # A copy taken while a pin defers files stands for a crash: its
        # reopen deletes what its manifest does not name.
        with db.snapshot():
            db.sql("INSERT INTO t VALUES (2000)")
            db.checkpoint()
            assert on_disk(root) > read_manifest(root).files()
            shutil.copytree(root, tmp_path / "crashed")
        db.close()
        crashed = tmp_path / "crashed"
        db = repro.connect(crashed, sync=False)
        assert on_disk(crashed) == read_manifest(crashed).files()
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 407
        db.close()


class TestFileNames:
    def test_a_quoted_table_name_is_never_a_path(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.sql('CREATE TABLE "../a/b" (k BIGINT)')
        db.sql('INSERT INTO "../a/b" VALUES (1), (2)')
        lsn = db.checkpoint()["lsn"]
        db.close()
        assert sorted(path.name for path in root.iterdir()) == [
            "segments",
            "wal.log",
        ]
        assert [path.name for path in (root / SEGMENTS_DIR).iterdir()] == [
            f"..%2Fa%2Fb.p0.{lsn:012d}.seg"
        ]
        db = repro.connect(root, sync=False)
        assert db.sql('SELECT k FROM "../a/b"').to_pylist() == [(1,), (2,)]
        db.close()


class TestFailedDeletes:
    def test_a_failed_delete_is_counted_logged_once_and_retried(
        self, tmp_path, monkeypatch, caplog
    ):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        db.checkpoint()
        real_unlink = os.unlink

        def refuse(path, *args, **kwargs):
            if os.fspath(path).endswith(".seg"):
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return real_unlink(path, *args, **kwargs)

        snapshot._LOGGED_REASONS.discard("Permission denied")
        monkeypatch.setattr(os, "unlink", refuse)
        stale = []
        with caplog.at_level("WARNING", logger="repro.storage.snapshot"):
            for key in (2, 3):
                stale.append(read_manifest(root).files())
                db.sql(f"INSERT INTO t VALUES ({key})")
                db.checkpoint()
        monkeypatch.undo()
        assert counter(db, "fallback.gc_delete_failed") == 2
        assert counter(db, "checkpoint.files_deleted") == 0
        lines = [
            record.getMessage()
            for record in caplog.records
            if "could not delete" in record.getMessage()
        ]
        assert len(lines) == 1 and "Permission denied" in lines[0]
        assert set().union(*stale) <= on_disk(root)
        db.close()
        reopened = repro.connect(root, sync=False)
        assert on_disk(root) == read_manifest(root).files()
        assert counter(reopened, "checkpoint.files_deleted") == 2
        reopened.close()


class TestPatchBytes:
    def test_patch_bytes_are_reported_and_match_the_manifest(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.create_table_from_pydict(
            "t",
            repro.Schema([repro.Field("k", repro.DataType.INT64)]),
            {"k": [1, 2, 2, 3, 5, 4]},
        )
        db.sql("CREATE PATCHINDEX pu ON t(k) TYPE UNIQUE")
        summary = db.checkpoint()
        patches = head_payload(root)["patches"]
        assert patches["pu"]["partitions"] == [{"row_count": 6, "patch_count": 2}]
        assert head_rowids(root).tolist() == [1, 2]
        assert summary["patches_bytes"] == 2  # two rowids of one byte
        assert db.obs.gauge("storage.patches_bytes").value == 2
        assert not list(root.rglob("patches.json"))
        db.close()
        assert repro.connect().checkpoint()["patches_bytes"] == 0

    def test_the_heads_json_holds_no_rowid(self, tmp_path):
        """The patch rowids are the head's one column, back to back in
        manifest order; its JSON header holds only their counts."""
        root = tmp_path / "db"
        db = mixed_ingest_shape(root, rows=20_000)
        db.sql("CREATE TABLE e (k BIGINT)")
        db.sql("CREATE PATCHINDEX pe ON e(k) TYPE UNIQUE")  # no patches
        db.sql("INSERT INTO t VALUES (1, 1, 1, 1), (20001, 2, 0, 2)")
        summary = db.checkpoint()
        header = head_payload(root)
        assert list(header["patches"]) == ["pi_u", "pi_s", "pe"]
        ((name, dtype, width, nullable),) = header["columns"]
        assert (name, dtype, nullable) == (PATCH_ROWIDS, "int64", 0) and width <= 4
        expected: list[int] = []
        for index_name, entry in header["patches"].items():
            assert sorted(entry) == [
                "definition",
                "design",
                "partitions",
                "rebuild_count",
                "stats",
            ]
            index = db.catalog.index(index_name)
            for pid, part in enumerate(entry["partitions"]):
                rowids = index.partition_patches(pid).rowids().tolist()
                assert part == {
                    "row_count": index.table.partitions[pid].row_count,
                    "patch_count": len(rowids),
                }
                expected += rowids
        assert expected and head_rowids(root).tolist() == expected
        assert summary["patches_bytes"] == width * len(expected)
        db.close()


def _failing_rename(monkeypatch):
    def replace(*args, **kwargs):
        raise OSError("injected: rename")

    monkeypatch.setattr(os, "replace", replace)


def _failing_segments_sync(monkeypatch):
    monkeypatch.setattr(disk, "DISK", FaultyDisk("segments.dir_fsync"))


def _failing_segment_write(monkeypatch):
    def write_segments(path, segments, *, sync):
        with open(path, "wb") as handle:
            handle.write(b"torn")
        raise OSError("injected: segment write")

    monkeypatch.setattr("repro.storage.checkpoint.write_segments", write_segments)


class TestFailureBeforeTheRename:
    """A checkpoint that raises before the log names it deletes the
    files it wrote; no later checkpoint would."""

    @pytest.mark.parametrize(
        "inject", [_failing_rename, _failing_segments_sync, _failing_segment_write]
    )
    def test_the_files_it_wrote_are_deleted(self, tmp_path, monkeypatch, inject):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        db.checkpoint()
        named = read_manifest(root).files()
        db.sql("INSERT INTO t VALUES (2)")
        inject(monkeypatch)
        with pytest.raises(OSError, match="injected"):
            db.checkpoint()
        monkeypatch.undo()
        assert on_disk(root) == named == read_manifest(root).files()
        assert not (root / (WAL_NAME + ".tmp")).exists()
        db.sql("INSERT INTO t VALUES (3)")
        db.checkpoint()
        assert on_disk(root) == read_manifest(root).files()
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        db.close()
        db = repro.connect(root)
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        db.close()


class TestFailureAfterTheRename:
    """Once the log is renamed it names the new manifest, whatever the
    install does next; the registry must follow it."""

    def test_a_failed_directory_fsync_still_frees_what_it_superseded(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        db.checkpoint()
        db.sql("INSERT INTO t VALUES (2)")

        monkeypatch.setattr(disk, "DISK", FaultyDisk("wal.install.dir_fsync"))
        with pytest.raises(OSError, match="injected"):
            db.checkpoint()
        monkeypatch.undo()
        assert on_disk(root) == read_manifest(root).files()
        db.sql("INSERT INTO t VALUES (3)")
        db.checkpoint()
        assert on_disk(root) == read_manifest(root).files()
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        db.close()
        db = repro.connect(root)
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        db.close()

    def test_a_log_that_could_not_be_reopened_refuses_with_a_storage_error(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        real_open = open

        def failing(file, mode="r", *args, **kwargs):
            if mode == "ab":
                raise OSError("injected: reopen")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", failing)
        with pytest.raises(OSError, match="injected"):
            db.checkpoint()
        monkeypatch.undo()
        with pytest.raises(StorageError, match="append handle"):
            db.sql("INSERT INTO t VALUES (2)")
        with pytest.raises(StorageError, match="append handle"):
            db.checkpoint()
        db.close()
        db = repro.connect(root)
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 1
        assert on_disk(root) == read_manifest(root).files()
        db.close()


class DirectorySyncs:
    """Records, in order, each fsync of a directory (by path) and each
    ``os.replace``, while installed."""

    def __init__(self, monkeypatch, *directories):
        self.events: list[str] = []
        inodes = {(os.stat(d).st_dev, os.stat(d).st_ino): d.name for d in directories}
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):
                self.events.append(inodes.get((status.st_dev, status.st_ino), "?"))
            return real_fsync(fd)

        def replace(*args, **kwargs):
            self.events.append("replace")
            return real_replace(*args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)


class TestDirectorySyncs:
    def test_a_checkpoint_that_wrote_a_file_syncs_both_directories(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        syncs = DirectorySyncs(monkeypatch, root, root / SEGMENTS_DIR)
        db.checkpoint()
        # segments/ before the log names its new file, the data
        # directory after the log's rename.
        assert syncs.events == [SEGMENTS_DIR, "replace", "db"]
        monkeypatch.undo()
        db.close()
        db = repro.connect(root)
        syncs = DirectorySyncs(monkeypatch, root, root / SEGMENTS_DIR)
        db.checkpoint()  # kept every file: only the log was renamed
        assert syncs.events == ["replace", "db"]
        monkeypatch.undo()
        db.close()

    def test_nothing_is_synced_without_sync(self, tmp_path, monkeypatch):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        syncs = DirectorySyncs(monkeypatch, root, root / SEGMENTS_DIR)
        db.checkpoint()
        assert syncs.events == ["replace"]
        monkeypatch.undo()
        db.close()


class TestConcurrentCheckpoints:
    TRIALS = 20

    def test_three_threads_checkpointing_at_once(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.create_table_from_pydict(
            "t",
            repro.Schema([repro.Field("k", repro.DataType.INT64)]),
            {"k": list(range(20_000))},
            partition_count=4,
        )
        db.sql("CREATE PATCHINDEX pu ON t(k) TYPE UNIQUE")
        expected = list(range(20_000))
        for trial in range(self.TRIALS):
            db.sql(f"INSERT INTO t VALUES ({100_000 + trial})")
            expected.append(100_000 + trial)
            start = threading.Barrier(3)
            errors: list[BaseException] = []

            def checkpoint():
                try:
                    start.wait(timeout=60)
                    db.checkpoint()
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=checkpoint) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), trial
            assert errors == [], trial
            db.close()
            db = repro.connect(root, sync=False)
            assert db.sql("SELECT k FROM t ORDER BY k").column("k").to_pylist() == (
                expected
            ), trial
            assert on_disk(root) == read_manifest(root).files()
        db.close()

