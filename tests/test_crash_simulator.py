"""Crash simulation over the durable-I/O seam.

A :class:`~tests.disks.RecordingDisk` watches one history run on a
fresh data directory with ``sync=True``: every seam call it makes (the
open, every statement's append, every checkpoint's writes, fsyncs,
rename and unlinks) is a crash point.  For each, the directory a crash
just before that call leaves (file bytes up to their last fsync; a
create, rename or unlink only once its directory was fsynced after it)
must reopen to the rows, rowids and patch sets of an in-memory database
fed the statements acknowledged by then.

Seeded mutations show what this sees that
``tests/test_durability.py::TestCrashAtEveryCheckpointStep`` cannot: the
recording disk skips one fsync site, the simulation must find a crash
point that loses acknowledged data, and the failpoint sweep, which keeps
the page cache, passes all the same.  The same seam injects ``ENOSPC``
and short writes: each failure raises a typed error and a reopen finds
exactly the acknowledged statements.
"""

from __future__ import annotations

import shutil

import pytest

import repro
from repro.check import sanitize
from repro.errors import StorageError
from repro.storage import disk
from tests.disks import FaultyDisk, RecordingDisk
from tests.log_head import read_manifest
from tests.test_checkpoint_gc import on_disk
from tests.test_durability import durable_state, sweep_failed_checkpoint_steps

CHECKPOINT = "CHECKPOINT"
UPDATE = "UPDATE"
REOPEN = "REOPEN"

#: A history with every record kind, on both sides of three checkpoints;
#: the first two INSERTs run before any checkpoint, and the last
#: checkpoint keeps ``keep``'s file from before the reopen.
HISTORY = [
    "CREATE TABLE t (k BIGINT, s BIGINT)",
    "INSERT INTO t VALUES (3, 1), (1, 2), (3, 3)",
    "INSERT INTO t VALUES " + ", ".join(f"({k % 97}, {k})" for k in range(4, 200)),
    "CREATE PATCHINDEX pk ON t(k) TYPE UNIQUE",
    "CREATE PATCHINDEX ps ON t(s) TYPE SORTED",
    "CREATE TABLE gone (k BIGINT)",
    "CREATE TABLE keep (k BIGINT)",
    "INSERT INTO keep VALUES (1), (2)",
    CHECKPOINT,
    "INSERT INTO t VALUES (1000, 5), (1001, 301)",
    "DELETE FROM t WHERE s BETWEEN 10 AND 14",
    "DROP TABLE gone",
    UPDATE,
    CHECKPOINT,
    "INSERT INTO t VALUES (1002, 303)",
    REOPEN,
    CHECKPOINT,
    "INSERT INTO t VALUES (7, 7)",
]

#: A fresh directory that never checkpoints.
BEFORE_FIRST_CHECKPOINT = HISTORY[:3]


def run(db, step: str):
    """Run one step of a history on *db*; returns the database to go on
    with."""
    if step == CHECKPOINT:
        db.checkpoint()
    elif step == UPDATE:
        db.table("t").update_rowid(0, "s", -1)
    elif step == REOPEN:
        if db.engine.logs_data:
            db.close()
            return repro.connect(db.engine.root)
    else:
        db.sql(step)
    return db


def state(db) -> tuple:
    """Rows, rowids and patch sets."""
    return durable_state(db)[:2]


def oracle_states(history) -> list:
    """The state after each prefix of *history*, in memory."""
    db = repro.connect()
    states = [state(db)]
    for step in history:
        db = run(db, step)
        states.append(state(db))
    return states


def crash_divergences(tmp_path, monkeypatch, history, skip=frozenset()) -> list:
    """The crash points whose directory does not reopen to the oracle:
    ``(site, acknowledged statements, what was found)``."""
    expected = oracle_states(history)
    base = tmp_path / "run"
    base.mkdir()
    recorder = RecordingDisk(base, skip)
    monkeypatch.setattr(disk, "DISK", recorder)
    db = repro.connect(base / "db")
    for step in history:
        db = run(db, step)
        recorder.acknowledge()
    db.close()
    monkeypatch.undo()
    found: dict[tuple[int, int], object] = {}
    divergences = []
    for site, image, acknowledged in recorder.crash_points():
        key = (image, acknowledged)
        if key not in found:
            target = tmp_path / f"crash{len(found)}"
            recorder.materialize(image, target)
            try:
                reopened = repro.connect(target / "db")
            except Exception as exc:  # a file the log names may be missing
                found[key] = exc
            else:
                same = state(reopened) == expected[acknowledged]
                found[key] = None if same else "state"
                reopened.close()
            shutil.rmtree(target)
        if found[key] is not None:
            divergences.append((site, acknowledged, found[key]))
    return divergences


class TestEveryCrashPoint:
    def test_a_crash_at_any_call_recovers_the_acknowledged_prefix(
        self, tmp_path, monkeypatch
    ):
        assert crash_divergences(tmp_path, monkeypatch, HISTORY) == []

    def test_a_crash_before_the_first_checkpoint_keeps_what_was_acknowledged(
        self, tmp_path, monkeypatch
    ):
        assert crash_divergences(tmp_path, monkeypatch, BEFORE_FIRST_CHECKPOINT) == []

    def test_a_dropped_open_fsync_loses_a_fresh_directory(self, tmp_path, monkeypatch):
        # Without the fsyncs that name a new directory and its log, an
        # acknowledged INSERT before the first checkpoint is lost.
        divergences = crash_divergences(
            tmp_path, monkeypatch, BEFORE_FIRST_CHECKPOINT, skip={"open.dir_fsync"}
        )
        assert {acknowledged for _, acknowledged, _ in divergences} == {1, 2, 3}


class TestSeededMutations:
    """Each dropped fsync loses acknowledged data at some crash point,
    which only the recording disk sees."""

    @pytest.mark.parametrize(
        "site",
        [
            "segments.dir_fsync",  # the new files' names, before the log names them
            "wal.install.dir_fsync",  # the log's rename
        ],
    )
    def test_the_simulator_sees_a_dropped_fsync(self, tmp_path, monkeypatch, site):
        (tmp_path / "sweep").mkdir()
        fired = sweep_failed_checkpoint_steps(tmp_path / "sweep", monkeypatch, {site})
        assert fired == {"write", "fsync", "replace", "unlink"}
        divergences = crash_divergences(tmp_path, monkeypatch, HISTORY, skip={site})
        assert divergences
        # A head naming a partition file the crash lost is a typed error.
        raised = [found for _, _, found in divergences if isinstance(found, Exception)]
        assert all(isinstance(error, StorageError) for error in raised), raised


def count(db) -> int:
    return db.sql("SELECT COUNT(*) AS n FROM t").scalar()


@pytest.mark.parametrize("short", [False, True], ids=["enospc", "short_write"])
class TestFullDisk:
    """A failed write raises a ``repro.errors`` type, leaks nothing, and
    a reopen finds exactly the acknowledged statements."""

    def test_a_failed_append_is_not_written_later(self, tmp_path, monkeypatch, short):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (3)")
        faulty = FaultyDisk("wal.append", short=short)
        monkeypatch.setattr(disk, "DISK", faulty)
        rows = ", ".join(f"({k})" for k in range(100))
        with pytest.raises(StorageError, match="No space left"):
            db.sql(f"INSERT INTO t VALUES {rows}")
        monkeypatch.undo()
        assert faulty.fired == 1
        # The log is cut back and closed: nothing later reaches it.
        with pytest.raises(StorageError, match="append handle"):
            db.sql("INSERT INTO t VALUES (4)")
        with pytest.raises(StorageError, match="append handle"):
            db.checkpoint()
        assert sanitize.check_balances() == []
        db.close()
        reopened = repro.connect(root)
        assert count(reopened) == 3
        reopened.close()

    @pytest.mark.parametrize("site", ["wal.append", "wal.sync"])
    def test_a_failed_log_write_stops_every_later_statement(
        self, tmp_path, monkeypatch, short, site
    ):
        """The failed INSERT's rows are in memory but not in the log:
        every later statement of the process — a read, a read on a pin
        taken after the failure, a write — raises instead of showing or
        building on them."""
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (3)")
        monkeypatch.setattr(disk, "DISK", FaultyDisk(site, short=short))
        with pytest.raises(StorageError, match="No space left"):
            with db.wal.deferred_sync():  # a group commit: one wal.sync
                db.sql("INSERT INTO t VALUES (4)")
        monkeypatch.undo()
        assert db.wal.failed
        for statement in (
            lambda: db.sql("SELECT COUNT(*) AS n FROM t"),
            lambda: db.session(snapshot_reads=True).sql("SELECT k FROM t"),
            lambda: db.sql("INSERT INTO t VALUES (5)"),
            lambda: db.sql("CHECKPOINT"),
        ):
            with pytest.raises(StorageError, match="reopen the database"):
                statement()
        with db.snapshot() as view:
            with pytest.raises(StorageError, match="reopen the database"):
                view.sql("SELECT k FROM t")
        db.close()
        reopened = repro.connect(root)
        assert count(reopened) == 3
        reopened.close()

    def test_a_failed_segment_write_keeps_the_log(self, tmp_path, monkeypatch, short):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (3)")
        db.checkpoint()
        named = read_manifest(root).files()
        db.sql("INSERT INTO t VALUES (4)")
        monkeypatch.setattr(disk, "DISK", FaultyDisk("segments.write", short=short))
        with pytest.raises(StorageError, match="No space left"):
            db.checkpoint()
        monkeypatch.undo()
        assert on_disk(root) == named
        assert sanitize.check_balances() == []
        db.sql("INSERT INTO t VALUES (5)")
        db.close()
        reopened = repro.connect(root)
        assert count(reopened) == 5
        reopened.close()
