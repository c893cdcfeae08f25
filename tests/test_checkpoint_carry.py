"""A checkpoint carries clean segments into its generation by hard link.

A partition column that still holds the segment it was loaded from is
*clean*: the checkpoint links that file into the new generation instead
of rewriting it, and deleting the superseded generation then frees only
the rewritten files' inodes (``storage/checkpoint.py``).  These tests
pin what must not change because of it: every mutation still reaches
disk, a carried file is the file a rewrite would write, the summary is a
rewrite's, carried files are synced, pinned snapshots and reopened
copies read the same rows, no file descriptor leaks, and the block cache
keeps a carried segment's warm blocks.  They also pin that a reopen
removes generation directories the manifest does not name.
"""

from __future__ import annotations

import gc
import os
import shutil
from pathlib import Path

import pytest

import repro
from repro.storage.checkpoint import nsc_patch_rowids
from repro.storage.manifest import SEGMENTS_DIR, generation_name, read_manifest
from repro.storage.segment import write_segment

PARTITIONS = 4
ROWS_PER_PARTITION = 600
COLUMNS = ("k", "s", "v", "w")
QUERY = "SELECT k, s, v, w FROM t"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "link"), reason="the carry needs hard links"
)


def populate(db) -> None:
    """Table ``t``: k a key, s nearly sorted, v a low-cardinality string
    (``dict`` blocks), w a distinct string with NULLs (``raw`` blocks);
    a sorted PatchIndex on s and a unique one on k."""
    rows = PARTITIONS * ROWS_PER_PARTITION
    schema = repro.Schema(
        [
            repro.Field("k", repro.DataType.INT64),
            repro.Field("s", repro.DataType.INT64),
            repro.Field("v", repro.DataType.STRING),
            repro.Field("w", repro.DataType.STRING),
        ]
    )
    table = db.create_table("t", schema, partition_count=PARTITIONS, block_size=256)
    table.load_columns(
        {
            "k": repro.ColumnVector.from_pylist(repro.DataType.INT64, list(range(rows))),
            "s": repro.ColumnVector.from_pylist(
                repro.DataType.INT64,
                [i if i % 53 else rows - i for i in range(rows)],
            ),
            "v": repro.ColumnVector.from_pylist(
                repro.DataType.STRING, [f"v{i % 7}" for i in range(rows)]
            ),
            "w": repro.ColumnVector.from_pylist(
                repro.DataType.STRING,
                [None if i % 11 == 0 else f"w{i * 7919}" for i in range(rows)],
            ),
        }
    )
    db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED")
    db.sql("CREATE PATCHINDEX pu ON t(k) TYPE UNIQUE")


def build(root: Path, *, sync: bool = True) -> Path:
    """A checkpointed, closed directory holding :func:`populate`'s table."""
    db = repro.connect(str(root), sync=sync)
    populate(db)
    db.checkpoint()
    db.close()
    return root


def insert(db, key: int) -> None:
    db.sql(f"INSERT INTO t VALUES ({key}, {key}, 'v{key % 3}', 'n{key}')")


def table_dir(root: Path) -> Path:
    """``t``'s directory in the generation the manifest names."""
    lsn = read_manifest(root).checkpoint_lsn
    return root / SEGMENTS_DIR / generation_name(lsn) / "t"


def inodes(root: Path) -> dict[str, int]:
    return {path.name: path.stat().st_ino for path in table_dir(root).glob("*.seg")}


def counter(db, name: str) -> int:
    return db.metrics().counter(name).value


class TestCarry:
    def test_clean_segments_are_linked_and_dirty_ones_rewritten(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        before = inodes(root)
        insert(db, 10_000)  # lands in the last partition, p3
        summary = db.checkpoint()
        after = inodes(root)
        assert sorted(after) == sorted(before)
        for name, inode in after.items():
            if name.startswith("p3."):
                assert inode != before[name], name
            else:
                assert inode == before[name], name
        carried = (PARTITIONS - 1) * len(COLUMNS)
        assert summary["segments_carried"] == carried
        assert summary["segments_written"] == len(COLUMNS)
        assert counter(db, "checkpoint.segments_carried") == carried
        assert counter(db, "checkpoint.segments_written") == len(COLUMNS)
        # The superseded generation is gone; the carried inodes live on.
        assert [entry.name for entry in (root / SEGMENTS_DIR).iterdir()] == [
            table_dir(root).parent.name
        ]
        db.close()

    def test_the_first_checkpoint_carries_nothing(self, tmp_path):
        db = repro.connect(str(tmp_path / "db"))
        populate(db)
        summary = db.checkpoint()
        assert summary["segments_carried"] == 0
        assert summary["segments_written"] == PARTITIONS * len(COLUMNS)
        db.close()

    @pytest.mark.parametrize("replayed", [False, True], ids=["live", "wal-replay"])
    def test_point_update_on_a_clean_partition_reaches_disk(self, tmp_path, replayed):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        db.table("t").update_rowid(1, "s", 99)
        db.table("t").update_rowid(1, "v", "changed")
        if replayed:  # the update comes back from the WAL tail instead
            db.close()
            db = repro.connect(str(root))
        summary = db.checkpoint()
        assert summary["segments_written"] == 2  # p0.s and p0.v
        db.close()
        db = repro.connect(str(root))
        assert db.sql("SELECT s, v FROM t WHERE k = 1").to_pylist() == [(99, "changed")]
        db.close()

    @pytest.mark.parametrize("damage", ["replaced", "removed"])
    def test_only_the_file_the_reader_has_open_is_linked(self, tmp_path, damage):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        expected = db.sql(QUERY).to_pylist()
        victim = table_dir(root) / "p0.w.seg"
        if damage == "replaced":  # same name, another inode, other bytes
            stand_in = victim.with_name("stand_in")
            stand_in.write_bytes(b"not the segment the reader has open")
            os.replace(stand_in, victim)
        else:
            victim.unlink()
        summary = db.checkpoint()
        assert summary["segments_written"] == 1
        scratch = tmp_path / "fresh"
        scratch.mkdir()
        assert_files_match_a_rewrite(db, root, scratch)
        db.close()
        db = repro.connect(str(root))
        assert db.sql(QUERY).to_pylist() == expected
        db.close()

    def test_unchanged_directory_carries_every_segment(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        before = inodes(root)
        summary = db.checkpoint()
        assert summary["segments_carried"] == PARTITIONS * len(COLUMNS)
        assert summary["segments_written"] == 0
        assert inodes(root) == before
        db.close()


def assert_files_match_a_rewrite(db, root: Path, scratch: Path) -> None:
    """Every segment of the current generation is byte for byte what
    ``write_segment`` writes now for its column and NSC hint."""
    table = db.table("t")
    hints = nsc_patch_rowids(db.catalog, table)
    directory = table_dir(root)
    for partition in table.partitions:
        pid = partition.partition_id
        for name in table.schema.names:
            fresh = scratch / f"p{pid}.{name}.seg"
            write_segment(
                fresh,
                partition.column(name),
                table.block_size,
                sync=False,
                patch_rowids=hints.get(name, {}).get(pid),
            )
            assert (directory / fresh.name).read_bytes() == fresh.read_bytes(), fresh.name


def build_for_rebuild(root: Path) -> Path:
    """Table ``t`` (k, s) in two partitions of 300 rows: the global NSC
    subsequence is p0 (s = 1000..1299) and p1's last 200 rows
    (2000..2199), so p1's first 100 rows (0..99) are the patches."""
    db = repro.connect(str(root))
    schema = repro.Schema(
        [repro.Field("k", repro.DataType.INT64), repro.Field("s", repro.DataType.INT64)]
    )
    table = db.create_table("t", schema, partition_count=2, block_size=256)
    s = list(range(1000, 1300)) + list(range(100)) + list(range(2000, 2200))
    table.load_columns(
        {
            "k": repro.ColumnVector.from_pylist(repro.DataType.INT64, list(range(600))),
            "s": repro.ColumnVector.from_pylist(repro.DataType.INT64, s),
        }
    )
    db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED")
    db.checkpoint()
    db.close()
    return root


class TestCompressionHint:
    def test_carried_files_equal_a_fresh_write(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        insert(db, 10_000)
        assert db.checkpoint()["segments_carried"] > 0
        scratch = tmp_path / "fresh"
        scratch.mkdir()
        assert_files_match_a_rewrite(db, root, scratch)
        db.close()

    def test_a_rebuild_that_moves_clean_patches_rewrites_them(self, tmp_path):
        root = build_for_rebuild(tmp_path / "db")
        db = repro.connect(str(root))
        index = db.catalog.index("ps")
        assert len(index.partition_patches(0).rowids()) == 0
        before = inodes(root)
        # 1 000 rows continuing p1's 0..99: that run now outgrows the
        # old one, so a rebuild makes all of p0, which nothing mutated,
        # patches.
        db.sql(
            "INSERT INTO t VALUES "
            + ", ".join(f"({600 + i}, {100 + i})" for i in range(1000))
        )
        index.rebuild()
        assert len(index.partition_patches(0).rowids()) == 300
        summary = db.checkpoint()
        after = inodes(root)
        assert after["p0.k.seg"] == before["p0.k.seg"]  # carried
        assert after["p0.s.seg"] != before["p0.s.seg"]  # new hint: rewritten
        assert summary["segments_carried"] == 1
        scratch = tmp_path / "fresh"
        scratch.mkdir()
        assert_files_match_a_rewrite(db, root, scratch)
        db.close()

    @pytest.mark.parametrize(
        "statement, column",
        [
            ("DROP PATCHINDEX ps", "s"),
            ("CREATE PATCHINDEX ps_desc ON t(s) TYPE SORTED DESC", "s"),
        ],
    )
    def test_index_ddl_rewrites_the_columns_whose_hint_changed(
        self, tmp_path, statement, column
    ):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        before = inodes(root)
        db.sql(statement)
        summary = db.checkpoint()
        after = inodes(root)
        for name, inode in after.items():
            changed = name.split(".")[1] == column
            assert (inode != before[name]) == changed, name
        assert summary["segments_written"] == PARTITIONS
        scratch = tmp_path / "fresh"
        scratch.mkdir()
        assert_files_match_a_rewrite(db, root, scratch)
        db.close()


class TestSummaryAndDurability:
    def test_summary_equals_a_full_rewrite(self, tmp_path):
        root = build(tmp_path / "db")
        carry_root = tmp_path / "carry"
        rewrite_root = tmp_path / "rewrite"
        shutil.copytree(root, carry_root)
        shutil.copytree(root, rewrite_root)
        carry = repro.connect(str(carry_root))
        rewrite = repro.connect(str(rewrite_root))
        for partition in rewrite.table("t").partitions:
            partition.materialize()  # no sources: everything is rewritten
        carried = carry.checkpoint()
        rewritten = rewrite.checkpoint()
        assert carried["segments_carried"] == PARTITIONS * len(COLUMNS)
        assert rewritten["segments_carried"] == 0
        assert carried["segment_bytes"] == rewritten["segment_bytes"]
        assert carried["table_details"] == rewritten["table_details"]
        assert carry.engine.encoded_ratios() == rewrite.engine.encoded_ratios()
        for path in table_dir(carry_root).glob("*.seg"):
            assert path.read_bytes() == (table_dir(rewrite_root) / path.name).read_bytes()
        carry.close()
        rewrite.close()
        # A reopen reads the same ratio off the headers, strings included.
        reopened = repro.connect(str(carry_root))
        assert reopened.engine.encoded_ratios() == {
            "t": carried["table_details"]["t"]["encoded_ratio"]
        }
        reopened.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="reads fd paths from /proc"
    )
    def test_carried_files_are_fsynced_when_the_source_was_not(
        self, tmp_path, monkeypatch
    ):
        root = build(tmp_path / "db", sync=False)
        db = repro.connect(str(root))  # sync=True
        synced: list[str] = []
        real_fsync = os.fsync

        def fsync(descriptor):
            synced.append(os.path.realpath(f"/proc/self/fd/{descriptor}"))
            return real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", fsync)
        summary = db.checkpoint()
        monkeypatch.undo()
        carried = sorted(table_dir(root).glob("*.seg"))
        assert summary["segments_carried"] == len(carried) == PARTITIONS * len(COLUMNS)
        for path in carried:
            assert synced.count(os.path.realpath(path)) == 1, path.name
        db.close()

    def test_no_fsync_for_a_database_opened_without_sync(self, tmp_path, monkeypatch):
        root = build(tmp_path / "db", sync=False)
        db = repro.connect(str(root), sync=False)
        calls: list[int] = []
        monkeypatch.setattr(os, "fsync", calls.append)
        assert db.checkpoint()["segments_carried"] == PARTITIONS * len(COLUMNS)
        monkeypatch.undo()
        assert calls == []
        db.close()


class TestReadsAcrossCarries:
    def test_a_snapshot_pinned_before_two_carrying_checkpoints(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        snapshot = db.snapshot()
        before = snapshot.sql(QUERY).to_pylist()
        for key in (10_000, 10_001):
            insert(db, key)
            assert db.checkpoint()["segments_carried"] > 0
        assert snapshot.sql(QUERY).to_pylist() == before
        snapshot.close()
        assert len(db.sql(QUERY).to_pylist()) == len(before) + 2
        db.close()

    def test_reopen_after_carried_checkpoints_matches_memory(self, tmp_path):
        root = build(tmp_path / "db")
        memory = repro.connect()
        populate(memory)
        durable = repro.connect(str(root))
        carried = 0
        for step in range(8):
            for db in (memory, durable):
                insert(db, 10_000 + step)
                if step % 3 == 1:
                    db.sql(f"DELETE FROM t WHERE k = {step * 131}")
                if step % 3 == 2:
                    rowid = (step % PARTITIONS) * ROWS_PER_PARTITION + 5
                    db.table("t").update_rowid(rowid, "s", -step)
                    db.table("t").update_rowid(rowid, "w", None)
            carried += durable.checkpoint()["segments_carried"]
            if step % 2:
                durable.close()
                durable = repro.connect(str(root))
        assert carried > 0
        durable.close()
        durable = repro.connect(str(root))
        assert durable.sql(QUERY).to_pylist() == memory.sql(QUERY).to_pylist()
        for name in ("ps", "pu"):
            assert (
                durable.catalog.index(name).rowids().tolist()
                == memory.catalog.index(name).rowids().tolist()
            )
        durable.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts fds through /proc"
    )
    def test_open_file_descriptors_stay_flat(self, tmp_path):
        def open_fds() -> int:
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        insert(db, 10_000)
        db.checkpoint()
        baseline = open_fds()
        for step in range(20):
            insert(db, 10_001 + step)
            assert db.checkpoint()["segments_carried"] > 0
        assert open_fds() == baseline
        db.close()

    def test_the_block_cache_keeps_carried_blocks_across_the_flip(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        query = "SELECT COUNT(w) AS n FROM t WHERE k < 1000"
        expected = db.sql(query).to_pylist()
        misses = db.cache_stats()["misses"]
        assert misses > 0
        assert db.checkpoint()["segments_carried"] == PARTITIONS * len(COLUMNS)
        assert db.sql(query).to_pylist() == expected
        assert db.cache_stats()["misses"] == misses
        db.close()


class TestOrphanGenerations:
    def test_reopen_removes_generations_the_manifest_does_not_name(self, tmp_path):
        root = build(tmp_path / "db")
        current = table_dir(root).parent
        segments = root / SEGMENTS_DIR
        # One left by a crash after a flip (older), one by a crash
        # before it (newer, half written).
        for lsn in (1, read_manifest(root).checkpoint_lsn + 50):
            orphan = segments / generation_name(lsn) / "t"
            orphan.mkdir(parents=True)
            shutil.copy(current / "t" / "p0.k.seg", orphan / "p0.k.seg")
        (segments / generation_name(2)).mkdir()
        db = repro.connect(str(root))
        rows = PARTITIONS * ROWS_PER_PARTITION
        assert db.sql("SELECT COUNT(*) AS n FROM t").to_pylist() == [(rows,)]
        db.close()
        assert [entry.name for entry in segments.iterdir()] == [current.name]
