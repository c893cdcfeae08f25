"""A checkpoint keeps clean partition files and copies clean segments.

A partition column that still holds the segment it was loaded from is
*clean*.  A partition whose columns are all clean keeps its file: the
new manifest names it again.  Any other partition gets a new file, with
its clean columns copied as encoded bytes and only the changed ones
re-encoded (``storage/checkpoint.py``), and in those the blocks that are
unchanged in place since the previous segment, under the same ``pfor``
hint, are carried as encoded bytes too.  Superseding the old manifest
then frees only the files of rewritten partitions.  These tests pin what
must not change because of it: every mutation still reaches disk, a
kept, copied or block-carried segment is the segment a rewrite would
write, the summary is a rewrite's, kept files are synced, pinned
snapshots and reopened copies read the same rows, no file descriptor
leaks, and the block cache keeps a kept file's warm blocks.  They also
pin that a reopen removes files the manifest does not name.
"""

from __future__ import annotations

import datetime
import gc
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.storage.checkpoint import nsc_patch_rowids
from repro.storage.manifest import SEGMENTS_DIR, partition_file
from repro.storage.segment import encode_segment
from tests.log_head import read_manifest
from tests.test_checkpoint_gc import mixed_ingest_shape

PARTITIONS = 4
ROWS_PER_PARTITION = 600
COLUMNS = ("k", "s", "v", "w")
QUERY = "SELECT k, s, v, w FROM t"

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


def files(root: Path) -> dict[int, Path]:
    """Partition id → the file the manifest names for it in ``t``."""
    table = read_manifest(root).tables["t"]
    return {pid: root / entry.file for pid, entry in enumerate(table.partitions)}


def inodes(root: Path) -> dict[int, tuple[str, int]]:
    """Partition id → (file name, inode) of ``t``'s partition files."""
    return {pid: (path.name, path.stat().st_ino) for pid, path in files(root).items()}


def on_disk(root: Path) -> set[str]:
    return {f"{SEGMENTS_DIR}/{path.name}" for path in (root / SEGMENTS_DIR).iterdir()}


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
        for pid in range(PARTITIONS):
            if pid == PARTITIONS - 1:
                assert after[pid][0] != before[pid][0]
                assert after[pid][0] == Path(
                    partition_file("t", pid, summary["lsn"])
                ).name
            else:
                assert after[pid] == before[pid], pid
        # p3's clean columns are copied, its changed ones re-encoded; every
        # column of it changed (one more row).
        carried = (PARTITIONS - 1) * len(COLUMNS)
        assert summary["segments_carried"] == carried
        assert summary["segments_written"] == len(COLUMNS)
        assert counter(db, "checkpoint.segments_carried") == carried
        assert counter(db, "checkpoint.segments_written") == len(COLUMNS)
        # The superseded p3 file is gone; the kept ones live on.
        assert on_disk(root) == read_manifest(root).files()
        assert counter(db, "checkpoint.files_deleted") == 1
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
        before = inodes(root)
        db.table("t").update_rowid(1, "s", 99)
        db.table("t").update_rowid(1, "v", "changed")
        if replayed:  # the update comes back from the WAL tail instead
            db.close()
            db = repro.connect(str(root))
        summary = db.checkpoint()
        assert summary["segments_written"] == 2  # p0.s and p0.v
        assert summary["segments_carried"] == PARTITIONS * len(COLUMNS) - 2
        after = inodes(root)
        assert after[0] != before[0]  # p0 rewritten: k and w copied
        assert all(after[pid] == before[pid] for pid in range(1, PARTITIONS))
        db.close()
        db = repro.connect(str(root))
        assert db.sql("SELECT s, v FROM t WHERE k = 1").to_pylist() == [(99, "changed")]
        db.close()

    def test_updated_clean_partition_file_equals_a_fresh_write(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        db.table("t").update_rowid(2, "w", "updated")
        assert db.checkpoint()["segments_written"] == 1
        table = db.table("t")
        hints = nsc_patch_rowids(db.catalog, table)
        fresh = b"".join(
            piece
            for name in COLUMNS
            for piece in encode_segment(
                table.partitions[0].column(name),
                table.block_size,
                patch_rowids=hints.get(name, {}).get(0),
            )[0]
        )
        assert files(root)[0].read_bytes() == fresh
        db.close()

    @pytest.mark.parametrize("damage", ["replaced", "removed"])
    def test_only_the_file_the_reader_has_open_is_linked(self, tmp_path, damage):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        expected = db.sql(QUERY).to_pylist()
        before = inodes(root)
        victim = files(root)[0]
        if damage == "replaced":  # same name, another inode, other bytes
            stand_in = victim.with_name("stand_in")
            stand_in.write_bytes(b"not the segment the reader has open")
            os.replace(stand_in, victim)
        else:
            victim.unlink()
        summary = db.checkpoint()
        # p0 is not kept under a name that no longer holds its bytes: a
        # new file copies them from the files the readers have open.
        assert summary["segments_written"] == 0
        after = inodes(root)
        assert after[0][0] != before[0][0]
        assert all(after[pid] == before[pid] for pid in range(1, PARTITIONS))
        assert not victim.exists()
        assert_files_match_a_rewrite(db, root)
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
        assert counter(db, "checkpoint.files_deleted") == 0
        db.close()


def assert_files_match_a_rewrite(db, root: Path) -> None:
    """Every partition file the manifest names is byte for byte its
    columns' segments as ``encode_segment`` writes them now for each
    column and NSC hint, at the offsets the manifest records."""
    table = db.table("t")
    hints = nsc_patch_rowids(db.catalog, table)
    for partition, entry in zip(
        table.partitions, read_manifest(root).tables["t"].partitions
    ):
        pid = partition.partition_id
        data = (root / entry.file).read_bytes()
        fresh = [
            b"".join(
                encode_segment(
                    partition.column(name),
                    table.block_size,
                    patch_rowids=hints.get(name, {}).get(pid),
                )[0]
            )
            for name in table.schema.names
        ]
        assert data == b"".join(fresh), entry.file
        for name, segment in zip(table.schema.names, fresh):
            offset, length, _ = entry.segments[name]
            assert data[offset : offset + length] == segment, (entry.file, name)


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
        assert_files_match_a_rewrite(db, root)
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
        # p0 is rewritten for its new hint: k copied, s re-encoded.
        assert inodes(root)[0] != before[0]
        assert summary["segments_carried"] == 1
        assert_files_match_a_rewrite(db, root)
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
        # Every partition holds patches on s: each file is rewritten,
        # with only that column re-encoded.
        assert all(after[pid] != before[pid] for pid in range(PARTITIONS))
        assert summary["segments_written"] == PARTITIONS
        assert summary["segments_carried"] == PARTITIONS * (len(COLUMNS) - 1)
        assert_files_match_a_rewrite(db, root)
        db.close()


def ratio(db) -> float:
    """The ``storage.t.encoded_ratio`` gauge: set at checkpoint and at
    recovery, by nothing else."""
    return db.metrics(refresh=False).gauge("storage.t.encoded_ratio").value


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
        assert ratio(carry) == ratio(rewrite)
        kept, fresh = files(carry_root), files(rewrite_root)
        assert all(kept[pid].name != fresh[pid].name for pid in kept)
        for pid, path in kept.items():
            assert path.read_bytes() == fresh[pid].read_bytes()
        carry.close()
        rewrite.close()
        # A reopen reads the same ratio off the headers, strings included.
        reopened = repro.connect(str(carry_root))
        assert ratio(reopened) == carried["table_details"]["t"]["encoded_ratio"]
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
        kept = sorted(files(root).values())
        assert summary["segments_carried"] == PARTITIONS * len(COLUMNS)
        assert len(kept) == PARTITIONS
        for path in kept:
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
        named = read_manifest(root).files()
        current = files(root)[0].read_bytes()
        # One left by a crash after a flip (older), one by a crash
        # before it (newer, half written).
        lsn = read_manifest(root).checkpoint_lsn
        (root / partition_file("t", 0, 1)).write_bytes(current)
        (root / partition_file("t", 2, lsn + 50)).write_bytes(current[:100])
        db = repro.connect(str(root))
        rows = PARTITIONS * ROWS_PER_PARTITION
        assert db.sql("SELECT COUNT(*) AS n FROM t").to_pylist() == [(rows,)]
        assert counter(db, "checkpoint.files_deleted") == 2
        db.close()
        assert on_disk(root) == named


def rewrite_detail(db) -> dict:
    """The ``table_details`` entry of ``t`` a checkpoint that encodes
    every segment afresh reports."""
    table = db.table("t")
    hints = nsc_patch_rowids(db.catalog, table)
    columns: dict[str, dict] = {
        name: {"segment_bytes": 0, "encodings": {}} for name in table.schema.names
    }
    total = payload = raw = 0
    for partition in table.partitions:
        for name in table.schema.names:
            _, info = encode_segment(
                partition.column(name),
                table.block_size,
                patch_rowids=hints.get(name, {}).get(partition.partition_id),
            )
            total += info.bytes_written
            payload += info.payload_bytes
            raw += info.raw_payload_bytes
            detail = columns[name]
            detail["segment_bytes"] += info.bytes_written
            for tag, count in info.encodings.items():
                detail["encodings"][tag] = detail["encodings"].get(tag, 0) + count
    return {
        "segment_bytes": total,
        "encoded_ratio": payload / raw if raw else 1.0,
        "columns": columns,
    }


#: One column of each kind a block can carry: an ascending key, a DATE,
#: a nullable int, a float with NaN and -0.0, a string, and a nearly
#: sorted int with a SORTED PatchIndex (``pfor`` blocks).
HISTORY_SCHEMA = repro.Schema(
    [
        repro.Field("k", repro.DataType.INT64),
        repro.Field("d", repro.DataType.DATE),
        repro.Field("n", repro.DataType.INT64),
        repro.Field("f", repro.DataType.FLOAT64),
        repro.Field("w", repro.DataType.STRING),
        repro.Field("s", repro.DataType.INT64),
    ]
)
_FLOATS = [0.0, -0.0, 0.0, math.inf]
_CELLS = {
    "d": [datetime.date(2020, 1, 1), None],
    "n": [None, 0, 7],
    "f": [-0.0, 0.0, math.nan, None],
    "w": ["changed", None],
    "s": [-1, 10**9, None],
}


def history_row(key: int) -> tuple:
    """Row *key* of the history table: ``s`` follows ``k`` but for a
    far outlier every ninth row, the PatchIndex's patches, which the
    ``pfor`` blocks store verbatim."""
    return (
        key,
        datetime.date(2000, 1, 1) + datetime.timedelta(days=key % 50),
        None if key % 5 == 0 else key % 7,
        math.nan if key % 37 == 3 else _FLOATS[key % len(_FLOATS)],
        f"w{key % 4}",
        10**9 + (key * 7919) % 1000 if key % 9 == 4 else key,
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 40)),
        st.tuples(
            st.just("delete"),
            st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4),
        ),
        st.tuples(
            st.just("update"),
            st.floats(0, 1, exclude_max=True),
            st.sampled_from(sorted(_CELLS)),
            st.integers(0, 3),
        ),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("index_ddl")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("reopen")),
    ),
    min_size=1,
    max_size=14,
)


class TestBlockCarry:
    """A rewritten segment carries the blocks whose rows and ``pfor``
    exceptions did not change, and is byte for byte a fresh encode."""

    @given(operations)
    @settings(max_examples=100, deadline=None)
    def test_files_with_carried_blocks_equal_a_full_encode(self, history):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "db"
            db = repro.connect(str(root), sync=False)
            table = db.create_table(
                "t", HISTORY_SCHEMA, partition_count=2, block_size=16
            )
            rows = [history_row(key) for key in range(80)]
            table.load_columns(
                {
                    field.name: repro.ColumnVector.from_pylist(
                        field.dtype, [row[i] for row in rows]
                    )
                    for i, field in enumerate(HISTORY_SCHEMA)
                }
            )
            db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED")
            db.checkpoint()
            next_key = 80
            try:
                for step in history + [("checkpoint",)]:
                    table = db.table("t")
                    kind = step[0]
                    if kind == "append":
                        count = step[1]
                        table.insert_rows(
                            history_row(key)
                            for key in range(next_key, next_key + count)
                        )
                        next_key += count
                    elif kind == "delete" and table.row_count:
                        table.delete_rowids(
                            int(at * table.row_count) for at in step[1]
                        )
                    elif kind == "update" and table.row_count:
                        _, at, column, choice = step
                        cells = _CELLS[column]
                        table.update_rowid(
                            int(at * table.row_count), column, cells[choice % len(cells)]
                        )
                    elif kind == "rebuild" and db.catalog.has_index("ps"):
                        with table.state_lock:
                            db.catalog.index("ps").rebuild()
                    elif kind == "index_ddl":
                        if db.catalog.has_index("ps"):
                            db.sql("DROP PATCHINDEX ps")
                        else:
                            db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED")
                    elif kind == "checkpoint":
                        summary = db.checkpoint()
                        assert_files_match_a_rewrite(db, root)
                        assert summary["table_details"]["t"] == rewrite_detail(db)
                    elif kind == "reopen":
                        db.close()
                        db = repro.connect(str(root), sync=False)
            finally:
                db.close()

    def test_a_zero_that_changes_sign_is_a_changed_row(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(str(root), sync=False)
        schema = repro.Schema([repro.Field("f", repro.DataType.FLOAT64)])
        db.create_table("t", schema, block_size=16)
        db.table("t").insert_rows([(0.0,)] * 40 + [(math.nan,)])
        db.checkpoint()
        db.table("t").update_rowid(5, "f", -0.0)
        summary = db.checkpoint()
        # Block 0 differs in one bit; blocks 1 and 2 (NaN and all) carry.
        assert (summary["blocks_carried"], summary["blocks_encoded"]) == (2, 1)
        assert_files_match_a_rewrite(db, root)
        db.close()

    @pytest.mark.parametrize("damage", ["replaced", "removed", "truncated"])
    def test_a_damaged_previous_file_is_encoded_afresh(self, tmp_path, damage):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        db.sql("DELETE FROM t WHERE k = 3")  # every column of p0 changes
        victim = files(root)[0]
        if damage == "replaced":
            stand_in = victim.with_name("stand_in")
            stand_in.write_bytes(b"not a segment")
            os.replace(stand_in, victim)
        elif damage == "removed":
            victim.unlink()
        else:  # the header of k survives, its blocks do not
            with open(victim, "rb") as handle:
                handle.readline()
                handle.readline()
                os.truncate(victim, handle.tell() + 10)
        summary = db.checkpoint()
        assert summary["segments_written"] == len(COLUMNS)
        assert_files_match_a_rewrite(db, root)
        db.close()

    def test_an_append_carries_every_block_but_the_tail(self, tmp_path):
        root = build(tmp_path / "db")
        db = repro.connect(str(root))
        # 600 rows of 256-row blocks: p3's k and s hold two full blocks
        # and a partial one; the two strings are re-encoded whole.
        insert(db, 10_000)
        summary = db.checkpoint()
        assert summary["blocks_carried"] == 4
        assert summary["blocks_encoded"] == 2 + 2 * 3
        assert counter(db, "checkpoint.blocks_carried") == 4
        assert counter(db, "checkpoint.blocks_encoded") == 8
        assert_files_match_a_rewrite(db, root)
        db.close()

    def test_a_mixed_ingest_round_encodes_only_the_changed_tail(self, tmp_path):
        root = tmp_path / "db"
        db = mixed_ingest_shape(root)
        rows = db.table("t").row_count
        counts = []
        for cycle in range(30):
            key = rows + cycle * 100
            db.sql(
                "INSERT INTO t VALUES "
                + ", ".join(
                    f"({k}, {k + 4 * rows}, {k if k % 100 else k // 7}, {k % 1000})"
                    for k in range(key, key + 100)
                )
            )
            if cycle % 10 == 9:
                low = rows + (cycle - 9) * 100
                db.sql(f"DELETE FROM t WHERE k BETWEEN {low} AND {low + 49}")
            if cycle % 10 == 5:
                summary = db.checkpoint()
                counts.append((summary["blocks_carried"], summary["blocks_encoded"]))
                assert summary["segments_carried"] == 12
                assert_files_match_a_rewrite(db, root)
        # p3 holds 13-14 blocks a column: all but the last one or two,
        # which the appends and the delete changed, are carried.
        for carried, encoded in counts:
            assert encoded <= 8 and carried >= 48, counts
        db.close()
