"""Durability tests: save/reopen round-trips and crash-recovery fuzz.

The acceptance bar mirrors paper §V: closing and reopening a persisted
database must yield identical query results, with every PatchIndex
rebuilt *from data* (the WAL never carries patches), and a WAL tail torn
at an arbitrary byte must recover to exactly the state of the last
complete record.
"""

import io
import json
import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.errors import StorageError
from repro.gen import sorted_with_exceptions, unique_with_exceptions
from repro.storage import disk, engine
from repro.storage.schema import Field, Schema
from repro.storage.manifest import WAL_NAME
from repro.storage.wal import decode, frames
from repro.types import DataType
from tests.disks import ObservedDisk
from tests.log_head import edit_head, head_payload, read_manifest
from tests.test_materialize import catalog_tables, patches_state, tables_state

SCHEMA = Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)])


def structural_stats(index):
    """Index stats that must survive a close/reopen byte-identically
    (creation time and provenance legitimately differ)."""
    stats = index.stats()
    return (
        stats.name,
        stats.table_name,
        stats.column_name,
        stats.kind,
        stats.design,
        stats.row_count,
        stats.patch_count,
        stats.exception_rate,
        stats.memory_bytes,
        stats.partition_patch_counts,
    )


maybe_int = st.one_of(st.none(), st.integers(-50, 50))


class TestRoundtripProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        initial=st.lists(
            st.tuples(maybe_int, maybe_int), min_size=1, max_size=40
        ),
        appended=st.lists(st.tuples(maybe_int, maybe_int), max_size=12),
        checkpoint_between=st.booleans(),
        delete_stride=st.integers(0, 3),
    )
    def test_reopen_preserves_queries_and_index_stats(
        self, initial, appended, checkpoint_between, delete_stride
    ):
        root = tempfile.mkdtemp(prefix="repro-durability-")
        try:
            db = repro.connect(root)
            table = db.create_table("t", SCHEMA, partition_count=2)
            table.insert_rows([list(row) for row in initial])
            db.create_patch_index("pi_k", "t", "k", kind="unique")
            if checkpoint_between:
                db.checkpoint()
            if appended:
                table.insert_rows([list(row) for row in appended])
            if delete_stride:
                doomed = list(range(0, table.row_count, delete_stride + 1))
                if doomed:
                    table.delete_rowids(doomed)
            query = "SELECT k, v FROM t"
            before_rows = db.sql(query).to_pylist()
            before_distinct = db.sql(
                "SELECT COUNT(DISTINCT k) AS n FROM t"
            ).to_pylist()
            db.close()

            reopened = repro.connect(root)
            assert reopened.sql(query).to_pylist() == before_rows
            assert (
                reopened.sql("SELECT COUNT(DISTINCT k) AS n FROM t").to_pylist()
                == before_distinct
            )
            index = reopened.catalog.index("pi_k")
            assert index.provenance == "recovery"
            assert index.stats().row_count == len(before_rows)
            reopened.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(maybe_int, maybe_int), min_size=1, max_size=30
        )
    )
    def test_double_reopen_is_idempotent(self, rows):
        root = tempfile.mkdtemp(prefix="repro-durability-")
        try:
            db = repro.connect(root)
            table = db.create_table("t", SCHEMA)
            table.insert_rows([list(row) for row in rows])
            db.create_patch_index("pi_k", "t", "k", kind="unique")
            db.close()
            first = repro.connect(root)
            rows_1 = first.sql("SELECT k, v FROM t").to_pylist()
            stats_1 = structural_stats(first.catalog.index("pi_k"))
            first.close()
            second = repro.connect(root)
            assert second.sql("SELECT k, v FROM t").to_pylist() == rows_1
            assert structural_stats(second.catalog.index("pi_k")) == stats_1
            second.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)


class TestFig45Workloads:
    """Close → reopen over the paper's synthetic workloads (Fig. 4/5)."""

    N = 4000

    def build(self, root):
        db = repro.connect(root)
        schema = Schema(
            [Field("u", DataType.INT64), Field("s", DataType.INT64)]
        )
        table = db.create_table("fig", schema, partition_count=4)
        table.load_columns(
            {
                "u": unique_with_exceptions(self.N, 0.02, seed=7),
                "s": sorted_with_exceptions(self.N, 0.02, seed=7),
            }
        )
        db.create_patch_index(
            "pi_u", "fig", "u", kind="unique", threshold=0.1
        )
        db.create_patch_index(
            "pi_s", "fig", "s", kind="sorted", threshold=0.1, scope="global"
        )
        return db

    QUERIES = (
        "SELECT COUNT(DISTINCT u) AS n FROM fig",
        "SELECT DISTINCT u FROM fig WHERE u < 500",
        "SELECT s FROM fig WHERE s BETWEEN 100 AND 200 ORDER BY s",
        "SELECT MIN(s) AS lo, MAX(s) AS hi, COUNT(*) AS n FROM fig",
    )

    def test_reopen_yields_identical_results(self, tmp_path):
        root = tmp_path / "db"
        db = self.build(root)
        expected = [db.sql(query).to_pylist() for query in self.QUERIES]
        expected_stats = {
            name: structural_stats(db.catalog.index(name))
            for name in ("pi_u", "pi_s")
        }
        db.close()

        reopened = repro.connect(root)
        for query, rows in zip(self.QUERIES, expected):
            assert reopened.sql(query).to_pylist() == rows
        for name, stats in expected_stats.items():
            index = reopened.catalog.index(name)
            assert structural_stats(index) == stats
            assert index.provenance == "recovery"
        metrics = reopened.metrics().export()
        assert metrics["histograms"]["recovery.seconds"]["count"] == 1
        reopened.close()

    def test_reopen_after_checkpoint_and_tail(self, tmp_path):
        root = tmp_path / "db"
        db = self.build(root)
        db.checkpoint()
        db.table("fig").insert_rows([[self.N + 1, self.N + 1], [None, 5]])
        db.table("fig").delete_rowids([0, 1, 2])
        expected = [db.sql(query).to_pylist() for query in self.QUERIES]
        metrics = db.metrics().export()
        assert metrics["histograms"]["checkpoint.seconds"]["count"] == 1
        db.close()

        reopened = repro.connect(root)
        for query, rows in zip(self.QUERIES, expected):
            assert reopened.sql(query).to_pylist() == rows
        reopened.close()

    def test_wal_never_contains_patches(self, tmp_path):
        """Paper §V: CREATE PATCHINDEX is logged without the patches."""
        root = tmp_path / "db"
        db = self.build(root)
        db.close()
        with open(root / WAL_NAME, "rb") as handle:
            records = [decode(frame) for frame in frames(handle)]
        assert "create_index" in [record.kind for record in records]
        for record in records:
            if record.kind == "create_index":
                assert set(record.payload) <= {
                    "name",
                    "table",
                    "column",
                    "kind",
                    "mode",
                    "threshold",
                    "scope",
                    "ascending",
                    "strict",
                }


def build_fuzz_base(base: Path) -> None:
    """A durable database with a checkpoint and a mutation-heavy tail."""
    db = repro.connect(base)
    table = db.create_table("t", SCHEMA, partition_count=2)
    table.insert_rows([[i, i * 2] for i in range(40)])
    db.create_patch_index("pi_k", "t", "k", kind="unique")
    db.checkpoint()
    for batch in range(6):
        table.insert_rows(
            [[100 + batch * 3 + j, batch] for j in range(3)]
        )
    table.delete_rowids([1, 5, 9])
    table.update_rowid(0, "v", -7)
    table.insert_rows([[None, None], [7, 7]])
    db.close()


def expected_rows_after(wal_bytes: bytes) -> int:
    """Row count implied by the log's head record plus the whole frames
    after it, read by the log's own frame reader (which stops at a torn
    tail)."""
    rows = 0
    for record in map(decode, frames(io.BytesIO(wal_bytes))):
        if record.kind == "checkpoint":
            rows = sum(
                partition["row_count"]
                for table in record.payload["tables"].values()
                for partition in table["partitions"]
            )
        elif record.kind in ("append", "load"):
            rows += record.payload["row_count"]
        elif record.kind == "delete":
            rows -= record.payload["row_count"]
    return rows


def tail_start(wal_bytes: bytes) -> int:
    """Byte offset just past the checkpoint head record.  The head is
    installed by an atomic rename, so a crash can only tear bytes at or
    after this offset."""
    head = next(frames(io.BytesIO(wal_bytes)))
    return head.end if head.kind == "checkpoint" else 0


class TestCrashRecoveryFuzz:
    @pytest.fixture(scope="class")
    def base_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz") / "base"
        build_fuzz_base(base)
        return base

    @pytest.mark.parametrize("fraction", [0.0, 0.17, 0.33, 0.5, 0.66, 0.84, 0.97, 1.0])
    def test_truncated_tail_converges(self, base_dir, tmp_path, fraction):
        wal_bytes = (base_dir / WAL_NAME).read_bytes()
        start = tail_start(wal_bytes)
        cut = start + int((len(wal_bytes) - start) * fraction)
        crashed = tmp_path / "crashed"
        shutil.copytree(base_dir, crashed)
        (crashed / WAL_NAME).write_bytes(wal_bytes[:cut])

        db = repro.connect(crashed)
        assert db.table("t").row_count == expected_rows_after(wal_bytes[:cut])
        rows = db.sql("SELECT k, v FROM t").to_pylist()
        index_stats = structural_stats(db.catalog.index("pi_k"))
        db.close()

        # Convergence: recovering the recovered directory again is a
        # fixed point — same rows, same rebuilt index.
        again = repro.connect(crashed)
        assert again.sql("SELECT k, v FROM t").to_pylist() == rows
        assert structural_stats(again.catalog.index("pi_k")) == index_stats
        again.close()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_byte_truncation(self, base_dir, data):
        wal_bytes = (base_dir / WAL_NAME).read_bytes()
        cut = data.draw(st.integers(tail_start(wal_bytes), len(wal_bytes)))
        crashed = Path(tempfile.mkdtemp(prefix="repro-crash-")) / "db"
        try:
            shutil.copytree(base_dir, crashed)
            (crashed / WAL_NAME).write_bytes(wal_bytes[:cut])
            db = repro.connect(crashed)
            assert db.table("t").row_count == expected_rows_after(wal_bytes[:cut])
            # The recovered database is fully functional.
            db.sql("SELECT COUNT(DISTINCT k) AS n FROM t").to_pylist()
            db.close()
        finally:
            shutil.rmtree(crashed.parent, ignore_errors=True)


class TestMixedVersion:
    """A directory in a format this release does not read is refused."""

    @staticmethod
    def checkpointed(root, rows=([1, 2],)):
        db = repro.connect(root)
        db.create_table("t", SCHEMA).insert_rows([list(row) for row in rows])
        db.sql("CREATE PATCHINDEX pi_k ON t(k) TYPE UNIQUE")
        db.checkpoint()
        db.close()

    def test_old_manifest_versions_rejected(self, tmp_path):
        # Versions 1-2 (raw RSEG1 segments, no persisted patch sets)
        # were never shipped in a directory; the reader names the file
        # and the version instead of guessing at the layout.
        root = tmp_path / "db"
        self.checkpointed(root)
        manifest_path = root / "manifest.json"
        raw = head_payload(root)
        for version in (1, 2):
            raw["format_version"] = version
            manifest_path.write_text(json.dumps(raw))
            with pytest.raises(StorageError, match=f"version {version}") as info:
                repro.connect(root)
            assert str(manifest_path) in str(info.value)

    @pytest.mark.parametrize("version", [6, 99])
    def test_unsupported_manifest_version_rejected(self, tmp_path, version):
        # 6 kept the patch rowids as JSON lists in the head's header.
        root = tmp_path / "db"
        self.checkpointed(root)

        def bump(raw):
            raw["format_version"] = version
            return raw

        edit_head(root, bump)
        before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        assert any(path.parent.name == "segments" for path in before)
        with pytest.raises(StorageError, match=f"version {version}") as info:
            repro.connect(root)
        assert str(root / WAL_NAME) in str(info.value)
        after = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        assert after == before

    def test_a_malformed_partition_entry_is_a_storage_error(self, tmp_path):
        root = tmp_path / "db"
        self.checkpointed(root)

        def drop_file(raw):
            del raw["tables"]["t"]["partitions"][0]["file"]
            return raw

        edit_head(root, drop_file)
        with pytest.raises(StorageError, match="corrupt manifest") as info:
            repro.connect(root)
        assert str(root / WAL_NAME) in str(info.value)

    def test_version_3_is_rejected_by_name(self, tmp_path):
        # Version 3 kept a directory of per-column segment files and a
        # patches.json per checkpoint.  Such a directory is refused with
        # a typed error naming the file and the version, and left as it
        # was: nothing in it is taken for an orphan and deleted.
        root = tmp_path / "db"
        self.checkpointed(root, rows=([1, 2], [1, 3]))
        manifest_path = root / "manifest.json"
        raw = head_payload(root)
        generation = root / "segments" / f"g{raw['checkpoint_lsn']:012d}"
        (generation / "t").mkdir(parents=True)
        for column in ("k", "v"):
            (generation / "t" / f"p0.{column}.seg").write_bytes(b"RSEG2\n")
        (generation / "patches.json").write_text(json.dumps(raw.pop("patches")))
        raw["format_version"] = 3
        raw["patches"] = f"segments/{generation.name}/patches.json"
        manifest_path.write_text(json.dumps(raw))
        before = sorted(root.rglob("*"))

        with pytest.raises(StorageError, match="version 3") as info:
            repro.connect(root)
        assert str(manifest_path) in str(info.value)
        assert sorted(root.rglob("*")) == before

    def test_version_4_is_rejected_by_name(self, tmp_path):
        # Version 4 kept the manifest in manifest.json beside a log that
        # carried checkpoint markers and the create records of every
        # live table and index.  Such a directory is refused by name and
        # left as it was.
        root = tmp_path / "db"
        self.checkpointed(root)
        raw = head_payload(root)
        raw["format_version"] = 4
        del raw["indexes"]
        manifest_path = root / "manifest.json"
        manifest_path.write_text(json.dumps(raw, separators=(",", ":")) + "\n")
        (root / "wal.jsonl").write_text(
            '{"lsn": 1, "kind": "create_table", "payload": {"name": "t", '
            '"schema": [{"name": "k", "dtype": "int64", "nullable": true}, '
            '{"name": "v", "dtype": "int64", "nullable": true}], '
            '"partition_count": 1, "block_size": 4096}}\n'
            f'{{"lsn": {raw["checkpoint_lsn"] + 1}, "kind": "checkpoint", '
            f'"payload": {{"checkpoint_lsn": {raw["checkpoint_lsn"]}}}}}\n'
        )
        before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}

        with pytest.raises(StorageError, match="version 4") as info:
            repro.connect(root)
        assert str(manifest_path) in str(info.value)
        after = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        assert after == before


def durable_state(db) -> tuple:
    """Rows (cell by cell, so rowids are positions), partition splits,
    every index's patch sets, rebuild count and drift counters."""
    indexes = {
        index.name: (
            index.rebuild_count,
            None if index.maintenance_stats() is None
            else index.maintenance_stats().to_payload(),
        )
        for index in db.catalog.indexes()
    }
    return (
        tables_state(catalog_tables(db.catalog)),
        patches_state(db.catalog),
        indexes,
    )


class TestMissingPartitionFile:
    """A partition file the log's head names, gone or cut short, is a
    ``StorageError`` naming the file and the head's checkpoint LSN."""

    @staticmethod
    def checkpointed(root):
        db = repro.connect(root)
        db.create_table("t", SCHEMA).insert_rows([[k, k % 7] for k in range(5000)])
        db.checkpoint()
        db.close()
        manifest = read_manifest(root)
        return sorted(manifest.files())[0], manifest.checkpoint_lsn

    def test_a_missing_file_is_named(self, tmp_path):
        root = tmp_path / "db"
        name, lsn = self.checkpointed(root)
        (root / name).unlink()
        with pytest.raises(StorageError, match=f"{name} is missing.*lsn {lsn}"):
            repro.connect(root)

    def test_a_short_file_is_named(self, tmp_path):
        root = tmp_path / "db"
        name, lsn = self.checkpointed(root)
        path = root / name
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 1)
        with pytest.raises(
            StorageError, match=f"{name} is {size - 1} bytes.*lsn {lsn}"
        ):
            repro.connect(root)


class TestRestoredPatchSets:
    def test_restored_rowids_share_no_memory(self, tmp_path):
        """A restore copies each partition's rowids out of the head's one
        column: no two restored sets share memory, nor a set and the
        log's bytes, so a delete that renumbers one partition's patches
        moves no other partition's or index's."""
        root = tmp_path / "db"
        durable, twin = repro.connect(root, sync=False), repro.connect()
        for db in (durable, twin):
            db.create_table_from_pydict(
                "t",
                Schema([Field("a", DataType.INT64), Field("b", DataType.INT64)]),
                {"a": [1, 1, 2, 3, 3, 4, 5, 5], "b": [7, 1, 1, 2, 9, 9, 3, 3]},
                partition_count=2,
            )
            for name, column in (("pa", "a"), ("pb", "b")):
                db.sql(
                    f"CREATE PATCHINDEX {name} ON t({column}) TYPE UNIQUE "
                    "MODE IDENTIFIER"
                )
        durable.checkpoint()
        durable.close()
        reopened = repro.connect(root, sync=False)
        assert reopened.obs.export()["gauges"]["recovery.indexes_restored"] == 2
        arrays = [
            index.partition_patches(pid).rowids()
            for index in reopened.catalog.indexes()
            for pid in range(2)
        ]
        assert all(len(rowids) and rowids.flags.owndata for rowids in arrays)
        for position, rowids in enumerate(arrays):
            assert rowids.flags.writeable
            for other in arrays[:position]:
                assert not np.shares_memory(rowids, other)
        for db in (reopened, twin):
            db.table("t").delete_rowids([0])
        assert patches_state(reopened.catalog) == patches_state(twin.catalog)
        reopened.close()

    @pytest.mark.parametrize(
        "damage",
        ["not_an_object", "negative_count", "past_the_column", "out_of_order"],
    )
    def test_a_malformed_entry_is_rediscovered(self, tmp_path, damage):
        """An entry or rowids that make no patch set, behind a valid CRC,
        fall back to discovery as ``malformed``."""
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (2), (3), (3)")
        db.sql("CREATE PATCHINDEX pi ON t(k) TYPE UNIQUE MODE IDENTIFIER")
        expected = db.catalog.index("pi").rowids().tolist()
        db.checkpoint()
        db.close()

        def edit(header):
            part = header["patches"]["pi"]["partitions"][0]
            if damage == "not_an_object":
                header["patches"]["pi"] = 5
            elif damage == "negative_count":
                part["patch_count"] = -1
            elif damage == "past_the_column":
                part["patch_count"] += 1
            return header

        reverse = (lambda column: column[::-1]) if damage == "out_of_order" else None
        edit_head(root, edit, rowids=reverse)
        reopened = repro.connect(root, sync=False)
        counters = reopened.obs.export()["counters"]
        assert counters["recovery.index_fallbacks.malformed"] == 1
        assert reopened.catalog.index("pi").rowids().tolist() == expected
        reopened.close()


class TestWritesDuringACheckpoint:
    """A write committed while a checkpoint runs lands after the pin the
    checkpoint's head stands for, so the log keeps it: a reopen equals
    the live database."""

    @pytest.mark.parametrize("write", ["insert", "rebuild_index"])
    def test_a_write_in_the_checkpoint_window_survives_reopen(
        self, tmp_path, monkeypatch, write
    ):
        root = tmp_path / "db"
        db = repro.connect(root)
        db.sql("CREATE TABLE t (k BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (3)")
        db.sql("CREATE PATCHINDEX pi ON t(k) TYPE SORTED")
        db.table("t").update_rowid(1, "k", 2)  # drift for a rebuild to undo
        db.checkpoint()
        flush_table = engine.flush_table

        def flush_with_a_write(*args, **kwargs):
            def run():
                if write == "insert":
                    db.sql("INSERT INTO t VALUES (4), (0)")
                else:
                    db.catalog.index("pi").rebuild()

            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=60)
            return flush_table(*args, **kwargs)

        monkeypatch.setattr(engine, "flush_table", flush_with_a_write)
        db.checkpoint()
        monkeypatch.undo()
        live = durable_state(db)
        db.close()
        reopened = repro.connect(root)
        assert durable_state(reopened) == live
        reopened.close()


class Failpoint(ObservedDisk):
    """Makes the *k*-th write, fsync (of a file or a directory), rename or
    unlink through the disk seam raise :class:`OSError`.  ``fired``
    names the call that raised, if one did; a call whose site is in
    *skip* is not made."""

    KINDS = {
        "write": "write",
        "fsync": "fsync",
        "fsync_path": "fsync",
        "replace": "replace",
        "delete": "unlink",
    }

    def __init__(self, k: int, skip=frozenset()):
        self.k = k
        self.skip = skip
        self.calls = 0
        self.fired: str | None = None

    def call(self, operation, site, make, *args):
        kind = self.KINDS.get(operation)
        if kind is not None:
            self.calls += 1
            if self.calls == self.k:
                self.fired = kind
                raise OSError(5, f"failpoint: {kind} #{self.k} ({site})")
        return None if site in self.skip else make()


#: What the database acknowledges before the checkpoint that fails:
#: a checkpointed history, then a tail of every data-record kind.
BEFORE_CHECKPOINT = [
    "CREATE TABLE t (k BIGINT, s BIGINT)",
    "INSERT INTO t VALUES " + ", ".join(f"({k % 97}, {k})" for k in range(300)),
    "CREATE PATCHINDEX pk ON t(k) TYPE UNIQUE",
    "CREATE PATCHINDEX ps ON t(s) TYPE SORTED",
    "CREATE TABLE gone (k BIGINT)",
]
AFTER_CHECKPOINT = [
    "INSERT INTO t VALUES (1000, 5), (1001, 301), (3, 302)",
    "DELETE FROM t WHERE s BETWEEN 10 AND 14",
    "DROP TABLE gone",
    "INSERT INTO t VALUES (1002, 303)",
]


def sweep_failed_checkpoint_steps(tmp_path, monkeypatch, skip=frozenset()) -> set:
    """The k-th seam call of one ``CHECKPOINT`` raises, for every k; the
    database is abandoned and the directory reopened fresh, and its
    rows, rowids and patch sets must equal an in-memory database fed the
    same acknowledged statements.  Returns the kinds of call that fired.

    A raised exception keeps whatever the page cache holds, so this
    checks the order of the steps, not where the fsyncs sit (the
    recording disk of ``tests/test_crash_simulator.py`` does).
    """
    oracle = repro.connect()
    for statement in BEFORE_CHECKPOINT + AFTER_CHECKPOINT:
        oracle.sql(statement)
    oracle.table("t").update_rowid(0, "s", -1)
    expected = durable_state(oracle)[:2]
    fired: set[str] = set()
    for k in range(1, 1000):
        root = tmp_path / f"k{k}"
        db = repro.connect(root)
        for statement in BEFORE_CHECKPOINT:
            db.sql(statement)
        db.checkpoint()
        for statement in AFTER_CHECKPOINT:
            db.sql(statement)
        db.table("t").update_rowid(0, "s", -1)
        failpoint = Failpoint(k, skip)
        monkeypatch.setattr(disk, "DISK", failpoint)
        try:
            db.checkpoint()
        except (OSError, StorageError):
            assert failpoint.fired is not None
        finally:
            monkeypatch.undo()
        del db  # abandoned, never closed
        reopened = repro.connect(root)
        assert durable_state(reopened)[:2] == expected, (k, failpoint.fired)
        assert sorted(path.name for path in root.iterdir()) == [
            "segments",
            "wal.log",
        ]
        reopened.close()
        if failpoint.fired is None:
            return fired
        fired.add(failpoint.fired)
    raise AssertionError("the checkpoint never finished")


class TestCrashAtEveryCheckpointStep:
    def test_every_failed_step_recovers_the_acknowledged_state(
        self, tmp_path, monkeypatch
    ):
        fired = sweep_failed_checkpoint_steps(tmp_path, monkeypatch)
        assert fired == {"write", "fsync", "replace", "unlink"}, fired
