"""Durability tests: save/reopen round-trips and crash-recovery fuzz.

The acceptance bar mirrors paper §V: closing and reopening a persisted
database must yield identical query results, with every PatchIndex
rebuilt *from data* (the WAL never carries patches), and a WAL tail torn
at an arbitrary byte must recover to exactly the state of the last
complete record.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.errors import StorageError
from repro.gen import sorted_with_exceptions, unique_with_exceptions
from repro.storage.schema import Field, Schema
from repro.storage.wal import DATA_KINDS, WalRecord
from repro.types import DataType

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
            db = repro.connect(path=root, parallelism=1)
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

            reopened = repro.connect(path=root, parallelism=1)
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
            db = repro.connect(path=root, parallelism=1)
            table = db.create_table("t", SCHEMA)
            table.insert_rows([list(row) for row in rows])
            db.create_patch_index("pi_k", "t", "k", kind="unique")
            db.close()
            first = repro.connect(path=root, parallelism=1)
            rows_1 = first.sql("SELECT k, v FROM t").to_pylist()
            stats_1 = structural_stats(first.catalog.index("pi_k"))
            first.close()
            second = repro.connect(path=root, parallelism=1)
            assert second.sql("SELECT k, v FROM t").to_pylist() == rows_1
            assert structural_stats(second.catalog.index("pi_k")) == stats_1
            second.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)


class TestFig45Workloads:
    """Close → reopen over the paper's synthetic workloads (Fig. 4/5)."""

    N = 4000

    def build(self, root):
        db = repro.connect(path=root, parallelism=1)
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

        reopened = repro.connect(path=root, parallelism=1)
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

        reopened = repro.connect(path=root, parallelism=1)
        for query, rows in zip(self.QUERIES, expected):
            assert reopened.sql(query).to_pylist() == rows
        reopened.close()

    def test_wal_never_contains_patches(self, tmp_path):
        """Paper §V: CREATE PATCHINDEX is logged without the patches."""
        root = tmp_path / "db"
        db = self.build(root)
        db.close()
        for line in (root / "wal.jsonl").read_text().splitlines():
            record = WalRecord.from_json(line)
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
    db = repro.connect(path=base, parallelism=1)
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


def expected_rows_after(base: Path, wal_bytes: bytes) -> int:
    """Row count implied by the manifest plus the complete WAL records."""
    manifest = json.loads((base / "manifest.json").read_text())
    checkpoint_lsn = manifest["checkpoint_lsn"]
    rows = sum(
        partition["row_count"]
        for table in manifest["tables"].values()
        for partition in table["partitions"]
    )
    for line in wal_bytes.decode("utf-8", "replace").splitlines():
        try:
            record = WalRecord.from_json(line)
        except Exception:
            break  # torn tail: everything after is discarded
        if record.kind not in DATA_KINDS or record.lsn <= checkpoint_lsn:
            continue
        if record.kind == "append":
            rows += record.payload["row_count"]
        elif record.kind == "load":
            rows += len(next(iter(record.payload["columns"].values())))
        elif record.kind == "delete":
            rows -= len(record.payload["rowids"])
    return rows


def tail_start(wal_bytes: bytes) -> int:
    """Byte offset just past the checkpoint marker.  Everything before
    it is made durable by fsync-on-append plus the atomic compaction
    rewrite, so a crash can only tear bytes at or after this offset."""
    offset = 0
    for line in wal_bytes.splitlines(keepends=True):
        record = WalRecord.from_json(line.decode("utf-8"))
        offset += len(line)
        if record.kind == "checkpoint":
            return offset
    return offset


class TestCrashRecoveryFuzz:
    @pytest.fixture(scope="class")
    def base_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz") / "base"
        build_fuzz_base(base)
        return base

    @pytest.mark.parametrize("fraction", [0.0, 0.17, 0.33, 0.5, 0.66, 0.84, 0.97, 1.0])
    def test_truncated_tail_converges(self, base_dir, tmp_path, fraction):
        wal_bytes = (base_dir / "wal.jsonl").read_bytes()
        start = tail_start(wal_bytes)
        cut = start + int((len(wal_bytes) - start) * fraction)
        crashed = tmp_path / "crashed"
        shutil.copytree(base_dir, crashed)
        (crashed / "wal.jsonl").write_bytes(wal_bytes[:cut])

        db = repro.connect(path=crashed, parallelism=1)
        assert db.table("t").row_count == expected_rows_after(
            crashed, wal_bytes[:cut]
        )
        rows = db.sql("SELECT k, v FROM t").to_pylist()
        index_stats = structural_stats(db.catalog.index("pi_k"))
        db.close()

        # Convergence: recovering the recovered directory again is a
        # fixed point — same rows, same rebuilt index.
        again = repro.connect(path=crashed, parallelism=1)
        assert again.sql("SELECT k, v FROM t").to_pylist() == rows
        assert structural_stats(again.catalog.index("pi_k")) == index_stats
        again.close()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_byte_truncation(self, base_dir, data):
        wal_bytes = (base_dir / "wal.jsonl").read_bytes()
        cut = data.draw(st.integers(tail_start(wal_bytes), len(wal_bytes)))
        crashed = Path(tempfile.mkdtemp(prefix="repro-crash-")) / "db"
        try:
            shutil.copytree(base_dir, crashed)
            (crashed / "wal.jsonl").write_bytes(wal_bytes[:cut])
            db = repro.connect(path=crashed, parallelism=1)
            assert db.table("t").row_count == expected_rows_after(
                crashed, wal_bytes[:cut]
            )
            # The recovered database is fully functional.
            db.sql("SELECT COUNT(DISTINCT k) AS n FROM t").to_pylist()
            db.close()
        finally:
            shutil.rmtree(crashed.parent, ignore_errors=True)


class TestMixedVersion:
    """A directory in a format this release does not read is refused."""

    def test_old_manifest_versions_rejected(self, tmp_path):
        # Versions 1-2 (raw RSEG1 segments, no persisted patch sets)
        # were never shipped in a directory; the reader names the file
        # and the version instead of guessing at the layout.
        root = tmp_path / "db"
        db = repro.connect(path=root, parallelism=1)
        db.create_table("t", SCHEMA).insert_rows([[1, 2]])
        db.checkpoint()
        db.close()
        manifest_path = root / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        for version in (1, 2):
            raw["format_version"] = version
            manifest_path.write_text(json.dumps(raw))
            with pytest.raises(StorageError, match=f"version {version}") as info:
                repro.connect(path=root, parallelism=1)
            assert str(manifest_path) in str(info.value)

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(path=root, parallelism=1)
        db.create_table("t", SCHEMA).insert_rows([[1, 2]])
        db.checkpoint()
        db.close()
        manifest_path = root / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["format_version"] = 99
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(repro.ReproError):
            repro.connect(path=root, parallelism=1)

    def test_a_malformed_partition_entry_is_a_storage_error(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(path=root, parallelism=1)
        db.create_table("t", SCHEMA).insert_rows([[1, 2]])
        db.checkpoint()
        db.close()
        manifest_path = root / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        del raw["tables"]["t"]["partitions"][0]["file"]
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(StorageError, match="corrupt manifest") as info:
            repro.connect(path=root, parallelism=1)
        assert str(manifest_path) in str(info.value)

    def test_version_3_is_rejected_by_name(self, tmp_path):
        # Version 3 kept a directory of per-column segment files and a
        # patches.json per checkpoint.  Such a directory is refused with
        # a typed error naming the file and the version, and left as it
        # was: nothing in it is taken for an orphan and deleted.
        root = tmp_path / "db"
        db = repro.connect(path=root, parallelism=1)
        db.create_table("t", SCHEMA).insert_rows([[1, 2], [1, 3]])
        db.sql("CREATE PATCHINDEX pi_k ON t(k) TYPE UNIQUE")
        db.checkpoint()
        db.close()
        manifest_path = root / "manifest.json"
        raw = json.loads(manifest_path.read_text())
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
            repro.connect(path=root, parallelism=1)
        assert str(manifest_path) in str(info.value)
        assert sorted(root.rglob("*")) == before
