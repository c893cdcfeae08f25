"""Tests for drift tracking and index rebuilds (self-management upkeep)."""

import pytest

import repro
from repro import Database
from repro.core.discovery import discover_table_nsc
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.serve import ServerClient, ServerThread
from repro.storage.database import REBUILD_THRESHOLD
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(values):
    return Table.from_pydict(
        "t", Schema([Field("c", DataType.INT64)]), {"c": values}
    )


class TestDrift:
    def test_no_mutations_no_drift(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.maintenance_stats() is None
        assert index.drift_rate() == 0.0

    def test_drift_counts_added_patches(self):
        table = make_table(list(range(100)))
        index = PatchIndex.create("pi", table, "c", "unique")
        for value in range(10):
            table.insert_rows([[value]])  # each demotes a kept row
        assert index.maintenance_stats() is not None
        assert index.drift_rate() > 0.1

    def test_rebuild_restores_minimality(self):
        table = make_table(list(range(50)))
        index = PatchIndex.create("pi", table, "c", "sorted")
        # Updates conservatively demote rows even when the result stays
        # sorted-compatible.
        table.update_rowid(10, "c", 10)  # same value: still a patch now
        assert index.patch_count == 1
        index.rebuild()
        assert index.patch_count == 0

    def test_rebuild_resets_design_choice(self):
        table = make_table(list(range(200)))
        index = PatchIndex.create("pi", table, "c", "unique")
        assert index.design == "identifier"  # zero patches
        # Make most rows duplicates via appends.
        table.insert_rows([[1]] * 150)
        index.rebuild()
        assert index.design == "bitmap"
        assert index.exception_rate > 0.4


def designs(index):
    return index.design, index.mode


class TestRebuildKeepsTheDesign:
    """Live, rebuilt and reopened indexes agree on design and mode: a
    rebuild resolves through the mode the index was created with, as the
    ``create_index`` WAL record makes a reopen do."""

    @pytest.mark.parametrize("mode", ["identifier", "bitmap", "auto"])
    @pytest.mark.parametrize("durable", [False, True])
    def test_live_rebuilt_and_reopened_agree(self, tmp_path, mode, durable):
        # 2 patches in 201 rows is under the 1/64 crossover: auto picks
        # the identifier design, and only an explicit mode gets a bitmap.
        expected = ("bitmap" if mode == "bitmap" else "identifier", PatchIndexMode(mode))
        db = repro.connect(tmp_path / "data" if durable else None)
        db.create_table_from_pydict(
            "t", Schema([Field("c", DataType.INT64)]), {"c": [*range(200), 7]}
        )
        index = db.create_patch_index("pi", "t", "c", kind="unique", mode=mode)
        assert designs(index) == expected
        index.rebuild()
        assert designs(index) == expected
        if durable:
            db.close()
            reopened = repro.connect(tmp_path / "data")
            assert designs(reopened.catalog.index("pi")) == expected


def counters(db):
    return db.metrics().export()["counters"]


def patch_rowids(db):
    return db.catalog.index("pi").rowids().tolist()


class TestDriftTriggeredRebuild:
    """The self-management loop at the constant threshold: maintenance
    drifts an index past 2 %, the index sink schedules it once, the
    sweep rebuilds it."""

    @pytest.fixture(params=["memory", "durable"])
    def db(self, request, tmp_path):
        """100 rows, sorted but for row 50, under an NSC index.  A
        same-value update conservatively demotes its row: 1 % drift."""
        db = repro.connect(tmp_path / "data" if request.param == "durable" else None)
        values = list(range(100))
        values[50] = 0
        db.create_table_from_pydict(
            "t", Schema([Field("c", DataType.INT64)]), {"c": values}
        )
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE SORTED")
        assert patch_rowids(db) == [50]
        return db

    @staticmethod
    def demote(db, rowids):
        for rowid in rowids:
            db.table("t").update_rowid(rowid, "c", rowid)

    def test_at_the_threshold_nothing_is_scheduled(self, db):
        self.demote(db, [10, 20])
        index = db.catalog.index("pi")
        assert index.drift_rate() == REBUILD_THRESHOLD
        assert not index.rebuild_pending
        assert "maintenance.rebuilds_scheduled" not in counters(db)
        assert db.run_pending_rebuilds() == 0
        assert patch_rowids(db) == [10, 20, 50]

    def test_past_the_threshold_is_scheduled_once(self, db):
        self.demote(db, [10, 20, 30, 40])  # crosses at the third
        assert db.catalog.index("pi").rebuild_pending
        assert counters(db)["maintenance.rebuilds_scheduled"] == 1
        [entry] = db.drift_report()
        assert entry["rebuild_pending"] and entry["rebuilds"] == 0
        assert entry["rebuild_threshold"] == REBUILD_THRESHOLD

    def test_the_sweep_restores_the_minimal_patch_set(self, db):
        self.demote(db, [10, 20, 30])
        assert db.run_pending_rebuilds() == 1
        index = db.catalog.index("pi")
        assert not index.rebuild_pending and index.rebuild_count == 1
        assert index.drift_rate() == 0.0
        assert counters(db)["maintenance.rebuilds_run"] == 1
        scratch = discover_table_nsc(db.table("t"), "c")
        assert patch_rowids(db) == scratch.global_rowids().tolist() == [50]
        assert db.run_pending_rebuilds() == 0
        if db.engine.logs_data:
            last = db.wal.records()[-1]
            assert (last.kind, last.payload) == (
                "rebuild_index",
                {"name": "pi", "table": "t"},
            )

    def test_the_sweep_rebuilds_only_what_drift_flagged(self):
        db = Database()
        db.sql("CREATE TABLE t (c BIGINT)")
        rows = ", ".join(f"({i})" for i in range(100))
        db.sql(f"INSERT INTO t VALUES {rows}")
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE SORTED")
        db.sql("CREATE PATCHINDEX pu ON t(c) TYPE UNIQUE")
        assert db.run_pending_rebuilds() == 0
        # Ten conservative same-value updates: drift without real
        # disorder, and none at all for the unique index.
        self.demote(db, range(10))
        assert db.catalog.index("pi").rebuild_pending
        assert not db.catalog.index("pu").rebuild_pending
        assert db.run_pending_rebuilds() == 1
        assert db.catalog.index("pi").patch_count == 0
        assert db.catalog.index("pu").rebuild_count == 0
        assert db.run_pending_rebuilds() == 0

    def test_a_reopen_keeps_a_pending_rebuild(self, tmp_path):
        """Drift survives a checkpoint in ``patches.json``; the pending
        rebuild it implies must survive with it."""
        root = tmp_path / "data"
        db = repro.connect(root)
        db.create_table_from_pydict(
            "t", Schema([Field("c", DataType.INT64)]), {"c": list(range(100))}
        )
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE SORTED")
        self.demote(db, range(5))
        db.sql("CHECKPOINT")
        index = db.catalog.index("pi")
        assert (index.drift_rate(), index.rebuild_pending) == (0.05, True)
        db.close()
        reopened = repro.connect(root)
        index = reopened.catalog.index("pi")
        assert (index.drift_rate(), index.rebuild_pending) == (0.05, True)
        assert reopened.run_pending_rebuilds() == 1
        assert patch_rowids(reopened) == []
        assert not index.rebuild_pending and index.drift_rate() == 0.0

    def test_a_reopen_after_the_sweep_rebuilds_from_data_and_says_why(self, tmp_path):
        """The sweep's ``rebuild_index`` record replays at its place in
        the tail: the index is restored from the checkpoint, maintained
        through the demotions, rebuilt, then maintained again."""
        root = tmp_path / "data"
        db = repro.connect(root)
        db.create_table_from_pydict(
            "t", Schema([Field("c", DataType.INT64)]), {"c": list(range(100))}
        )
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE SORTED")
        db.checkpoint()
        self.demote(db, [10, 20, 30])
        assert db.run_pending_rebuilds() == 1
        self.demote(db, [40])
        live = db.catalog.index("pi")
        expected = (patch_rowids(db), live.maintenance_stats(), live.rebuild_count)
        db.close()
        reopened = repro.connect(root)
        exported = reopened.metrics().export()
        assert exported["gauges"]["recovery.indexes_restored"] == 1
        assert exported["gauges"]["recovery.indexes_rebuilt"] == 0
        assert not any(
            name.startswith("recovery.index_fallbacks.") for name in exported["counters"]
        )
        index = reopened.catalog.index("pi")
        assert index.rebuild_count == 1
        assert (patch_rowids(reopened), index.maintenance_stats(), index.rebuild_count) == (
            expected
        )
        assert patch_rowids(reopened) == [40]

    def test_served_write_past_the_threshold_is_swept_before_its_ack(self, tmp_path):
        db = repro.connect(tmp_path / "data", parallelism=1)
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(100)))
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
        with ServerThread(db) as server, ServerClient(server.host, server.port) as client:
            client.sql("INSERT INTO t VALUES (0), (1)")  # 4 patches / 102 rows
            [entry] = client.drift_report()
            assert entry["rebuilds"] == 1 and not entry["rebuild_pending"]
            assert entry["drift_rate"] == 0.0 and entry["patch_count"] == 4
            assert entry["rebuild_threshold"] == REBUILD_THRESHOLD
            assert client.sql("SELECT COUNT(DISTINCT c) AS n FROM t").scalar() == 100
        assert counters(db)["maintenance.rebuilds_scheduled"] == 1
        assert counters(db)["maintenance.rebuilds_run"] == 1
