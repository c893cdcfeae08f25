"""Public API surface: connect(), QueryResult ergonomics."""

import dataclasses
import inspect
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ConstraintAdvisor, Database
from repro.serve import ServerClient
from repro.__main__ import main
from repro.errors import PlanError, StorageError
from repro.exec.result import QueryResult
from repro.plan.optimizer import OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql.session import Session
from repro.storage.column import ColumnVector
from repro.storage.segment import open_segment, write_segment
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog
from repro.types import DataType


@pytest.fixture
def db() -> Database:
    db = repro.connect()
    db.sql("CREATE TABLE t (c BIGINT, v VARCHAR(5))")
    db.sql("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return db


class TestConnect:
    def test_connect_returns_database(self):
        assert isinstance(repro.connect(), Database)

    def test_connect_with_existing_file_is_rejected(self, tmp_path):
        # A file is not a data directory: a typed error, and the file is
        # left alone.
        wal = tmp_path / "wal.jsonl"
        wal.write_text("keep\n")
        for target in (wal, str(wal)):
            with pytest.raises(StorageError, match="not a directory"):
                repro.connect(target)
        with pytest.raises(StorageError, match="not a directory"):
            Database(path=wal)
        assert wal.read_text() == "keep\n"

    def test_connect_suffix_carries_no_meaning(self, tmp_path):
        # A WAL-looking name that does not exist is a durable directory
        # like any other (the old suffix heuristic is gone).
        db = repro.connect(tmp_path / "data.wal")
        assert db.engine.name == "durable"
        assert (tmp_path / "data.wal").is_dir()

    def test_connect_with_directory_opens_durable(self, tmp_path):
        db = repro.connect(tmp_path / "data")
        assert db.engine.name == "durable"
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES (7)")
        db.checkpoint()
        db.close()
        reopened = repro.connect(tmp_path / "data")
        assert reopened.sql("SELECT c FROM t").scalar() == 7

    def test_connect_rejects_target_and_path(self, tmp_path):
        # The target is the one spelling of where a database lives.
        with pytest.raises(TypeError, match="path"):
            repro.connect(tmp_path / "a", path=tmp_path / "b")
        with pytest.raises(TypeError, match="path"):
            repro.connect(path=tmp_path / "b")
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_connect_uri_rejects_storage_knobs(self):
        with pytest.raises(repro.ReproError, match="storage knobs") as caught:
            repro.connect("repro://localhost:1", cache_bytes=1 << 20)
        # The refusal names the knobs that exist, and only those.
        assert "sync/cache_bytes are" in str(caught.value)

    def test_parallelism_is_keyword_only(self):
        with pytest.raises(TypeError):
            repro.connect(None, 4)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_symbols_exported(self):
        for name in (
            "connect",
            "Database",
            "QueryProfile",
            "MetricsRegistry",
        ):
            assert name in repro.__all__


class TestOptionSurface:
    """The settable surface, pinned: a new knob has to change this test."""

    def test_connect_parameters(self):
        assert list(inspect.signature(repro.connect).parameters) == [
            "target",
            "parallelism",
            "sync",
            "cache_bytes",
            "timeout",
        ]

    def test_database_parameters(self):
        assert list(inspect.signature(Database.__init__).parameters)[1:] == [
            "path",
            "sync",
            "cache_bytes",
        ]

    def test_session_parameters(self):
        # Snapshot reads are a session's one setting; profiling is asked
        # for per statement.
        assert list(inspect.signature(Database.session).parameters)[1:] == [
            "snapshot_reads",
            "label",
        ]
        assert list(inspect.signature(Session).parameters)[1:] == [
            "snapshot_reads",
            "label",
            "_implicit",
        ]
        with pytest.raises(TypeError, match="profile"):
            repro.connect().session(profile=True)

    def test_storage_parameters(self):
        # A torn tail is always truncated, a load always range-split and
        # a segment always written by the encoding picker.
        assert list(inspect.signature(WriteAheadLog).parameters) == [
            "path",
            "sync",
            "metrics",
        ]
        assert list(inspect.signature(Table.load_columns).parameters) == [
            "self",
            "columns",
        ]
        assert list(inspect.signature(write_segment).parameters) == [
            "path",
            "column",
            "block_size",
            "sync",
            "patch_rowids",
        ]

    def test_environment_variables(self):
        source = Path(repro.__file__).parent
        named = {
            name
            for path in source.rglob("*.py")
            for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())
        }
        assert named == {"REPRO_CACHE_BYTES", "REPRO_SANITIZE"}

    def test_parallelism_is_refused_everywhere_but_its_vestiges(self, tmp_path):
        # connect() and the planner take 1 and nothing else; Database.sql
        # takes the keyword and reads nothing from it.
        with pytest.raises(repro.ReproError, match="serial"):
            repro.connect(tmp_path / "a", parallelism=2)
        assert not (tmp_path / "a").exists()
        with pytest.raises(PlanError, match="serial"):
            PhysicalPlanner(parallelism=2)
        db = repro.connect(tmp_path / "b", parallelism=1)
        db.sql("CREATE TABLE t (c BIGINT)")
        assert db.sql("SELECT c FROM t", parallelism=2).row_count == 0
        with pytest.raises(TypeError):
            Session(db, parallelism=2)
        with pytest.raises(TypeError):
            db.session(parallelism=2)
        with pytest.raises(TypeError):
            db.explain("SELECT c FROM t", parallelism=1)
        with db.session() as session, db.snapshot() as view:
            for surface in (session, view):
                with pytest.raises(TypeError):
                    surface.sql("SELECT c FROM t", parallelism=1)
                with pytest.raises(TypeError):
                    surface.explain("SELECT c FROM t", parallelism=1)
        assert not hasattr(db, "parallelism")
        db.close()

    def test_serve_threads_takes_one_only(self, capsys):
        assert main(["serve", "--threads", "2"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "--threads" not in capsys.readouterr().out

    def test_a_400k_row_query_starts_no_thread(self, monkeypatch):
        n = 400_000
        db = repro.connect()
        db.sql("CREATE TABLE big (k BIGINT, v BIGINT) PARTITIONS 4")
        db.table("big").load_columns(
            {
                "k": ColumnVector(DataType.INT64, np.arange(n)),
                "v": ColumnVector(DataType.INT64, np.arange(n) % 97),
            }
        )

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for query in (
            "SELECT v, SUM(k) AS s FROM big GROUP BY v",
            "SELECT k, v FROM big WHERE v < 3 ORDER BY v",
            "SELECT COUNT(DISTINCT v) AS n FROM big",
            "SELECT DISTINCT v FROM big",
        ):
            assert db.sql(query).row_count > 0, query

    def test_removed_keywords_are_plain_type_errors(self, tmp_path):
        # No shim, no deprecation path: Python's own error.
        with pytest.raises(TypeError, match="mmap"):
            repro.connect(tmp_path / "a", mmap=True)
        with pytest.raises(TypeError, match="rebuild_threshold"):
            repro.connect(tmp_path / "b", rebuild_threshold=0.1)
        with pytest.raises(TypeError, match="encoding"):
            repro.connect(tmp_path / "b", encoding="raw")
        with pytest.raises(TypeError, match="positional"):
            Database(tmp_path / "b")
        with pytest.raises(TypeError, match="feedback"):
            ConstraintAdvisor(repro.connect(), feedback=object())
        with pytest.raises(TypeError, match="mmap"):
            open_segment(tmp_path / "c.seg", mmap=True)
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_optimizer_options_fields(self):
        # One switch for all rewrites and one past the gate: the gate is
        # one measured breakeven rate per rewrite, not a weight.
        assert [field.name for field in dataclasses.fields(OptimizerOptions)] == [
            "use_patch_indexes",
            "always_rewrite",
        ]

    def test_no_drift_report(self):
        # Drift is read from the patchindex.<name>.* gauges (metrics()).
        assert not hasattr(Database, "drift_report")
        assert not hasattr(ServerClient, "drift_report")

    def test_advisor_parameters(self):
        assert list(inspect.signature(ConstraintAdvisor).parameters) == [
            "database",
            "nuc_threshold",
            "nsc_threshold",
            "sample_rows",
        ]

    def test_physical_planner_parameters(self):
        assert list(inspect.signature(PhysicalPlanner.__init__).parameters)[1:] == [
            "batch_size",
            "derive_scan_ranges",
            "parallelism",
            "verify",
            "backend",
            "database",
        ]
        with pytest.raises(TypeError, match="cost_model"):
            PhysicalPlanner(cost_model=None)

    def test_server_parameters(self):
        from repro.serve import ReproServer, ServerThread

        for cls in (ReproServer, ServerThread):
            assert list(inspect.signature(cls).parameters) == [
                "database", "host", "port",
            ]
        # The reader pool is gone and so is its size: a thread per
        # connection needs no number.
        with pytest.raises(TypeError, match="read_threads"):
            ServerThread(repro.connect(), read_threads=8)

    def test_serve_exports_one_client(self):
        import repro.serve

        assert repro.serve.__all__ == [
            "DEFAULT_PORT",
            "MAX_FRAME_BYTES",
            "RemoteMetrics",
            "RemoteProfile",
            "ReproServer",
            "ServerClient",
            "ServerThread",
        ]
        assert not hasattr(repro.serve, "AsyncReproClient")

    def test_a_serving_process_never_imports_asyncio(self, tmp_path):
        """``python -m repro serve`` up to its ready line and through a
        served read and write, in a process of its own."""
        script = textwrap.dedent(
            """
            import os, sys, threading

            read_end, write_end = os.pipe()
            sys.stdout = os.fdopen(write_end, "w")
            from repro.__main__ import main

            arguments = ["serve", "--data-dir", sys.argv[1], "--port", "0"]
            threading.Thread(target=main, args=(arguments,), daemon=True).start()
            ready = os.fdopen(read_end).readline()
            assert ready.startswith(
                "repro server listening on repro://127.0.0.1:"
            ), ready
            import repro

            with repro.connect(ready.split()[4]) as client:
                client.sql("CREATE TABLE t (c BIGINT)")
                client.sql("INSERT INTO t VALUES (1), (2)")
                assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 2
            loaded = sorted(name for name in sys.modules if "asyncio" in name)
            assert not loaded, loaded
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data")],
            env={"PYTHONPATH": str(Path(repro.__file__).parent.parent)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestKeywordOnlyKnobs:
    def test_sql_rejects_positional_knobs(self, db):
        with pytest.raises(TypeError):
            db.sql("SELECT c FROM t", 1)

    def test_explain_rejects_positional_knobs(self, db):
        with pytest.raises(TypeError):
            db.explain("SELECT c FROM t", True)

    def test_sql_accepts_keyword_knobs(self, db):
        result = db.sql("SELECT c FROM t", profile=True)
        assert result.row_count == 3
        assert result.profile is not None


class TestQueryResultErgonomics:
    def test_column_by_name(self, db):
        result = db.sql("SELECT c, v FROM t")
        assert result.column("v").to_pylist() == ["a", "b", "c"]

    def test_text_joins_single_column(self, db):
        result = db.sql("SELECT v FROM t")
        assert result.text() == "a\nb\nc"

    def test_text_rejects_multiple_columns(self, db):
        with pytest.raises(ValueError):
            db.sql("SELECT c, v FROM t").text()

    def test_message_result(self):
        result = QueryResult.message("3 rows inserted")
        assert result.column_names == ("status",)
        assert result.scalar() == "3 rows inserted"

    def test_from_lines(self):
        result = QueryResult.from_lines("plan", ["a", "b"])
        assert result.column("plan").to_pylist() == ["a", "b"]
        assert result.text() == "a\nb"

    def test_ddl_and_dml_return_query_results(self, db):
        created = db.sql("CREATE TABLE u (x BIGINT)")
        assert isinstance(created, QueryResult)
        assert "created" in created.scalar()
        inserted = db.sql("INSERT INTO u VALUES (1)")
        assert "1 rows inserted" in inserted.scalar()

    def test_explain_returns_query_result(self, db):
        result = db.sql("EXPLAIN SELECT c FROM t")
        assert isinstance(result, QueryResult)
        assert result.column_names == ("plan",)
        assert result.row_count > 1


class TestDbApiCursorSurface:
    """A result is not a cursor: one row form, one column form and
    the text forms, with no fetch, iteration, length or subscript."""

    KEPT = {
        "column",
        "column_names",
        "columns",
        "empty",
        "from_lines",
        "message",
        "pretty",
        "profile",
        "row_count",
        "scalar",
        "schema",
        "text",
        "to_pylist",
    }

    def test_public_attributes_are_the_kept_set(self, db):
        result = db.sql("SELECT c FROM t")
        public = {name for name in dir(result) if not name.startswith("_")}
        assert public == self.KEPT

    def test_no_iteration_length_or_membership(self, db):
        result = db.sql("SELECT c FROM t")
        for spelling in (iter, len, lambda r: "c" in r):
            with pytest.raises(TypeError):
                spelling(result)

    def test_getitem_rejects_integers(self, db):
        with pytest.raises(TypeError):
            db.sql("SELECT c FROM t")[0]
