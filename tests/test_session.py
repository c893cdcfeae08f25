"""Sessions and snapshot views: knobs, delegation, pin lifecycle."""

import os

import pytest

import repro
from repro.errors import ExecutionError
from repro.sql.session import Session, statement_kind


@pytest.fixture
def db():
    db = repro.connect()
    db.sql("CREATE TABLE t (c BIGINT, v VARCHAR(5))")
    db.sql("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return db


@pytest.fixture
def durable(tmp_path):
    db = repro.connect(tmp_path / "data")
    db.sql("CREATE TABLE t (c BIGINT, v VARCHAR(5))")
    db.sql("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return db


class TestStatementKind:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("SELECT 1", "read"),
            ("  select c from t", "read"),
            ("EXPLAIN SELECT c FROM t", "read"),
            ("explain analyze select 1", "read"),
            ("CHECKPOINT", "checkpoint"),
            ("checkpoint;", "write"),  # conservative: token is 'checkpoint;'
            ("INSERT INTO t VALUES (1)", "write"),
            ("CREATE TABLE u (x BIGINT)", "write"),
            ("DELETE FROM t", "write"),
            ("DROP TABLE t", "write"),
            ("", "write"),
        ],
    )
    def test_classification(self, text, expected):
        assert statement_kind(text) == expected


class TestSessionBasics:
    def test_database_session_returns_session(self, db):
        session = db.session()
        assert isinstance(session, Session)
        assert session.sql("SELECT c FROM t").row_count == 3
        session.close()

    def test_context_manager_closes(self, db):
        with db.session() as session:
            session.sql("SELECT c FROM t")
        assert session.closed
        with pytest.raises(ExecutionError, match="closed"):
            session.sql("SELECT c FROM t")

    def test_close_is_idempotent(self, db):
        session = db.session()
        session.close()
        session.close()

    def test_explain_goes_through_session(self, db):
        with db.session() as session:
            assert "logical plan" in session.explain("SELECT c FROM t")

    def test_profile_is_per_statement(self, db):
        # No session knob: each statement asks for its own profile.
        with db.session() as session:
            assert session.sql("SELECT c FROM t", profile=True).profile is not None
            assert session.sql("SELECT c FROM t").profile is None
        with pytest.raises(TypeError, match="profile"):
            db.session(profile=True)

    def test_session_counts_statements(self, db):
        with db.session(label="job1") as session:
            session.sql("SELECT c FROM t")
            session.sql("SELECT v FROM t")
            assert session.statements == 2
        assert db.obs.counter("session.job1.statements").value == 2
        assert db.obs.counter("session.opened").value == 1
        assert db.obs.counter("session.closed").value == 1

    def test_database_sql_uses_implicit_session(self, db):
        db.sql("SELECT c FROM t")
        assert db.obs.counter("session.statements").value >= 1
        # The implicit session does not count as an opened session.
        assert db.obs.counter("session.opened").value == 0

    def test_snapshot_reads_on_memory_engine(self, db):
        pins = db.obs.counter("storage.snapshot.pins")
        with db.session(snapshot_reads=True) as session:
            assert session.snapshot_reads is True
            assert session.sql("SELECT c FROM t").row_count == 3
            session.sql("INSERT INTO t VALUES (4, 'd')")
            assert session.sql("SELECT c FROM t").row_count == 4
        assert pins.value == 2


class TestSnapshotView:
    def test_snapshot_works_on_memory_engine(self, db):
        with db.snapshot() as view:
            db.sql("INSERT INTO t VALUES (4, 'd')")
            db.table("t").update_rowid(0, "c", 10)
            assert view.sql("SELECT c FROM t ORDER BY c").column("c").to_pylist() == [
                1,
                2,
                3,
            ]
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 4

    def test_snapshot_is_stable_across_writes(self, durable):
        with durable.snapshot() as view:
            durable.sql("INSERT INTO t VALUES (4, 'd')")
            assert view.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        assert durable.sql("SELECT COUNT(*) AS n FROM t").scalar() == 4

    def test_snapshot_is_stable_across_checkpoint(self, durable):
        with durable.snapshot() as view:
            durable.sql("INSERT INTO t VALUES (4, 'd')")
            durable.checkpoint()
            assert view.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
            assert sorted(view.sql("SELECT v FROM t").column("v").to_pylist()) == [
                "a",
                "b",
                "c",
            ]

    def test_snapshot_rejects_writes(self, durable):
        # The public entry classifies for itself, whoever calls it.
        with durable.snapshot() as view:
            with pytest.raises(ExecutionError, match="read-only"):
                view.sql("INSERT INTO t VALUES (9, 'z')")
        assert durable.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3

    def test_snapshot_view_closed_is_idempotent(self, durable):
        view = durable.snapshot()
        view.close()
        view.close()
        with pytest.raises(ExecutionError, match="closed"):
            view.sql("SELECT c FROM t")

    def test_same_state_shares_one_handle(self, durable):
        first = durable.snapshot()
        second = durable.snapshot()
        assert first.handle is second.handle
        assert first.handle.pins == 2
        first.close()
        second.close()
        assert first.handle.pins == 0

    def test_snapshot_explain(self, durable):
        with durable.snapshot() as view:
            assert "logical plan" in view.explain("SELECT c FROM t")

    def test_deferred_generation_gc(self, durable, tmp_path):
        durable.checkpoint()
        segments = tmp_path / "data" / "segments"
        old_files = set(os.listdir(segments))
        view = durable.snapshot()
        durable.sql("INSERT INTO t VALUES (4, 'd')")
        durable.checkpoint()
        # The pinned manifest's files survive the checkpoint that
        # superseded it.
        assert old_files <= set(os.listdir(segments))
        assert view.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        view.close()
        remaining = set(os.listdir(segments))
        assert old_files.isdisjoint(remaining)
        assert len(remaining) == 1

    def test_snapshot_catalog_carries_pinned_patchindexes(self, durable):
        durable.sql("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
        with durable.snapshot() as view:
            # The snapshot copies the index over its own tables — never
            # the live index, whose rowids track the moving state.
            snapshot_indexes = view.catalog.indexes_on("t")
            assert [index.name for index in snapshot_indexes] == ["pi"]
            assert snapshot_indexes[0] is not durable.catalog.index("pi")
            assert snapshot_indexes[0].delta_sink is None
            assert view.sql("SELECT COUNT(DISTINCT c) AS n FROM t").scalar() == 3

    def test_session_snapshot_reads_on_durable(self, durable):
        with durable.session(snapshot_reads=True) as session:
            assert session.snapshot_reads is True
            assert session.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
            session.sql("INSERT INTO t VALUES (4, 'd')")
            assert session.sql("SELECT COUNT(*) AS n FROM t").scalar() == 4
        assert durable.obs.counter("storage.snapshot.pins").value >= 2


    def test_every_spelling_of_explain_pins_exactly_once(self, durable):
        """``explain(q, analyze=True)`` executes *q*: on a snapshot
        session it must read a pinned snapshot, not the live tables a
        writer thread may be mutating."""
        from repro.serve import ServerClient, ServerThread

        query = "SELECT COUNT(*) AS n FROM t"
        pins = durable.obs.counter("storage.snapshot.pins")

        def pinned(run) -> int:
            before = pins.value
            run()
            return pins.value - before

        with durable.session(snapshot_reads=True) as session:
            assert pinned(lambda: session.explain(query)) == 1
            assert pinned(lambda: session.explain(query, analyze=True)) == 1
            assert pinned(lambda: session.sql("EXPLAIN ANALYZE " + query)) == 1
            assert "rows=" in session.explain(query, analyze=True)
        with ServerThread(durable) as server:
            with ServerClient(server.host, server.port) as client:
                assert pinned(lambda: client.explain(query)) == 1
                assert pinned(lambda: client.explain(query, analyze=True)) == 1
        with durable.session() as session:  # no snapshot reads: no pin
            assert pinned(lambda: session.explain(query, analyze=True)) == 0


class TestOneExplainPath:
    """``explain(q)`` is ``sql("EXPLAIN " + q)`` on every surface."""

    def test_explain_is_the_plan_column_of_the_statement(self, durable):
        query = "SELECT c, v FROM t WHERE c > 1 ORDER BY v DESC"
        expected = durable.sql("EXPLAIN " + query).text()
        assert durable.explain(query) == expected
        assert durable.explain("EXPLAIN " + query) == expected  # passes through
        with durable.session(snapshot_reads=True) as session:
            assert session.explain(query) == expected
        with durable.snapshot() as view:
            assert view.explain(query) == expected
        assert "== query profile ==" in durable.explain(query, analyze=True)

    def test_explain_of_a_write_is_a_bind_error_in_both_spellings(self, durable):
        from repro.errors import BindError

        write = "INSERT INTO t VALUES (9, 'z')"
        with durable.session(snapshot_reads=True) as session, durable.snapshot() as view:
            for surface in (durable, session, view):
                with pytest.raises(BindError, match="SELECT statements only"):
                    surface.explain(write)
                for prefix in ("EXPLAIN ", "EXPLAIN ANALYZE "):
                    with pytest.raises(BindError, match="SELECT statements only"):
                        surface.sql(prefix + write)
        assert durable.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3


class TestRetiredBackendKnob:
    def test_every_local_surface_rejects_the_keyword(self, durable):
        query = "SELECT c FROM t"
        with pytest.raises(TypeError):
            durable.session(backend="thread")
        with durable.session() as session, durable.snapshot() as view:
            for surface in (durable, session, view):
                with pytest.raises(TypeError):
                    surface.sql(query, backend="thread")
                with pytest.raises(TypeError):
                    surface.explain(query, backend="thread")

    def test_planner_keeps_the_one_name_the_frozen_bench_passes(self):
        from repro.errors import PlanError
        from repro.exec.parallel import shutdown_process_pool
        from repro.plan.physical import PhysicalPlanner

        PhysicalPlanner(parallelism=1, backend="thread", database=None)
        PhysicalPlanner(backend=None)
        with pytest.raises(PlanError, match="only backend"):
            PhysicalPlanner(backend="process")
        assert shutdown_process_pool() is None


class TestGroupCommit:
    def test_deferred_sync_batches_fsyncs(self, durable):
        wal = durable.wal
        with wal.deferred_sync():
            durable.sql("INSERT INTO t VALUES (10, 'x')")
            durable.sql("INSERT INTO t VALUES (11, 'y')")
        assert durable.obs.counter("wal.group_commit.batches").value == 1
        assert durable.obs.counter("wal.group_commit.records").value == 2

    def test_deferred_sync_is_reentrant(self, durable):
        wal = durable.wal
        with wal.deferred_sync():
            with wal.deferred_sync():
                durable.sql("INSERT INTO t VALUES (10, 'x')")
        assert durable.obs.counter("wal.group_commit.batches").value == 1

    def test_records_survive_reopen_after_deferred_sync(self, tmp_path):
        db = repro.connect(tmp_path / "gc")
        db.sql("CREATE TABLE t (c BIGINT)")
        with db.wal.deferred_sync():
            db.sql("INSERT INTO t VALUES (1)")
            db.sql("INSERT INTO t VALUES (2)")
        db.close()
        reopened = repro.connect(tmp_path / "gc")
        assert reopened.sql("SELECT COUNT(*) AS n FROM t").scalar() == 2
