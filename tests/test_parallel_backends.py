"""Cross-backend result parity and process-backend robustness.

Serial, thread-pool and process-pool execution of the same query must
return identical results on a durable memory-mapped database: process
workers attach the data directory read-only, memory-map the
checkpointed segments, replay the WAL data tail and rebuild shipped
PatchIndexes, so any divergence is a real bug, not noise.

The robustness half injects worker faults through
``repro.exec.parallel.procpool.FAULT_INJECTION``: a worker dying
mid-query (``os._exit``) or failing with an unpicklable error must not
hang the gather — each affected morsel retries serially, the
``parallel.worker_failures`` counter advances, and no shared-memory
block is leaked.
"""

import multiprocessing
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.cost_model import CostModel
from repro.errors import StorageError
from repro.exec.batch import RecordBatch
from repro.exec.parallel import procpool
from repro.exec.parallel.procpool import shutdown_process_pool
from repro.exec.parallel.shm import SHM_MIN_BYTES, attach_block, decode, encode
from repro.exec.result import collect
from repro.obs.profile import profile_collect
from repro.plan.optimizer import Optimizer
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.column import ColumnVector
from repro.storage.database import Database
from repro.storage.engine import DurableEngine
from repro.storage.schema import Field, Schema
from repro.types import DataType
from tests.test_query_fuzz import queries

#: Zeroed fan-out weights: every backend passes the cost gate, so the
#: 400-row fixture plans parallel without pretending to be 10M rows.
FORCE = CostModel(
    parallel_startup_weight=0,
    morsel_dispatch_weight=0,
    process_startup_weight=0,
    process_dispatch_weight=0,
)

_DB_CACHE: list[Database] = []
_DB_ROOT: list[str] = []


def backend_db() -> Database:
    """The fuzz fixture's twin on a durable mmap'd engine (cached).

    Same data as ``tests.test_query_fuzz.fuzz_db`` — a nearly-unique
    column, a nearly-sorted column, a category column, a column of
    magnitudes past 2**53, NULLs, two
    PatchIndexes and a join dimension — but checkpointed to a data
    directory mid-build so worker attaches exercise both the segment
    load and the WAL-tail replay (an update and an insert land after
    the checkpoint).
    """
    if not _DB_CACHE:
        root = tempfile.mkdtemp(prefix="backend_db_")
        rng = np.random.default_rng(77)
        n = 400
        unique = rng.permutation(n).astype(np.int64)
        unique[rng.choice(n, 8, replace=False)] = 7  # duplicates
        nearly_sorted = np.arange(n, dtype=np.int64)
        nearly_sorted[rng.choice(n, 8, replace=False)] = rng.integers(0, n, 8)
        category = rng.integers(0, 5, n).astype(np.int64)
        big = 2**53 + rng.permutation(n).astype(np.int64)
        db = Database(path=root, mmap=True, sync=False)
        schema = Schema(
            [
                Field("u", DataType.INT64),
                Field("s", DataType.INT64),
                Field("g", DataType.INT64),
                Field("b", DataType.INT64),
            ]
        )
        table = db.create_table("f", schema, partition_count=3, block_size=8)
        table.load_columns(
            {
                "u": ColumnVector(DataType.INT64, unique),
                "s": ColumnVector(DataType.INT64, nearly_sorted),
                "g": ColumnVector(DataType.INT64, category),
                "b": ColumnVector(DataType.INT64, big),
            },
            partition_by_round_robin_blocks=True,
        )
        for rowid in (5, 100):
            table.update_rowid(rowid, "u", None)
        db.sql("CHECKPOINT")
        # Past-checkpoint tail the worker attach must replay.
        table.update_rowid(300, "u", None)
        db.sql(
            f"INSERT INTO f VALUES (1000, 400, 2, {2**53 + 1000}), "
            "(1001, 401, 4, NULL)"
        )
        db.sql("CREATE PATCHINDEX fu ON f(u) TYPE UNIQUE")
        db.sql("CREATE PATCHINDEX fs ON f(s) TYPE SORTED")
        db.sql("CREATE TABLE dim (k BIGINT, label BIGINT)")
        dim_rows = ", ".join(f"({i}, {i * 10})" for i in range(0, n, 3))
        db.sql(f"INSERT INTO dim VALUES {dim_rows}")
        _DB_CACHE.append(db)
        _DB_ROOT.append(root)
    return _DB_CACHE[0]


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    shutdown_process_pool()
    if _DB_CACHE:
        _DB_CACHE.pop().close()
        shutil.rmtree(_DB_ROOT.pop(), ignore_errors=True)


def plan_query(
    db: Database,
    text: str,
    backend: str | None,
    parallelism: int = 4,
    morsel_size: int = 16,
):
    statement = parse_statement(text)
    logical = Binder(db.catalog).bind_select(statement)
    optimized = Optimizer(db.catalog).optimize(logical)
    return PhysicalPlanner(
        parallelism=parallelism,
        morsel_size=morsel_size,
        cost_model=FORCE,
        backend=backend,
        database=db,
    ).plan(optimized)


def run_query(db: Database, text: str, backend: str | None, **kwargs):
    return collect(plan_query(db, text, backend, **kwargs))


def assert_parity(query: str, reference, candidate) -> None:
    assert sorted(map(str, reference.to_pylist())) == sorted(
        map(str, candidate.to_pylist())
    ), query
    if "ORDER BY" in query and "GROUP BY" not in query:
        assert reference.to_pylist() == candidate.to_pylist(), query


def parallel_operators(operator) -> list:
    found = []

    def walk(node):
        if hasattr(node, "backend"):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(operator)
    return found


FIXED_CORPUS = [
    "SELECT u, s FROM f WHERE u < 100",
    "SELECT COUNT(DISTINCT u) AS n FROM f",
    "SELECT DISTINCT g FROM f",
    "SELECT g, SUM(s) AS total FROM f GROUP BY g ORDER BY g",
    "SELECT u FROM f ORDER BY u DESC",
    "SELECT s FROM f WHERE s BETWEEN 40 AND 200 ORDER BY s",
    "SELECT COUNT(*) AS n FROM f WHERE u IS NULL",
    "SELECT u, s FROM f WHERE (u < 50 OR s > 350)",
    "SELECT MIN(u) AS lo, MAX(s) AS hi, COUNT(*) AS n FROM f",
]


class TestBackendParity:
    def test_fixed_corpus(self):
        db = backend_db()
        for query in FIXED_CORPUS:
            serial = run_query(db, query, None, parallelism=1)
            threaded = run_query(db, query, "thread")
            processed = run_query(db, query, "process")
            assert_parity(query, serial, threaded)
            assert_parity(query, serial, processed)

    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_fuzz_corpus(self, query):
        db = backend_db()
        serial = run_query(db, query, None, parallelism=1)
        threaded = run_query(db, query, "thread")
        processed = run_query(db, query, "process")
        assert_parity(query, serial, threaded)
        assert_parity(query, serial, processed)

    def test_parity_under_spawn(self, monkeypatch):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        db = backend_db()
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        try:
            query = "SELECT COUNT(DISTINCT u) AS n FROM f"
            serial = run_query(db, query, None, parallelism=1)
            processed = run_query(db, query, "process")
            assert_parity(query, serial, processed)
            assert db.obs.counter("parallel.worker_failures").value == 0
        finally:
            # Do not leave a spawn pool behind for the other tests.
            shutdown_process_pool()

    def test_process_backend_is_labelled(self):
        db = backend_db()
        operator = plan_query(db, "SELECT DISTINCT g FROM f", "process")
        labels = [op.label() for op in parallel_operators(operator)]
        assert labels and all("backend=process" in label for label in labels)

    def test_memory_engine_falls_back_to_threads(self):
        memory_db = Database()
        schema = Schema([Field("u", DataType.INT64)])
        table = memory_db.create_table(
            "m", schema, partition_count=3, block_size=8
        )
        table.load_columns(
            {
                "u": ColumnVector(
                    DataType.INT64, np.arange(300, dtype=np.int64)
                )
            },
            partition_by_round_robin_blocks=True,
        )
        operator = plan_query(memory_db, "SELECT u FROM m", "process")
        parallel = parallel_operators(operator)
        assert parallel, "expected a thread-parallel plan"
        for op in parallel:
            assert op.backend is None
            assert "backend=process" not in op.label()
        serial = run_query(memory_db, "SELECT u FROM m", None, parallelism=1)
        fallback = run_query(memory_db, "SELECT u FROM m", "process")
        assert_parity("SELECT u FROM m", serial, fallback)


class TestWorkerFailures:
    def test_worker_death_retries_serially(self, monkeypatch):
        db = backend_db()
        monkeypatch.setattr(procpool, "FAULT_INJECTION", "exit")
        before = db.obs.counter("parallel.worker_failures").value
        retries_before = db.obs.counter("parallel.serial_retries").value
        query = "SELECT u FROM f ORDER BY u"
        serial = run_query(db, query, None, parallelism=1)
        survived = run_query(db, query, "process")
        assert_parity(query, serial, survived)
        assert db.obs.counter("parallel.worker_failures").value > before
        assert db.obs.counter("parallel.serial_retries").value > retries_before

    def test_unpicklable_error_retries_serially(self, monkeypatch):
        db = backend_db()
        monkeypatch.setattr(procpool, "FAULT_INJECTION", "unpicklable-error")
        before = db.obs.counter("parallel.worker_failures").value
        query = "SELECT COUNT(DISTINCT u) AS n FROM f"
        serial = run_query(db, query, None, parallelism=1)
        survived = run_query(db, query, "process")
        assert_parity(query, serial, survived)
        assert db.obs.counter("parallel.worker_failures").value > before

    def test_pool_recovers_after_death(self, monkeypatch):
        db = backend_db()
        monkeypatch.setattr(procpool, "FAULT_INJECTION", "exit")
        run_query(db, "SELECT DISTINCT g FROM f", "process")
        monkeypatch.setattr(procpool, "FAULT_INJECTION", None)
        failures = db.obs.counter("parallel.worker_failures").value
        query = "SELECT DISTINCT g FROM f"
        serial = run_query(db, query, None, parallelism=1)
        healthy = run_query(db, query, "process")
        assert_parity(query, serial, healthy)
        assert db.obs.counter("parallel.worker_failures").value == failures

    def test_stale_snapshot_falls_back_serially(self):
        db = backend_db()
        query = "SELECT COUNT(*) AS n FROM f WHERE s >= 0"
        expected = run_query(db, query, None, parallelism=1)
        operator = plan_query(db, query, "process")
        before = db.obs.counter("parallel.worker_failures").value
        # Mutate *after* planning: the transport's snapshot LSN is now
        # stale, so every worker attach refuses and the morsels rerun
        # serially.  The plan's morsel grid was fixed at planning time,
        # so the answer matches the plan-time snapshot, not the insert.
        # (Recycle the pool first: a warm worker could legitimately
        # serve the snapshot from its table cache without re-attaching.)
        db.sql("INSERT INTO f VALUES (2000, 402, 1, 5)")
        shutdown_process_pool()
        try:
            survived = collect(operator)
            assert_parity(query, expected, survived)
            assert db.obs.counter("parallel.worker_failures").value > before
        finally:
            db.sql("DELETE FROM f WHERE u = 2000")

    def test_no_shm_blocks_leaked(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        db = backend_db()
        run_query(db, "SELECT u, s, g FROM f", "process")
        # LIMIT closes the Exchange early: cancelled/running tasks must
        # reap their blocks instead of leaking them.
        run_query(db, "SELECT u FROM f LIMIT 3", "process")
        prefix = f"repro_{os.getpid()}_"
        leaked = [
            name for name in os.listdir("/dev/shm") if name.startswith(prefix)
        ]
        assert leaked == []


class TestShmTransport:
    def test_large_payload_roundtrips_via_shm(self):
        schema = Schema([Field("a", DataType.INT64)])
        values = np.arange(50_000, dtype=np.int64)
        validity = np.ones(50_000, dtype=bool)
        validity[7] = False
        rowids = np.arange(50_000, dtype=np.int64)
        batch = RecordBatch(
            schema,
            {"a": ColumnVector(DataType.INT64, values, validity)},
            rowids=rowids,
        )
        payload = encode([batch], "repro_shm_test_large")
        assert payload["transport"] == "shm"
        assert payload["shm_bytes"] >= SHM_MIN_BYTES
        out = decode(payload)
        assert len(out) == 1
        column = out[0].column("a")
        assert np.array_equal(column.values, values)
        assert column.validity is not None
        assert not bool(column.validity[7])
        assert np.array_equal(out[0].rowids, rowids)
        with pytest.raises(FileNotFoundError):
            attach_block("repro_shm_test_large")  # decode unlinked it

    def test_small_payload_falls_back_to_pickle(self):
        schema = Schema([Field("a", DataType.INT64)])
        batch = RecordBatch(
            schema, {"a": ColumnVector(DataType.INT64, np.arange(4))}
        )
        payload = encode([batch], "repro_shm_test_small")
        assert payload["transport"] == "pickle"
        out = decode(payload)
        assert np.array_equal(out[0].column("a").values, np.arange(4))

    def test_string_payload_falls_back_to_pickle(self):
        schema = Schema([Field("a", DataType.STRING)])
        values = np.array(["x" * 64] * 2048, dtype=object)
        batch = RecordBatch(
            schema, {"a": ColumnVector(DataType.STRING, values)}
        )
        payload = encode([batch], "repro_shm_test_ragged")
        assert payload["transport"] == "pickle"
        out = decode(payload)
        assert list(out[0].column("a").values) == list(values)

    def test_profile_reports_process_backend(self):
        db = backend_db()
        operator = plan_query(
            db, "SELECT u, s, g FROM f", "process", morsel_size=512
        )
        result, profile = profile_collect(operator, "parity profile")
        assert result.row_count == db.table("f").row_count
        details = [
            node.details
            for node in profile.root.walk()
            if node.details.get("backend") == "process"
        ]
        assert details, "profile lost the process backend"
        assert all("shm_bytes" in entry for entry in details)


class TestWorkerAttach:
    def test_attach_matches_coordinator_tables(self):
        db = backend_db()
        engine = db.engine
        assert isinstance(engine, DurableEngine)
        attached = engine.attach_tables(expected_lsn=db.wal.last_lsn)
        assert set(attached) == set(db.catalog.table_names())
        for name, worker_table in attached.items():
            live = db.table(name)
            assert worker_table.row_count == live.row_count
            for field in live.schema:
                ours = live.read_column(field.name)
                theirs = worker_table.read_column(field.name)
                assert np.array_equal(ours.values, theirs.values), (
                    name,
                    field.name,
                )
                assert np.array_equal(
                    ours.validity_or_all_true(),
                    theirs.validity_or_all_true(),
                ), (name, field.name)

    def test_attach_rejects_stale_lsn(self):
        db = backend_db()
        engine = db.engine
        assert isinstance(engine, DurableEngine)
        with pytest.raises(StorageError, match="LSN"):
            engine.attach_tables(expected_lsn=db.wal.last_lsn + 1)
