"""The plan cache: same answers as planning afresh, never a stale plan.

Every check compares what ``Database.sql`` / ``Session.sql`` did — with
the cache in the middle — against the pipeline called directly
(``Binder → Optimizer → PhysicalPlanner``), which has no cache.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import weakref

import pytest

import repro
from repro.check import plan_verifier
from repro.exec.result import collect
from repro.plan import cache as plan_cache
from repro.plan import physical
from repro.plan.explain import explain_both
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.lexer import parameterize, tokenize
from repro.sql.parser import parse_statement

ROWS = 600


def _populate(db) -> None:
    db.sql("CREATE TABLE t (k BIGINT, u BIGINT, s BIGINT, name VARCHAR) PARTITIONS 2")
    rows = ", ".join(
        f"({i}, {i if i % 50 else 7}, {i if i % 60 else 0}, 'n{i % 7}')"
        for i in range(ROWS)
    )
    db.sql(f"INSERT INTO t VALUES {rows}")
    db.sql("CREATE PATCHINDEX pi_u ON t(u) TYPE UNIQUE")


@pytest.fixture
def memory():
    db = repro.connect()
    _populate(db)
    return db


@pytest.fixture
def durable(tmp_path):
    db = repro.connect(tmp_path / "data", sync=False)
    _populate(db)
    db.checkpoint()
    yield db
    db.close()


def fresh(database, query, options=None):
    """EXPLAIN text and rows of *query* planned with no cache involved;
    *database* is a ``Database`` or a ``SnapshotView``."""
    catalog = database.catalog
    logical = Binder(catalog).bind_select(parse_statement(query))
    optimized = Optimizer(catalog, options).optimize(logical)
    operator = PhysicalPlanner(parallelism=1).plan(optimized)
    text = explain_both(optimized, operator, verified=True)
    return text, collect(operator).to_pylist()


def agrees_with_fresh(db, query, options=None) -> None:
    text, rows = fresh(db, query, options)
    assert db.explain(query, parallelism=1, optimizer_options=options) == text
    served = db.sql(query, parallelism=1, optimizer_options=options)
    assert served.to_pylist() == rows


def counters(db) -> dict[str, int]:
    exported = db.metrics().export()["counters"]
    return {
        name: int(exported.get(f"plan.cache.{name}", 0))
        for name in ("hits", "misses", "invalidations", "uncacheable")
    }


def moved(db, before) -> dict[str, int]:
    return {k: v - before[k] for k, v in counters(db).items() if v != before[k]}


POINT = "SELECT COUNT(*) AS n, SUM(u) AS x FROM t WHERE k BETWEEN {} AND {}"


class TestHitsAndMisses:
    def test_one_shape_many_literals(self, memory):
        before = counters(memory)
        for low in (0, 10, 250, 599, 700):
            query = POINT.format(low, low + 99)
            expected = len([i for i in range(ROWS) if low <= i <= low + 99])
            assert memory.sql(query).to_pylist()[0][0] == expected
            agrees_with_fresh(memory, query)
        # 5 x (sql, explain, sql): one miss, the rest hits, one entry
        assert moved(memory, before) == {"hits": 14, "misses": 1}
        assert len(memory.catalog.plan_cache) == 1

    def test_whitespace_case_and_comments_do_not_matter(self, memory):
        memory.sql("SELECT k FROM t WHERE k = 3")
        before = counters(memory)
        rows = memory.sql("select  K\nfrom T -- point\n where k=4").to_pylist()
        assert rows == [(4,)]
        assert moved(memory, before) == {"hits": 1}

    def test_string_literals_are_lifted(self, memory):
        query = "SELECT COUNT(*) AS n FROM t WHERE name = '{}'"
        memory.sql(query.format("n0"))
        before = counters(memory)
        agrees_with_fresh(memory, query.format("n3"))
        agrees_with_fresh(memory, query.format("it''s"))
        assert moved(memory, before) == {"hits": 4}

    def test_literal_type_is_part_of_the_shape(self, memory):
        before = counters(memory)
        agrees_with_fresh(memory, "SELECT k FROM t WHERE k = 5")
        agrees_with_fresh(memory, "SELECT k FROM t WHERE k = 5.0")
        assert moved(memory, before) == {"hits": 2, "misses": 2}
        with pytest.raises(repro.errors.ReproError):
            memory.sql("SELECT k FROM t WHERE k = 'five'")

    def test_optimizer_options_are_part_of_the_key(self, memory):
        query = "SELECT COUNT(DISTINCT u) AS n FROM t"
        off = OptimizerOptions(use_patch_indexes=False)
        forced = OptimizerOptions(always_rewrite=True)
        before = counters(memory)
        for options in (off, forced, off, forced):
            agrees_with_fresh(memory, query, options)
        assert moved(memory, before) == {"hits": 6, "misses": 2}
        assert "PatchSelect" in memory.explain(query, optimizer_options=forced)
        assert "PatchSelect" not in memory.explain(query, optimizer_options=off)

    def test_explain_shares_the_select_entry(self, memory):
        memory.sql(POINT.format(1, 2))
        before = counters(memory)
        plan = memory.sql("EXPLAIN " + POINT.format(100, 120)).text()
        assert "(k >= 100)" in plan and "(k <= 120)" in plan
        assert "plan_cache" not in plan  # plain EXPLAIN text is unchanged
        assert plan == memory.explain(POINT.format(100, 120))
        assert moved(memory, before) == {"hits": 2}

    def test_explain_analyze_and_profile_name_the_outcome(self, memory):
        query = "SELECT k FROM t WHERE k < 3"
        first = memory.sql("EXPLAIN ANALYZE " + query).text().splitlines()[1]
        again = memory.sql("EXPLAIN ANALYZE " + query).text().splitlines()[1]
        assert "plan_cache=miss" in first and "plan_cache=hit" in again
        profile = memory.sql(query, profile=True).profile
        assert profile.root.details["plan_cache"] == "hit"
        assert memory.sql(query).profile is None

    def test_fixed_size(self, memory):
        for width in range(plan_cache.CAPACITY + 20):
            columns = ", ".join(["k"] * (width + 1))
            memory.sql(f"SELECT {columns} FROM t WHERE k = 1")
        assert len(memory.catalog.plan_cache) == plan_cache.CAPACITY

    def test_every_execution_is_verified(self, memory, monkeypatch):
        verified = []

        def counting(operator):
            verified.append(operator)
            return plan_verifier.verify_plan(operator)

        monkeypatch.setattr(physical, "verify_plan", counting)
        for low in range(6):
            memory.sql(POINT.format(low, low + 5))
        memory.explain(POINT.format(1, 2))
        assert len(verified) == 7


class TestShapesThatCannotBeParameterized:
    """A lifted literal that does not come out of the optimizer as
    exactly one slotted ``Literal`` pins the entry to its exact text."""

    def test_folded_sign(self, memory):
        query = "SELECT COUNT(*) AS n FROM t WHERE k > -{}"
        before = counters(memory)
        agrees_with_fresh(memory, query.format(5))
        assert moved(memory, before) == {"hits": 1, "misses": 1, "uncacheable": 1}
        before = counters(memory)
        agrees_with_fresh(memory, query.format(6))  # other text: plans again
        assert moved(memory, before) == {"hits": 1, "misses": 1, "uncacheable": 1}

    def test_arithmetic_on_literals_is_not_folded_so_it_is_shared(self, memory):
        query = "SELECT k FROM t WHERE k = {} + {}"
        memory.sql(query.format(1, 2))
        before = counters(memory)
        assert memory.sql(query.format(40, 2)).to_pylist() == [(42,)]
        agrees_with_fresh(memory, query.format(7, 7))
        assert moved(memory, before) == {"hits": 3}

    def test_rewrite_duplicates_the_literal(self, memory):
        """The distinct rewrite copies the filter into both branches, so
        the one literal sits in the plan twice."""
        forced = OptimizerOptions(always_rewrite=True)
        query = "SELECT DISTINCT u FROM t WHERE k < {}"
        before = counters(memory)
        agrees_with_fresh(memory, query.format(100), forced)
        agrees_with_fresh(memory, query.format(200), forced)
        assert moved(memory, before) == {"hits": 2, "misses": 2, "uncacheable": 2}
        assert memory.explain(query.format(100), optimizer_options=forced).count(
            "(k < 100)"
        ) == 4  # two branches, logical and physical

    def test_in_list_values_are_consumed_by_the_parser(self, memory):
        query = "SELECT k FROM t WHERE k IN ({}, {})"
        before = counters(memory)
        agrees_with_fresh(memory, query.format(3, 5))
        agrees_with_fresh(memory, query.format(4, 6))
        assert moved(memory, before) == {"hits": 2, "misses": 2, "uncacheable": 2}

    def test_limit_and_offset_stay_in_the_shape(self, memory):
        query = "SELECT k FROM t WHERE k >= {} ORDER BY k LIMIT {} OFFSET {}"
        before = counters(memory)
        agrees_with_fresh(memory, query.format(10, 5, 0))
        agrees_with_fresh(memory, query.format(10, 6, 0))
        agrees_with_fresh(memory, query.format(10, 5, 1))
        assert moved(memory, before) == {"hits": 3, "misses": 3}
        before = counters(memory)
        assert memory.sql(query.format(20, 5, 1)).to_pylist() == [
            (k,) for k in range(21, 26)
        ]
        assert moved(memory, before) == {"hits": 1}

    def test_date_literals_stay_in_the_shape(self, memory):
        memory.sql("CREATE TABLE d (day DATE)")
        memory.sql("INSERT INTO d VALUES (DATE '2020-01-01'), (DATE '2020-01-02')")
        query = "SELECT COUNT(*) AS n FROM d WHERE day <= DATE '2020-01-0{}'"
        before = counters(memory)
        assert memory.sql(query.format(1)).to_pylist() == [(1,)]
        assert memory.sql(query.format(2)).to_pylist() == [(2,)]
        assert moved(memory, before) == {"misses": 2}

    def test_parameterize(self):
        key = parameterize(tokenize("SELECT a FROM t WHERE a = 5 AND b < 'x' LIMIT 3"))
        assert key.values == (5, "x", 3) and key.lifted == (0, 1)
        other = parameterize(tokenize("select a from t where a=9 and b<'yy' limit 3"))
        assert other.shape == key.shape
        assert parameterize(tokenize("SELECT a FROM t LIMIT 4")).lifted == ()
        shapes = {
            parameterize(tokenize(f"SELECT a FROM t WHERE a = {v}")).shape
            for v in ("5", "5.0", "'5'", "6")
        }
        assert len(shapes) == 3


MUTATIONS = {
    "insert": ["INSERT INTO t VALUES (5, 5, 5, 'again')"],
    "delete": ["DELETE FROM t WHERE k BETWEEN 3 AND 8"],
    "create patchindex": ["CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED"],
    "drop patchindex": ["DROP PATCHINDEX pi_u"],
    "drop and re-create the table": [
        "DROP TABLE t",
        "CREATE TABLE t (k BIGINT, u BIGINT, s BIGINT, name VARCHAR)",
        "INSERT INTO t VALUES (5, 50, 500, 'new')",
    ],
}
PROBES = [
    POINT.format(0, 20),
    "SELECT COUNT(DISTINCT u) AS n FROM t",
    "SELECT s FROM t WHERE k < 100 ORDER BY s",
    "SELECT k, u, s, name FROM t WHERE k = 5",
]


class TestNoStalePlanSurvives:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("engine", ["memory", "durable"])
    def test_live_catalog(self, mutation, engine, request):
        db = request.getfixturevalue(engine)
        for probe in PROBES:
            agrees_with_fresh(db, probe)
        for statement in MUTATIONS[mutation]:
            db.sql(statement)
        before = counters(db)
        for probe in PROBES:
            agrees_with_fresh(db, probe)
        change = moved(db, before)
        assert change["misses"] == len(PROBES) == change["invalidations"]
        assert change["hits"] == len(PROBES)

    @pytest.mark.parametrize("mutation", [*MUTATIONS, "checkpoint"])
    def test_snapshot_session(self, durable, mutation):
        """Served reads: every mutation, and a new generation, makes the
        next pin copy the catalog — and with it start an empty cache, so
        no plan of the old copy can be reused against the new one."""
        with durable.session(snapshot_reads=True) as session:
            for probe in PROBES:
                session.sql(probe)
            for statement in MUTATIONS.get(mutation, ["CHECKPOINT"]):
                durable.sql(statement)
            before = counters(durable)
            for probe in PROBES:
                with durable.snapshot() as view:
                    text, rows = fresh(view, probe)
                assert session.explain(probe, parallelism=1) == text
                assert session.sql(probe, parallelism=1).to_pylist() == rows
                assert rows == durable.sql(probe, parallelism=1).to_pylist()
            change = moved(durable, before)
            # per probe: the session plans once (explain misses, sql
            # hits) and so does the live database, which saw none before
            assert change["misses"] == 2 * len(PROBES)
            assert change["hits"] == len(PROBES)
            assert change.get("invalidations", 0) == 0

    def test_index_rebuild_is_a_maintenance_event(self, memory):
        query = "SELECT COUNT(DISTINCT u) AS n FROM t"
        agrees_with_fresh(memory, query)
        version = memory.table("t").data_version
        memory.catalog.index("pi_u").rebuild()
        assert memory.table("t").data_version == version + 1
        before = counters(memory)
        agrees_with_fresh(memory, query)
        assert moved(memory, before) == {"hits": 1, "misses": 1, "invalidations": 1}

    def test_plan_built_during_a_mutation_is_stale_after_it(self, memory):
        """``data_version`` advances after the listeners (the PatchIndex
        maintainers) ran, so whatever was planned while they were at
        work carries the old version."""
        query = "SELECT COUNT(DISTINCT u) AS n FROM t"
        table = memory.table("t")
        seen = []

        def plan_mid_mutation(event, payload):
            seen.append(table.data_version)
            memory.sql(query)

        table.add_listener(plan_mid_mutation)
        version = table.data_version
        memory.sql(f"INSERT INTO t VALUES ({ROWS + 1}, 1, 1, 'x')")
        table.remove_listener(plan_mid_mutation)
        assert seen == [version] and table.data_version > version
        before = counters(memory)
        agrees_with_fresh(memory, query)
        assert moved(memory, before) == {"hits": 1, "misses": 1, "invalidations": 1}

    def test_sortedness_proof_does_not_outlive_the_data(self, memory):
        """The join rewrite puts a MergeJoin over ``d`` because its
        zero-patch NSC index proves it sorted.  An insert that breaks
        the order must re-plan: were the cached plan reused, the
        MergeJoin's runtime ``check_sorted`` guard would fire."""
        memory.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
        memory.sql("CREATE TABLE d (dk BIGINT, w BIGINT)")
        memory.sql(
            "INSERT INTO d VALUES "
            + ", ".join(f"({i}, {i % 3})" for i in range(0, ROWS, 2))
        )
        memory.sql("CREATE PATCHINDEX pi_dk ON d(dk) TYPE SORTED")
        assert memory.catalog.index("pi_dk").patch_count == 0
        forced = OptimizerOptions(always_rewrite=True)
        query = "SELECT COUNT(*) AS n, SUM(d.w) AS sw FROM t JOIN d ON t.s = d.dk"
        assert "MergeJoin" in memory.explain(query, optimizer_options=forced)
        agrees_with_fresh(memory, query, forced)
        memory.sql("INSERT INTO d VALUES (1, 1)")
        before = counters(memory)
        assert "MergeJoin" not in memory.explain(query, optimizer_options=forced)
        agrees_with_fresh(memory, query, forced)
        assert moved(memory, before) == {"hits": 2, "misses": 1, "invalidations": 1}


class TestLifetime:
    def test_retired_handle_is_collected_with_its_plans(self, durable):
        with durable.snapshot() as view:
            for probe in PROBES:
                view.sql(probe)
            assert len(view.catalog.plan_cache) == len(PROBES)
            watched = [
                weakref.ref(view.handle),
                weakref.ref(view.catalog),
                weakref.ref(view.catalog.table("t")),
            ]
        del view
        durable.sql("INSERT INTO t VALUES (1, 1, 1, 'x')")
        durable.checkpoint()  # new generation: the old handle is retired
        with durable.snapshot() as view:
            view.sql(PROBES[0])
        del view
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]

    def test_readers_and_a_writer(self, durable):
        """Four readers share pinned handles (and so plan caches) while a
        writer appends; a fifth catalog — one frozen view — is hammered
        by all four with more shapes than the cache holds."""
        inserts = 40
        failures: list[str] = []
        done = threading.Event()

        def write() -> None:
            try:
                for i in range(inserts):
                    durable.sql(f"INSERT INTO t VALUES ({ROWS + i}, 0, 0, 'w')")
            except Exception as error:  # pragma: no cover - reported below
                failures.append(f"writer: {error!r}")
            finally:
                done.set()

        def read(seed: int, frozen) -> None:
            rng = random.Random(seed)
            try:
                with durable.session(snapshot_reads=True) as session:
                    while not done.is_set() or rng.random() < 0.5:
                        low = rng.randrange(ROWS)
                        n, = session.sql(
                            f"SELECT COUNT(*) AS n FROM t WHERE k >= {low}"
                        ).to_pylist()[0]
                        if not ROWS - low <= n <= ROWS - low + inserts:
                            failures.append(f"k >= {low} counted {n}")
                        width = rng.randrange(plan_cache.CAPACITY + 30)
                        columns = ", ".join(["k"] * (width + 1))
                        rows = frozen.sql(
                            f"SELECT {columns} FROM t WHERE k = {low}"
                        ).to_pylist()
                        if rows != [(low,) * (width + 1)]:
                            failures.append(f"frozen k = {low}: {rows}")
            except Exception as error:  # pragma: no cover - reported below
                failures.append(f"reader {seed}: {error!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with durable.snapshot() as frozen:
                threads = [threading.Thread(target=write)] + [
                    threading.Thread(target=read, args=(seed, frozen))
                    for seed in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert len(frozen.catalog.plan_cache) <= plan_cache.CAPACITY
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        total = durable.sql("SELECT COUNT(*) AS n FROM t").to_pylist()
        assert total == [(ROWS + inserts,)]
