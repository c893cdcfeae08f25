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
from repro.exec import result as result_module
from repro.exec.result import collect
from repro.plan import cache as plan_cache
from repro.plan import physical
from repro.plan.explain import explain_both
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql import session as session_module
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
    operator = PhysicalPlanner().plan(optimized)
    text = explain_both(optimized, operator, verified=True)
    return text, collect(operator).to_pylist()


def agrees_with_fresh(db, query, options=None) -> None:
    text, rows = fresh(db, query, options)
    assert db.explain(query, optimizer_options=options) == text
    served = db.sql(query, optimizer_options=options)
    assert served.to_pylist() == rows


def counters(db) -> dict[str, int]:
    exported = db.metrics().export()["counters"]
    return {
        name: int(exported.get(f"plan.cache.{name}", 0))
        for name in (
            "hits", "misses", "invalidations", "uncacheable",
            "rechecks", "recheck_failed",
        )
    }


def tree_counters(db) -> dict[str, int]:
    exported = db.metrics().export()["counters"]
    return {
        name: int(exported.get(f"plan.cache.{name}", 0))
        for name in ("tree_builds", "tree_reuses")
    }


def moved_trees(db, before) -> dict[str, int]:
    return {k: v - before[k] for k, v in tree_counters(db).items()}


def idle_trees(db) -> list:
    """The trees idle in the slots of *db*'s catalog's plan cache."""
    return [
        tree
        for entry in db.catalog.plan_cache._entries.values()
        for tree in entry.idle
    ]


def refused_sorts(db) -> int:
    return int(db.metrics().export()["counters"].get("plan.rewrite_refused.sort", 0))


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
        memory.sql("INSERT INTO t VALUES (1, 1, 1, 'x')")
        written = memory.sql("EXPLAIN ANALYZE " + query).text().splitlines()[1]
        assert "plan_cache=recheck" in written

    def test_fixed_size(self, memory):
        for width in range(plan_cache.CAPACITY + 20):
            columns = ", ".join(["k"] * (width + 1))
            memory.sql(f"SELECT {columns} FROM t WHERE k = 1")
        assert len(memory.catalog.plan_cache) == plan_cache.CAPACITY

    def test_every_tree_that_runs_was_verified_when_built(
        self, memory, monkeypatch
    ):
        """A hit reruns its entry's tree without verifying it again, so
        the verifier runs once per tree, not per execution: every root
        that runs is one it passed when the planner built it."""
        verified, ran = [], []

        def counting(operator):
            verified.append(operator)
            return plan_verifier.verify_plan(operator)

        def running(operator):
            ran.append(operator)
            return collect(operator)

        monkeypatch.setattr(physical, "verify_plan", counting)
        monkeypatch.setattr(session_module, "collect", running)
        monkeypatch.setattr(result_module, "collect", running)
        before = tree_counters(memory)
        for low in range(6):
            memory.sql(POINT.format(low, low + 5))
        memory.sql(POINT.format(1, 2), profile=True)
        memory.explain(POINT.format(1, 2))
        memory.sql("EXPLAIN ANALYZE " + POINT.format(3, 4))
        assert len(ran) == 8
        assert all(any(root is tree for tree in verified) for root in ran)
        # One tree serves the six plain runs; the profiled run and both
        # EXPLAINs build, verify (and drop) trees of their own.
        assert len({id(root) for root in ran[:6]}) == 1
        assert len(verified) == 4
        assert moved_trees(memory, before) == {"tree_builds": 4, "tree_reuses": 5}

    def test_a_pooled_tree_verifies_the_same_under_every_binding(self, memory):
        """The verifier reads nothing a binding changes: one tree, many
        values, the same proven properties every time."""
        memory.sql(POINT.format(0, 1))
        memory.sql(POINT.format(0, 1))
        [tree] = idle_trees(memory)
        tree.bind(memory.catalog)
        proven = plan_verifier.verify_plan(tree.root)
        for low in (0, 7, 599, -5, 10**6):
            tree.parameters.values = (low, low + 9)
            assert plan_verifier.verify_plan(tree.root) == proven
        tree.parameters.values = ()  # nothing to read: still the same
        assert plan_verifier.verify_plan(tree.root) == proven


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
        assert change["hits"] == len(PROBES)
        if mutation in ("insert", "delete"):
            # A write re-checks each plan's choices, and they held.
            assert change == {"hits": len(PROBES), "rechecks": len(PROBES)}
        else:
            # DDL retires every template: each probe plans afresh.
            assert change["misses"] == len(PROBES) == change["invalidations"]
            assert "rechecks" not in change

    @pytest.mark.parametrize("mutation", [*MUTATIONS, "checkpoint"])
    def test_snapshot_session(self, durable, mutation):
        """Served reads: every mutation, and a new generation, makes the
        next pin copy the catalog.  The copy reads through the database's
        one cache: a write's new versions re-check each shape once, DDL
        re-plans it, and a checkpoint, which changes no version, hits."""
        with durable.session(snapshot_reads=True) as session:
            for probe in PROBES:
                session.sql(probe)
            for statement in MUTATIONS.get(mutation, ["CHECKPOINT"]):
                durable.sql(statement)
            before = counters(durable)
            for probe in PROBES:
                with durable.snapshot() as view:
                    text, rows = fresh(view, probe)
                assert session.explain(probe) == text
                assert session.sql(probe).to_pylist() == rows
                assert rows == durable.sql(probe).to_pylist()
            change = moved(durable, before)
            # per probe: the session's EXPLAIN on its new copy re-checks
            # the entry after a write, re-plans after DDL and hits after
            # a checkpoint; its SELECT and the live database's then hit
            write = mutation in ("insert", "delete")
            ddl = not write and mutation != "checkpoint"
            assert change["hits"] == (2 if write or ddl else 3) * len(PROBES)
            assert change.get("rechecks", 0) == (len(PROBES) if write else 0)
            assert change.get("misses", 0) == (len(PROBES) if ddl else 0)
            assert change.get("invalidations", 0) == change.get("misses", 0)
            assert "recheck_failed" not in change

    def test_index_rebuild_is_a_maintenance_event(self, memory):
        query = "SELECT COUNT(DISTINCT u) AS n FROM t"
        agrees_with_fresh(memory, query)
        version = memory.table("t").data_version
        memory.catalog.index("pi_u").rebuild()
        assert memory.table("t").data_version == version + 1
        before = counters(memory)
        agrees_with_fresh(memory, query)
        assert moved(memory, before) == {"hits": 1, "rechecks": 1}

    def test_plan_built_during_a_mutation_is_stale_after_it(self, memory):
        """``data_version`` advances after the listeners (the PatchIndex
        maintainers) ran, so whatever was planned while they were at
        work carries the old version and is re-checked after it."""
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
        assert moved(memory, before) == {"hits": 1, "rechecks": 1}

    def test_sortedness_proof_does_not_outlive_the_data(self, memory):
        """The join rewrite puts a MergeJoin over ``d`` because its
        zero-patch NSC index proves it sorted.  An insert that breaks
        the order gives the index a patch, so the re-check fails and the
        query re-plans: were the cached plan reused, the MergeJoin's
        runtime order check would fire."""
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
        assert moved(memory, before) == {"hits": 2, "misses": 1, "recheck_failed": 1}

    def test_a_directly_read_order_does_not_outlive_the_data(self, memory):
        """With no index on ``d``, the join rewrite learns that ``d`` is
        sorted by reading its column, so the plan holds only while ``d``
        is unchanged: a write to ``t`` re-checks, one to ``d`` re-plans."""
        memory.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
        memory.sql("CREATE TABLE d (dk BIGINT, w BIGINT)")
        memory.sql(
            "INSERT INTO d VALUES "
            + ", ".join(f"({i}, {i % 3})" for i in range(0, ROWS, 2))
        )
        forced = OptimizerOptions(always_rewrite=True)
        query = "SELECT COUNT(*) AS n, SUM(d.w) AS sw FROM t JOIN d ON t.s = d.dk"
        agrees_with_fresh(memory, query, forced)
        assert "MergeJoin" in memory.explain(query, optimizer_options=forced)
        memory.sql("INSERT INTO t VALUES (7, 7, 7, 'x')")
        before = counters(memory)
        agrees_with_fresh(memory, query, forced)
        assert moved(memory, before) == {"hits": 1, "rechecks": 1}
        memory.sql("INSERT INTO d VALUES (1, 1)")
        before = counters(memory)
        assert "MergeJoin" not in memory.explain(query, optimizer_options=forced)
        agrees_with_fresh(memory, query, forced)
        assert moved(memory, before) == {"hits": 2, "misses": 1, "recheck_failed": 1}

    def test_a_gate_that_crosses_its_breakeven_re_plans(self, memory):
        """Unsorted inserts carry the NSC's patch rate past the sort
        rewrite's breakeven (0.15) and a delete carries it back: each
        crossing fails the re-check, each write inside a side passes,
        and a refusal counts once per plan built, not per re-check."""
        memory.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
        query = "SELECT s FROM t WHERE k >= 0 ORDER BY s"
        agrees_with_fresh(memory, query)
        assert "MergeUnion" in memory.explain(query)
        steps = [
            ("INSERT INTO t VALUES (1000, 1, 1, 'x')", "rechecks", True),
            (
                "INSERT INTO t VALUES "
                + ", ".join(f"({2000 + i}, 0, {-i}, 'y')" for i in range(150)),
                "recheck_failed",
                False,
            ),
            ("INSERT INTO t VALUES (3000, 2, -9999, 'z')", "rechecks", False),
            ("DELETE FROM t WHERE k >= 2000", "recheck_failed", True),
        ]
        refusals = []
        for write, outcome, rewritten in steps:
            memory.sql(write)
            before = counters(memory)
            refused = refused_sorts(memory)
            agrees_with_fresh(memory, query)
            assert ("MergeUnion" in memory.explain(query)) is rewritten, write
            assert moved(memory, before)[outcome] == 1, write
            refusals.append(refused_sorts(memory) - refused)
        assert refusals == [0, 1, 0, 0]

    def test_a_new_pin_after_an_insert_rechecks(self, durable):
        """The served read after a write: a new copy, the same plan."""
        query = POINT.format(0, 20)
        with durable.session(snapshot_reads=True) as session:
            session.sql(query)
            durable.sql("INSERT INTO t VALUES (5, 5, 5, 'again')")
            before = counters(durable)
            profile = session.sql(POINT.format(3, 30), profile=True).profile
            assert profile.root.details["plan_cache"] == "recheck"
            assert moved(durable, before) == {"rechecks": 1}
            # The pin and the live database are at the same versions now.
            assert session.sql(query).to_pylist() == durable.sql(query).to_pylist()
            assert moved(durable, before) == {"rechecks": 1, "hits": 2}


class TestOneCachePerDatabase:
    def test_a_pin_after_a_checkpoint_reuses_each_tree(self, durable):
        """A checkpoint changes no version: the new pin's first read of
        each shape is a hit that reruns the tree verified before it."""
        with durable.session(snapshot_reads=True) as session:
            for probe in PROBES:
                session.sql(probe)
            session.sql("CHECKPOINT")
            before, trees = counters(durable), tree_counters(durable)
            for probe in PROBES:
                assert session.sql(probe).to_pylist() == fresh(durable, probe)[1]
        assert moved(durable, before) == {"hits": len(PROBES)}
        assert moved_trees(durable, trees) == {
            "tree_builds": 0, "tree_reuses": len(PROBES)
        }

    def test_a_tree_verified_on_one_copy_serves_another(self, durable):
        """Bound to another copy at the same versions, a tree proves the
        same properties and returns what a fresh plan returns."""
        cache = durable.catalog.plan_cache

        def proven(catalog) -> dict:
            found = {}
            for key, entry in list(cache._entries.items()):
                tree = cache.take_tree(entry, entry.versions, catalog)
                found[key] = (tree.root, plan_verifier.verify_plan(tree.root))
                cache.put_tree(entry, tree)
            return found

        with durable.snapshot() as first:
            for probe in PROBES:
                first.sql(probe)
            assert first.catalog.plan_cache is cache
            before = proven(first.catalog)
        durable.checkpoint()
        with durable.snapshot() as second:
            assert second.catalog is not first.catalog
            assert proven(second.catalog) == before
            trees = tree_counters(durable)
            for probe in PROBES:
                assert second.sql(probe).to_pylist() == fresh(second, probe)[1]
            assert moved_trees(durable, trees)["tree_reuses"] == len(PROBES)


    def test_a_tree_is_pooled_only_at_its_entrys_versions(self, durable):
        """A pin's reader holds the tree while a read at newer versions
        re-checks the entry: the held tree, verified at the old versions,
        does not go back, and no reader at the old versions takes the
        new one."""
        query = POINT.format(0, 20)
        cache = durable.catalog.plan_cache
        with durable.snapshot() as old:
            old.sql(query)
            [entry] = cache._entries.values()
            held = cache.take_tree(entry, entry.versions, old.catalog)
            durable.sql("INSERT INTO t VALUES (5, 5, 5, 'again')")
            assert durable.sql(query).to_pylist() == fresh(durable, query)[1]
            current = cache.take_tree(entry, entry.versions, durable.catalog)
            assert held.versions != current.versions == entry.versions
            cache.put_tree(entry, held)
            assert entry.idle == []
            cache.put_tree(entry, current)
            assert cache.take_tree(entry, held.versions, old.catalog) is None
            assert entry.idle == [current]

    def test_an_older_pin_leaves_the_newer_tree_in_place(self, memory):
        """Reads on a pin taken before a write alternate with live ones:
        the pin re-checks and builds a tree of its own each time, and
        the entry keeps the live versions and tree."""
        query = POINT.format(0, 20)
        memory.sql(query)
        with memory.snapshot() as old:
            memory.sql("INSERT INTO t VALUES (5, 5, 5, 'again')")
            memory.sql(query)
            before, trees = counters(memory), tree_counters(memory)
            for _ in range(5):
                assert old.sql(query).to_pylist() == fresh(old, query)[1]
                assert memory.sql(query).to_pylist() == fresh(memory, query)[1]
        assert moved(memory, before) == {"rechecks": 5, "hits": 5}
        assert moved_trees(memory, trees) == {"tree_builds": 5, "tree_reuses": 5}


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
