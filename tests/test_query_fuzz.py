"""End-to-end fuzzing: random SQL against a table with PatchIndexes.

The strongest whole-system property: for any generated query, executing
with PatchIndex rewrites enabled (forced past the cost model) returns
the same multiset of rows as executing with rewrites disabled — and the
same *order* for ORDER BY queries.

A durable twin of the data — lazily decoded segments behind a log
tail, with the indexes created after both — answers every query as the
same data in memory does.

The last property covers the plan cache: every generated shape runs
with several literal sets on a memory database, a durable one and a
snapshot-reading session, and each execution must be indistinguishable
— EXPLAIN text, rows, row order — from planning it afresh; also between
writes that carry the patch rates across the rewrites' breakevens and
back, where the cache re-checks each plan's choices.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import Database
from repro.check import verify_plan
from repro.exec.operators.sort import SortKey
from repro.exec.result import collect
from repro.plan.explain import explain_both
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType
from tests.test_operators_sort import rule_key

_DB_CACHE: list[Database] = []


def fuzz_db() -> Database:
    """Build the shared fixture once (hypothesis-safe module cache)."""
    if not _DB_CACHE:
        _DB_CACHE.append(_populate(Database()))
    return _DB_CACHE[0]


def _populate(db: Database) -> Database:
    rng = np.random.default_rng(77)
    n = 400
    unique = rng.permutation(n).astype(np.int64)
    unique[rng.choice(n, 8, replace=False)] = 7  # duplicates
    nearly_sorted = np.arange(n, dtype=np.int64)
    nearly_sorted[rng.choice(n, 8, replace=False)] = rng.integers(0, n, 8)
    category = rng.integers(0, 5, n)
    # Past 2**53, where a float64 accumulator stops counting by ones.
    big = 2**53 + rng.permutation(n).astype(np.int64)
    # Near -2**62 and 2**62, where float64 keys turn neighbours into ties.
    wide = rng.integers(-3, 4, n) + rng.choice([-(2**62), 2**62], n)
    db.sql(
        "CREATE TABLE f (u BIGINT, s BIGINT, g BIGINT, b BIGINT, w BIGINT) "
        "PARTITIONS 3"
    )
    rows = ", ".join(
        f"({int(a)}, {int(b)}, {int(c)}, {int(d)}, {int(e)})"
        for a, b, c, d, e in zip(unique, nearly_sorted, category, big, wide)
    )
    db.sql(f"INSERT INTO f VALUES {rows}")
    for rowid in (5, 100, 300):  # sprinkle NULLs (maintained patches)
        db.table("f").update_rowid(rowid, "u", None)
    db.table("f").update_rowid(7, "b", None)
    for rowid in (2, 150, 151, 399):
        db.table("f").update_rowid(rowid, "w", None)
    db.sql("CREATE PATCHINDEX fu ON f(u) TYPE UNIQUE")
    db.sql("CREATE PATCHINDEX fs ON f(s) TYPE SORTED")
    add_dimensions(db, n)
    return db


def add_dimensions(db, n: int) -> None:
    """The join shape's two dimensions of an *n*-row ``f``: ``dim`` has
    unique keys; ``dup`` has keys in runs of three with NULLs between
    them, and fewer rows than ``f``, so the plain join builds on it, the
    rewrite's MergeJoin reads its runs and its patch-side HashJoin
    probes them."""
    db.sql("CREATE TABLE dim (k BIGINT, label BIGINT)")
    dim_rows = ", ".join(f"({i}, {i * 10})" for i in range(0, n, 3))
    db.sql(f"INSERT INTO dim VALUES {dim_rows}")
    db.sql("CREATE TABLE dup (k BIGINT, label BIGINT)")
    dup_rows = ", ".join(
        f"({'NULL' if i % 11 == 5 else i // 3 * 4}, {i})" for i in range(3 * n // 4)
    )
    db.sql(f"INSERT INTO dup VALUES {dup_rows}")


columns = st.sampled_from(["u", "s", "g"])
comparisons = st.sampled_from(["=", "<", "<=", ">", ">=", "<>"])


@st.composite
def predicates(draw):
    shape = draw(st.integers(0, 4))
    column = draw(columns)
    if shape == 0:
        op = draw(comparisons)
        value = draw(st.integers(-10, 410))
        return f"{column} {op} {value}"
    if shape == 1:
        low = draw(st.integers(0, 200))
        high = draw(st.integers(low, 400))
        return f"{column} BETWEEN {low} AND {high}"
    if shape == 2:
        values = draw(st.lists(st.integers(0, 400), min_size=1, max_size=4))
        return f"{column} IN ({', '.join(map(str, values))})"
    if shape == 3:
        negated = draw(st.booleans())
        return f"{column} IS {'NOT ' if negated else ''}NULL"
    left = draw(predicates())
    right = draw(predicates())
    connective = draw(st.sampled_from(["AND", "OR"]))
    return f"({left} {connective} {right})"


@st.composite
def queries(draw):
    shape = draw(st.integers(0, 6))
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    if shape == 6:
        # COUNT(DISTINCT) bare (its exclude branch is a PatchCount) or
        # under a range on the nearly sorted s, which prunes blocks
        # below the PatchSelects of both branches.
        column = draw(columns)
        if draw(st.booleans()):
            low = draw(st.integers(-10, 410))
            high = draw(st.integers(low, 420))
            where = f" WHERE s BETWEEN {low} AND {high}"
        else:
            where = ""
        return f"SELECT COUNT(DISTINCT {column}) AS n FROM f{where}"
    if shape == 5:
        if draw(st.booleans()):
            return f"SELECT SUM(b) AS total, COUNT(b) AS n FROM f{where}"
        return f"SELECT g, SUM(b) AS total FROM f{where} GROUP BY g ORDER BY g"
    if shape == 0:
        column = draw(columns)
        return f"SELECT DISTINCT {column} FROM f{where}"
    if shape == 1:
        column = draw(columns)
        return f"SELECT COUNT(DISTINCT {column}) AS n FROM f{where}"
    if shape == 2:
        column = draw(columns)
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        return f"SELECT {column} FROM f{where} ORDER BY {column} {direction}"
    if shape == 3:
        key = draw(st.sampled_from(["u", "s"]))
        dim = draw(st.sampled_from(["dim", "dup"]))
        join_where = ""
        if draw(st.booleans()):
            # A simple qualified predicate (joins need f. prefixes).
            column = draw(columns)
            op = draw(comparisons)
            value = draw(st.integers(-10, 410))
            join_where = f" WHERE f.{column} {op} {value}"
        join = f"FROM f JOIN {dim} ON f.{key} = {dim}.k{join_where}"
        # The label checks the build side: a probe row paired with the
        # wrong dimension row changes it, where COUNT(*) and f.g cannot.
        if draw(st.booleans()):
            return f"SELECT f.s, {dim}.label {join} ORDER BY f.s, {dim}.label"
        return (
            "SELECT COUNT(*) AS n, SUM(f.g) AS total, "
            f"SUM({dim}.label) AS labels {join}"
        )
    column = draw(columns)
    return (
        f"SELECT g, COUNT(*) AS n, MIN({column}) AS lo FROM f{where} "
        "GROUP BY g ORDER BY g"
    )


@st.composite
def ordered_queries(draw):
    """An ORDER BY over one or two keys, each in either direction, maybe
    filtered and maybe with a LIMIT.  It selects only its keys, so every
    path must return the same rows in the same order; also returned are
    the same statement without ORDER BY / LIMIT, the keys with their
    directions, and the limit."""
    names = draw(
        st.lists(
            st.sampled_from(["w", "s", "u", "g"]), min_size=1, max_size=2, unique=True
        )
    )
    keys = [SortKey(name, draw(st.booleans())) for name in names]
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    limit = draw(st.one_of(st.none(), st.integers(0, 30)))
    unordered = f"SELECT {', '.join(names)} FROM f{where}"
    query = f"{unordered} ORDER BY {', '.join(map(str, keys))}"
    if limit is not None:
        query += f" LIMIT {limit}"
    return query, unordered, keys, limit


class TestFuzz:
    @given(queries())
    @settings(max_examples=150, deadline=None)
    def test_rewrites_preserve_semantics(self, query):
        db = fuzz_db()
        plain = db.sql(
            query, optimizer_options=OptimizerOptions(use_patch_indexes=False)
        )
        patched = db.sql(
            query, optimizer_options=OptimizerOptions(always_rewrite=True)
        )
        assert sorted(map(str, plain.to_pylist())) == sorted(
            map(str, patched.to_pylist())
        ), query
        if "ORDER BY" in query and "GROUP BY" not in query:
            assert plain.to_pylist() == patched.to_pylist(), query

    @given(ordered_queries())
    @settings(max_examples=80, deadline=None)
    def test_order_by_same_rows_on_every_path(self, drawn):
        """Rewrite off and forced, in batches of 16 rows and of the
        default size, all return Python ``sorted`` order."""
        query, unordered, keys, limit = drawn
        db = fuzz_db()
        rows = db.sql(unordered).to_pylist()
        for position, key in reversed(list(enumerate(keys))):
            rows = sorted(
                rows,
                key=lambda row: rule_key(row[position]),
                reverse=not key.ascending,
            )
        expected = rows if limit is None else rows[:limit]
        logical = Binder(db.catalog).bind_select(parse_statement(query))
        for options in (
            OptimizerOptions(use_patch_indexes=False),
            OptimizerOptions(always_rewrite=True),
        ):
            optimized = Optimizer(db.catalog, options).optimize(logical)
            for batch_size in (16, None):
                planner = (
                    PhysicalPlanner(batch_size=batch_size)
                    if batch_size
                    else PhysicalPlanner()
                )
                got = collect(planner.plan(optimized)).to_pylist()
                assert got == expected, (query, options, batch_size)

    @given(st.integers(0, 400), st.integers(0, 400), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_big_magnitude_sums_match_python(self, low, high, rewrite):
        db = fuzz_db()
        options = OptimizerOptions(
            use_patch_indexes=rewrite, always_rewrite=rewrite
        )
        kept = [
            (g, b)
            for s, g, b in db.sql("SELECT s, g, b FROM f").to_pylist()
            if low <= s <= high and b is not None
        ]
        where = f"WHERE s BETWEEN {low} AND {high}"
        scalar = db.sql(
            f"SELECT SUM(b) AS total, COUNT(b) AS n FROM f {where}",
            optimizer_options=options,
        )
        total = sum(b for __, b in kept) if kept else None
        assert scalar.to_pylist() == [(total, len(kept))]
        grouped = db.sql(
            f"SELECT g, SUM(b) AS total FROM f {where} AND b IS NOT NULL "
            "GROUP BY g ORDER BY g",
            optimizer_options=options,
        )
        assert grouped.to_pylist() == [
            (key, sum(b for g, b in kept if g == key))
            for key in sorted({g for g, __ in kept})
        ]

    @given(queries())
    @settings(max_examples=60, deadline=None)
    def test_every_generated_plan_verifies(self, query):
        """Plain and rewritten plans both satisfy the plan invariants.

        The planner already verifies every plan it emits; this calls
        :func:`repro.check.verify_plan` explicitly so a verifier
        regression fails here with the offending query attached, not
        deep inside an unrelated semantics assertion.
        """
        db = fuzz_db()
        statement = parse_statement(query)
        logical = Binder(db.catalog).bind_select(statement)
        for options in (
            OptimizerOptions(use_patch_indexes=False),
            OptimizerOptions(always_rewrite=True),
        ):
            optimized = Optimizer(db.catalog, options).optimize(logical)
            operator = PhysicalPlanner().plan(optimized)
            properties = verify_plan(operator)
            assert properties.schema.names == operator.schema.names, query


def _build_twin(db: Database) -> Database:
    """Data like :func:`fuzz_db`'s, with no ``w`` column, its 8-row
    blocks dealt out to the partitions in turn, checkpointed mid-build: on a durable
    engine the reads decode segment blocks *and* rows that only the log
    tail holds (an update and an insert after the checkpoint, the
    indexes after both)."""
    rng = np.random.default_rng(77)
    n = 400
    unique = rng.permutation(n).astype(np.int64)
    unique[rng.choice(n, 8, replace=False)] = 7  # duplicates
    nearly_sorted = np.arange(n, dtype=np.int64)
    nearly_sorted[rng.choice(n, 8, replace=False)] = rng.integers(0, n, 8)
    category = rng.integers(0, 5, n).astype(np.int64)
    big = 2**53 + rng.permutation(n).astype(np.int64)
    schema = Schema([Field(name, DataType.INT64) for name in "usgb"])
    table = db.create_table("f", schema, partition_count=3, block_size=8)
    # Block b goes to partition b % 3: the range split then keeps each
    # partition's blocks apart in the original order.
    dealt = np.argsort(np.arange(n) // 8 % 3, kind="stable")
    table.load_columns(
        {
            name: ColumnVector(DataType.INT64, values[dealt])
            for name, values in zip("usgb", (unique, nearly_sorted, category, big))
        }
    )
    for rowid in (5, 100):
        table.update_rowid(rowid, "u", None)
    db.sql("CHECKPOINT")
    table.update_rowid(300, "u", None)
    db.sql(
        f"INSERT INTO f VALUES (1000, 400, 2, {2**53 + 1000}), (1001, 401, 4, NULL)"
    )
    db.sql("CREATE PATCHINDEX fu ON f(u) TYPE UNIQUE")
    db.sql("CREATE PATCHINDEX fs ON f(s) TYPE SORTED")
    add_dimensions(db, n)
    return db


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """:func:`_build_twin` in memory and on a durable engine."""
    durable = _build_twin(
        repro.connect(tmp_path_factory.mktemp("twin") / "data", sync=False)
    )
    yield _build_twin(Database()), durable
    durable.close()


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
    "SELECT g, COUNT(*) AS n, SUM(b) AS total FROM f "
    "WHERE s BETWEEN 40 AND 200 GROUP BY g",
    "SELECT u, s, b, g FROM f WHERE g <> 1 ORDER BY g",
]


def assert_same_answer(twins, query):
    memory, durable = (db.sql(query).to_pylist() for db in twins)
    assert memory == durable, query


class TestDurableParity:
    def test_fixed_corpus(self, twins):
        for query in FIXED_CORPUS:
            assert_same_answer(twins, query)

    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_fuzz_corpus(self, twins, query):
        assert_same_answer(twins, query)


@st.composite
def literal_sets(draw):
    """One generated query and two more of the same shape: every integer
    literal redrawn (a sign in front of one stays where it is)."""
    query = draw(queries())
    redrawn = [
        re.sub(r"\d+", lambda _: str(draw(st.integers(0, 410))), query)
        for _ in range(2)
    ]
    return [query, *redrawn]


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """The fuzz data three ways: in memory, durable (checkpointed, so
    reads decode segments), and through a snapshot-reading session."""
    durable = _populate(
        repro.connect(tmp_path_factory.mktemp("fuzz") / "data", sync=False)
    )
    durable.checkpoint()
    session = durable.session(snapshot_reads=True)
    yield {"memory": fuzz_db(), "durable": durable, "snapshot": session}
    session.close()
    durable.close()


def _fresh(database, query, options):
    """EXPLAIN text and rows from the pipeline called directly."""
    logical = Binder(database.catalog).bind_select(parse_statement(query))
    optimized = Optimizer(database.catalog, options).optimize(logical)
    operator = PhysicalPlanner().plan(optimized)
    return (
        explain_both(optimized, operator, verified=True),
        collect(operator).to_pylist(),
    )


@pytest.fixture(scope="module")
def written_engines(tmp_path_factory):
    """:func:`engines` over data of their own, which the writes change."""
    durable = _populate(
        repro.connect(tmp_path_factory.mktemp("written") / "data", sync=False)
    )
    durable.checkpoint()
    session = durable.session(snapshot_reads=True)
    yield {"memory": _populate(Database()), "durable": durable, "snapshot": session}
    session.close()
    durable.close()


#: Duplicate ``u`` and descending ``s`` rows (``b = 1`` marks them) that
#: carry fu's and fs's patch rates past the breakevens of the filtered
#: rewrites, one more row on the same side, and the delete that carries
#: them back.
CROSSING_WRITES = [
    "INSERT INTO f VALUES "
    + ", ".join(f"(7, {-i}, {i % 5}, 1, 0)" for i in range(400)),
    "INSERT INTO f VALUES (7, -1000, 0, 1, 0)",
    "DELETE FROM f WHERE b = 1",
]
#: Reads whose gate those writes flip: rewritten, refused twice, again.
GATED_READS = [
    "SELECT COUNT(DISTINCT u) AS n FROM f WHERE g = 3",
    "SELECT s FROM f WHERE g < 3 ORDER BY s",
]


class TestPlanCacheFuzz:
    @given(literal_sets())
    @settings(max_examples=12, deadline=None)
    def test_writes_between_reads_equal_fresh_planning(
        self, written_engines, variants
    ):
        queries = [*GATED_READS, *variants[:2]]
        rewritten = []
        for write in [None, *CROSSING_WRITES]:
            if write is not None:
                written_engines["memory"].sql(write)
                written_engines["durable"].sql(write)
            for options in (None, OptimizerOptions(always_rewrite=True)):
                for query in queries:
                    answers = []
                    for name, engine in written_engines.items():
                        if name == "snapshot":
                            with written_engines["durable"].snapshot() as view:
                                text, rows = _fresh(view, query, options)
                        else:
                            text, rows = _fresh(engine, query, options)
                        knobs = dict(optimizer_options=options)
                        assert engine.explain(query, **knobs) == text, (name, query)
                        assert engine.sql(query, **knobs).to_pylist() == rows, (
                            name,
                            query,
                        )
                        answers.append(rows)
                    assert answers[0] == answers[1] == answers[2], query
            rewritten.append(
                ["PatchSelect" in written_engines["memory"].explain(query)
                 for query in GATED_READS]
            )
        assert rewritten == [[True, True], [False, False], [False, False], [True, True]]

    @given(literal_sets())
    @settings(max_examples=80, deadline=None)
    def test_cached_execution_equals_fresh_planning(self, engines, variants):
        for options in (
            OptimizerOptions(use_patch_indexes=False),
            OptimizerOptions(always_rewrite=True),
        ):
            for query in variants:
                answers = []
                for name, engine in engines.items():
                    if name == "snapshot":
                        with engines["durable"].snapshot() as view:
                            text, rows = _fresh(view, query, options)
                    else:
                        text, rows = _fresh(engine, query, options)
                    knobs = dict(optimizer_options=options)
                    assert engine.explain(query, **knobs) == text, (name, query)
                    assert engine.sql(query, **knobs).to_pylist() == rows, (
                        name,
                        query,
                    )
                    answers.append(rows)
                assert answers[0] == answers[1] == answers[2], query
