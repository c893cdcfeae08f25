"""Morsel-driven parallel execution: dispatch, pool, equivalence.

Every parallel plan must be byte-identical to its serial counterpart —
partials gathered in morsel (= rowid) order, stable pairwise merges, and
two-phase aggregation that preserves the serial group order and adds
integers exactly.  Only three shapes fan out — DISTINCT, ORDER BY and
aggregation directly over a scan pipeline; the shape table pins which
operator every other statement shape plans.  The tests force parallel
plans on small tables with a small ``morsel_size``: the gate fans out a
pipeline of at least two morsels that hands its terminal more than
``morsel_size`` rows, so at the default size such tables stay serial
(checked too, with the gate itself).

The durable half runs a fixed corpus and the query fuzzer's statements
serially and on the thread pool against a checkpointed-then-indexed
database — PatchSelect in both modes, block-pruned scans
and the ordered gather over lazily decoded segments plus a WAL tail —
and a subprocess checks that nothing on that path starts a process.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro.errors import PlanError, StorageError
from repro.exec.operators import (
    Distinct,
    HashAggregate,
    PatchSelect,
    PatchSelectMode,
    Sort,
    TableScan,
)
from repro.exec.operators.aggregate import AggregateSpec
from repro.exec.operators.sort import SortKey
from repro.exec.parallel import (
    DEFAULT_MORSEL_SIZE,
    BatchSource,
    Morsel,
    ParallelAggregate,
    ParallelDistinct,
    ParallelSort,
    default_parallelism,
    morsels_for_table,
)
from repro.exec.result import collect
from repro.plan.optimizer import Optimizer
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnVector
from repro.storage.database import Database
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType
from tests.test_query_fuzz import add_dimensions, queries


def make_table(n=100, partition_count=3, block_size=8, name="t"):
    return Table.from_pydict(
        name,
        Schema([Field("x", DataType.INT64)]),
        {"x": list(range(n))},
        partition_count=partition_count,
        block_size=block_size,
    )


def covered_rowids(morsels):
    out = []
    for morsel in morsels:
        for start, stop in morsel.ranges:
            out.extend(range(start, stop))
    return out


class TestMorselDispatch:
    def test_full_table_covers_every_rowid_exactly_once(self):
        table = make_table(n=100, partition_count=3, block_size=8)
        morsels = morsels_for_table(table, None, morsel_size=16)
        rowids = covered_rowids(morsels)
        assert rowids == list(range(100))  # in order, no dup, no split

    def test_morsels_never_cross_partitions(self):
        table = make_table(n=90, partition_count=4, block_size=4)
        morsels = morsels_for_table(table, None, morsel_size=1 << 30)
        partition_ranges = [p.rowid_range for p in table.partitions]
        for morsel in morsels:
            lo = morsel.ranges[0][0]
            hi = morsel.ranges[-1][1]
            assert any(
                p_start <= lo and hi <= p_stop
                for p_start, p_stop in partition_ranges
            )
        # One morsel per partition when the size cap never triggers.
        assert len(morsels) == len(table.partitions)

    def test_boundaries_align_to_block_grid(self):
        table = make_table(n=64, partition_count=1, block_size=8)
        morsels = morsels_for_table(table, None, morsel_size=16)
        for morsel in morsels[:-1]:
            assert morsel.ranges[-1][1] % 8 == 0

    def test_restricted_ranges_cover_exactly_the_request(self):
        table = make_table(n=100, partition_count=3, block_size=8)
        requested = [(5, 20), (40, 45), (90, 200)]  # last clipped to 100
        morsels = morsels_for_table(table, requested, morsel_size=8)
        expected = (
            list(range(5, 20)) + list(range(40, 45)) + list(range(90, 100))
        )
        assert covered_rowids(morsels) == expected

    def test_small_pruned_ranges_coalesce_into_one_morsel(self):
        table = make_table(n=64, partition_count=1, block_size=8)
        # Three disjoint 4-row islands, 12 rows total, under morsel_size.
        morsels = morsels_for_table(
            table, [(0, 4), (16, 20), (32, 36)], morsel_size=64
        )
        assert len(morsels) == 1
        assert morsels[0].ranges == ((0, 4), (16, 20), (32, 36))
        assert morsels[0].rows == 12

    def test_adjacent_chunks_merge_within_a_morsel(self):
        table = make_table(n=32, partition_count=1, block_size=4)
        morsels = morsels_for_table(table, None, morsel_size=1 << 30)
        assert len(morsels) == 1
        assert morsels[0].ranges == ((0, 32),)

    def test_empty_table_has_no_morsels(self):
        table = Table("e", Schema([Field("x", DataType.INT64)]), 2)
        assert morsels_for_table(table, None, morsel_size=8) == []

    def test_empty_request_has_no_morsels(self):
        table = make_table(n=20)
        assert morsels_for_table(table, [(5, 5)], morsel_size=8) == []


class TestPartitionMorselRanges:
    def test_covers_partition_on_block_grid(self):
        table = make_table(n=20, partition_count=1, block_size=4)
        partition = table.partitions[0]
        ranges = partition.morsel_ranges(8)
        assert ranges == [(0, 8), (8, 16), (16, 20)]

    def test_morsel_size_below_block_size_rounds_up(self):
        table = make_table(n=16, partition_count=1, block_size=8)
        assert table.partitions[0].morsel_ranges(2) == [(0, 8), (8, 16)]

    def test_rejects_non_positive(self):
        table = make_table(n=8, partition_count=1)
        with pytest.raises(StorageError):
            table.partitions[0].morsel_ranges(0)


class TestPool:
    def test_repro_threads_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "7")
        assert default_parallelism() == 7

    def test_repro_threads_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "0")
        assert default_parallelism() == 1

    def test_repro_threads_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "lots")
        with pytest.raises(PlanError):
            default_parallelism()

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        import os

        assert default_parallelism() == (os.cpu_count() or 1)


def scan_factory(table, **kwargs):
    def build(ranges):
        return TableScan(table, scan_ranges=ranges, batch_size=16, **kwargs)

    return build


def run_query(db, sql, planner):
    statement = parse_statement(sql)
    logical = Optimizer(db.catalog).optimize(
        Binder(db.catalog).bind_select(statement)
    )
    return planner.plan(logical)


def parallel_planner(workers=4, morsel_size=16):
    return PhysicalPlanner(parallelism=workers, morsel_size=morsel_size)


def serial_planner():
    return PhysicalPlanner(parallelism=1)


@pytest.fixture
def db():
    rng = np.random.default_rng(42)
    n = 400
    values = rng.integers(0, 50, n)
    nullable = [
        None if i % 17 == 0 else int(values[i]) for i in range(n)
    ]
    database = Database()
    database.create_table_from_pydict(
        "t",
        Schema(
            [
                Field("g", DataType.INT64),
                Field("v", DataType.INT64),
            ]
        ),
        {"g": [int(x) % 7 for x in values], "v": nullable},
        partition_count=3,
    )
    return database


def assert_equivalent(db, sql, workers=4, morsel_size=16):
    parallel_op = run_query(db, sql, parallel_planner(workers, morsel_size))
    serial_op = run_query(db, sql, serial_planner())
    parallel = collect(parallel_op)
    serial = collect(serial_op)
    assert parallel.to_pylist() == serial.to_pylist(), sql
    return parallel_op


def parallel_operators(operator):
    """Class names of the operators anywhere in a plan that fan out."""
    names = set()
    if hasattr(operator, "morsels"):
        names.add(type(operator).__name__)
    for child in operator.children():
        names |= parallel_operators(child)
    return names


def find(operator, cls):
    """The first operator of type *cls* in a plan, depth first."""
    if isinstance(operator, cls):
        return operator
    for child in operator.children():
        found = find(child, cls)
        if found is not None:
            return found
    return None


class TestPlannedEquivalence:
    def test_distinct(self, db):
        op = assert_equivalent(db, "SELECT DISTINCT g, v FROM t")
        assert "ParallelDistinct(dop=4" in op.explain()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT v FROM t ORDER BY v",
            "SELECT v FROM t ORDER BY v DESC",
            "SELECT g, v FROM t ORDER BY g, v DESC",
            "SELECT v FROM t WHERE v < 25 ORDER BY v",
        ],
    )
    def test_sort_with_nulls(self, db, sql):
        op = assert_equivalent(db, sql)
        text = op.explain()
        assert "ParallelSort(" in text and "dop=4" in text

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) AS n FROM t",
            "SELECT COUNT(v) AS n FROM t",
            "SELECT SUM(v) AS s FROM t",
            "SELECT MIN(v) AS lo, MAX(v) AS hi FROM t",
            "SELECT AVG(v) AS a FROM t",
            "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM t",
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g",
            "SELECT g, SUM(v) AS s, MIN(v) AS lo, AVG(v) AS a "
            "FROM t GROUP BY g",
            "SELECT g, COUNT(v) AS n FROM t WHERE v > 5 GROUP BY g",
        ],
    )
    def test_two_phase_aggregates(self, db, sql):
        op = assert_equivalent(db, sql)
        text = op.explain()
        assert "ParallelAggregate(" in text and "dop=4" in text

    def test_count_distinct_alone(self, db):
        op = assert_equivalent(db, "SELECT COUNT(DISTINCT v) AS n FROM t")
        text = op.explain()
        assert "ParallelAggregate(" in text and "dop=4" in text
        assert "distinct-partials" in text

    def test_count_distinct_grouped(self, db):
        assert_equivalent(
            db, "SELECT g, COUNT(DISTINCT v) AS n FROM t GROUP BY g"
        )

    def test_avg_all_null_group(self):
        database = Database()
        database.create_table_from_pydict(
            "n",
            Schema([Field("g", DataType.INT64), Field("v", DataType.INT64)]),
            {"g": [1, 1, 2, 2] * 10, "v": [None, None, 5, 7] * 10},
            partition_count=2,
        )
        assert_equivalent(
            database,
            "SELECT g, AVG(v) AS a, COUNT(v) AS n FROM n GROUP BY g",
            morsel_size=4,
        )

    def test_scan_range_pruning_composes(self):
        database = Database()
        table = database.create_table(
            "k",
            Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)]),
            partition_count=3,
            block_size=8,
        )
        keys = np.arange(400, dtype=np.int64)
        table.load_columns(
            {
                "k": ColumnVector(DataType.INT64, keys),
                "v": ColumnVector(DataType.INT64, keys % 11),
            }
        )
        sql = "SELECT k, v FROM k WHERE k >= 100 AND k < 300 ORDER BY v"
        sort = find(run_query(database, sql, parallel_planner()), ParallelSort)
        # Morsels are carved from the surviving blocks only: the 200
        # rows asked for plus at most a partial block at either end.
        assert 200 <= sum(morsel.rows for morsel in sort.morsels) <= 214
        assert_equivalent(database, sql)

    def test_nuc_distinct_rewrite_composes(self):
        rng = np.random.default_rng(3)
        values = rng.permutation(300).astype(np.int64)
        values[rng.choice(300, 20, replace=False)] = 9
        database = Database()
        database.create_table_from_pydict(
            "u",
            Schema([Field("c", DataType.INT64)]),
            {"c": [int(v) for v in values]},
            partition_count=3,
        )
        database.create_patch_index("pi", "u", "c", kind="unique")
        op = assert_equivalent(database, "SELECT DISTINCT c FROM u")
        text = op.explain()
        # Both rewrite branches run in parallel over the PatchSelect.
        assert "PatchSelect(mode=exclude_patches" in text
        assert "PatchSelect(mode=use_patches" in text
        assert "dop=4" in text

    def test_parallelism_one_plans_serial(self, db):
        op = run_query(
            db,
            "SELECT DISTINCT v FROM t",
            PhysicalPlanner(parallelism=1, morsel_size=16),
        )
        assert "dop=" not in op.explain()

    def test_default_cost_model_keeps_small_tables_serial(self, db):
        op = run_query(
            db,
            "SELECT DISTINCT v FROM t",
            PhysicalPlanner(parallelism=8),
        )
        assert "dop=" not in op.explain()


def plans_parallel(
    rows, partitions, parallelism, morsel_size=DEFAULT_MORSEL_SIZE, block_size=None
):
    """Whether ``COUNT(*)`` over an INT64 table of *rows* rows in
    *partitions* partitions plans a parallel operator."""
    kwargs = {} if block_size is None else {"block_size": block_size}
    table = Table("t", Schema([Field("x", DataType.INT64)]), partitions, **kwargs)
    table.load_columns({"x": ColumnVector(DataType.INT64, np.arange(rows))})
    catalog = Catalog()
    catalog.add_table(table)
    logical = Optimizer(catalog).optimize(
        Binder(catalog).bind_select(parse_statement("SELECT COUNT(*) AS n FROM t"))
    )
    planner = PhysicalPlanner(parallelism=parallelism, morsel_size=morsel_size)
    return "dop=" in planner.plan(logical).explain()


class TestParallelGate:
    """Pin the fan-out decisions of the morsel thread pool: a scan
    pipeline goes parallel iff dop > 1, it splits into at least two
    morsels, and it covers more than ``morsel_size`` rows (2^18 by
    default)."""

    def test_bench_table_plans_parallel_thread(self):
        # A 10M-row scan over 8 partitions in 40 morsels, at 1/64 scale:
        # the rule compares rows with the morsel size, so it scales.
        rows, size = 10_000_000 // 64, DEFAULT_MORSEL_SIZE // 64
        assert plans_parallel(rows, 8, 2, morsel_size=size)
        assert plans_parallel(rows, 8, 4, morsel_size=size)

    def test_small_input_stays_serial(self):
        assert not plans_parallel(200_000, 8, 2)
        assert not plans_parallel(10_000, 8, 4)

    def test_thread_breakeven(self):
        assert plans_parallel(300_000, 8, 2)
        assert not plans_parallel(240_000, 8, 2)
        # The breakeven is the morsel size itself, not a row past it.
        assert not plans_parallel(DEFAULT_MORSEL_SIZE, 8, 2)
        assert plans_parallel(DEFAULT_MORSEL_SIZE + 1, 8, 2)

    def test_degenerate_shapes_stay_serial(self):
        rows, size = 10_000_000 // 64, DEFAULT_MORSEL_SIZE // 64
        assert not plans_parallel(rows, 8, 1, morsel_size=size)
        # One 40-row block is one morsel, however small the morsel size.
        assert not plans_parallel(40, 1, 4, morsel_size=16, block_size=64)

    def test_dop_is_not_an_input(self):
        for parallelism in (2, 4, 8):
            assert plans_parallel(300_000, 8, parallelism)
            assert not plans_parallel(240_000, 8, parallelism)


def shape_db(scope: str) -> Database:
    """400 rows in three partitions: a group column, a nullable value,
    a nearly-unique column (six patches) and a nearly-sorted one (two
    patches, discovered in *scope*), plus a join dimension."""
    rng = np.random.default_rng(5)
    n = 400
    unique = rng.permutation(n)
    unique[[10, 90, 170, 250, 330]] = unique[0]
    nearly_sorted = np.arange(n)
    nearly_sorted[[50, 260]] = [3, 7]
    database = Database()
    database.create_table_from_pydict(
        "t",
        Schema(
            [
                Field("g", DataType.INT64),
                Field("v", DataType.INT64),
                Field("u", DataType.INT64),
                Field("s", DataType.INT64),
            ]
        ),
        {
            "g": [i % 7 for i in range(n)],
            "v": [
                None if i % 17 == 0 else int(x)
                for i, x in enumerate(rng.integers(0, 50, n))
            ],
            "u": [int(x) for x in unique],
            "s": [int(x) for x in nearly_sorted],
        },
        partition_count=3,
    )
    database.create_table_from_pydict(
        "d",
        Schema([Field("g", DataType.INT64), Field("name", DataType.INT64)]),
        {"g": list(range(7)), "name": [x * 10 for x in range(7)]},
    )
    database.create_patch_index("tu", "t", "u", kind="unique")
    database.create_patch_index("ts", "t", "s", kind="sorted", scope=scope)
    return database


_SHAPE_DBS: dict[str, Database] = {}

#: (statement, NSC scope, the parallel terminals dop 2 plans).  A
#: rewrite's use branch hands its terminal only the patches — fewer than
#: a morsel's worth here, as at 1 % exceptions on a large table — so it
#: stays serial, and no exclude branch fans out: the run-merging Sort of
#: a partition-scoped NSC stays serial too, while a plain ORDER BY over
#: the same table does not.
SHAPES = {
    "distinct": ("SELECT DISTINCT g FROM t", "global", {"ParallelDistinct"}),
    "order by": ("SELECT v FROM t ORDER BY v", "global", {"ParallelSort"}),
    "group by": (
        "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g",
        "global",
        {"ParallelAggregate"},
    ),
    "ungrouped aggregate": (
        "SELECT COUNT(*) AS n, MIN(v) AS lo, AVG(u) AS a FROM t",
        "global",
        {"ParallelAggregate"},
    ),
    "lone count distinct": (
        "SELECT COUNT(DISTINCT v) AS n FROM t",
        "global",
        {"ParallelAggregate"},
    ),
    "grouped count distinct": (
        "SELECT g, COUNT(DISTINCT v) AS n FROM t GROUP BY g",
        "global",
        {"ParallelAggregate"},
    ),
    "mixed count distinct": (
        "SELECT COUNT(DISTINCT v) AS d, COUNT(*) AS n FROM t",
        "global",
        set(),
    ),
    "filtered fetch": ("SELECT g, v FROM t WHERE v > 10", "global", set()),
    "join input": (
        "SELECT t.v, d.name FROM t JOIN d ON t.g = d.g WHERE t.v > 20",
        "global",
        set(),
    ),
    "nuc distinct rewrite": ("SELECT DISTINCT u FROM t", "global", set()),
    "nuc count distinct rewrite": (
        "SELECT COUNT(DISTINCT u) AS n FROM t",
        "global",
        set(),
    ),
    "nsc sort rewrite, partition scope": (
        "SELECT s FROM t ORDER BY s",
        "partition",
        set(),
    ),
    "order by, partition scope": (
        "SELECT v FROM t ORDER BY v",
        "partition",
        {"ParallelSort"},
    ),
    "nsc sort rewrite, global scope": (
        "SELECT s FROM t ORDER BY s",
        "global",
        set(),
    ),
}


class TestShapes:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_dop2_plan(self, shape):
        sql, scope, expected = SHAPES[shape]
        if scope not in _SHAPE_DBS:
            _SHAPE_DBS[scope] = shape_db(scope)
        database = _SHAPE_DBS[scope]
        operator = assert_equivalent(database, sql, workers=2)
        assert parallel_operators(operator) == expected, operator.explain()
        if "rewrite" in shape:
            assert "PatchSelect(mode=use_patches" in operator.explain()


class TestExactIntegerAvg:
    """AVG over INT64 adds exact integers on every path: the serial
    kernels and the two-phase partials both sum the values' 32-bit
    halves in int64, so neither wraps near 2**62 nor rounds differently
    by dop near 2**53."""

    @pytest.mark.parametrize("base", [2**53, 2**62], ids=["2**53", "2**62"])
    @pytest.mark.parametrize("grouped", [False, True], ids=["ungrouped", "grouped"])
    def test_parallel_equals_serial_and_the_exact_mean(self, base, grouped):
        values = base + np.random.default_rng(3).integers(0, 2**20, 64)
        groups = [i % 3 for i in range(64)]
        database = Database()
        database.create_table_from_pydict(
            "w",
            Schema([Field("g", DataType.INT64), Field("b", DataType.INT64)]),
            {"g": groups, "b": [int(x) for x in values]},
            partition_count=4,
        )
        sql = (
            "SELECT g, AVG(b) AS a FROM w GROUP BY g"
            if grouped
            else "SELECT AVG(b) AS a FROM w"
        )
        for workers in (2, 4):
            operator = assert_equivalent(database, sql, workers=workers)
            assert find(operator, ParallelAggregate) is not None
        for row in collect(operator).to_pylist():
            members = [
                int(x) for x, g in zip(values, groups) if not grouped or g == row[0]
            ]
            exact = Fraction(sum(members), len(members))
            assert abs(Fraction(row[-1]) - exact) <= exact / 2**51


class TestParallelOperatorsDirect:
    def test_parallel_distinct_matches_serial(self):
        table = make_table(n=60, partition_count=2, block_size=4)

        def build(ranges):
            scan = TableScan(table, scan_ranges=ranges, batch_size=8)
            return scan

        morsels = morsels_for_table(table, None, morsel_size=8)
        parallel = collect(
            ParallelDistinct(build, build(None), morsels, 3)
        )
        serial = collect(Distinct(build(None)))
        assert parallel.to_pylist() == serial.to_pylist()

    def test_parallel_sort_matches_serial_stable(self):
        rng = np.random.default_rng(11)
        database = Database()
        database.create_table_from_pydict(
            "s",
            Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)]),
            {
                "k": [int(x) for x in rng.integers(0, 5, 200)],
                "v": list(range(200)),
            },
            partition_count=3,
        )
        table = database.table("s")
        keys = [SortKey("k")]

        def build(ranges):
            return TableScan(table, scan_ranges=ranges, batch_size=16)

        morsels = morsels_for_table(table, None, morsel_size=16)
        parallel = collect(
            ParallelSort(build, build(None), morsels, 4, keys)
        )
        serial = collect(Sort(build(None), keys))
        # Stability: equal keys keep scan (rowid) order in both plans.
        assert parallel.to_pylist() == serial.to_pylist()

    def test_scan_equivalence_and_order(self):
        table = make_table(n=100, partition_count=3, block_size=8)
        build = scan_factory(table)
        morsels = morsels_for_table(table, None, morsel_size=16)
        parallel = collect(
            ParallelSort(build, build(None), morsels, 4, [SortKey("x")])
        )
        serial = collect(build(None))
        # x is the rowid, so the merged morsels come back in scan order.
        assert parallel.to_pylist() == serial.to_pylist()
        assert parallel.column("x").to_pylist() == list(range(100))

    def test_restricted_scan_equivalence(self):
        table = make_table(n=100, partition_count=3, block_size=8)
        requested = [(3, 30), (60, 95)]
        build = scan_factory(table)
        keys = [SortKey("x", False)]
        morsels = morsels_for_table(table, requested, morsel_size=8)
        parallel = collect(ParallelSort(build, build(requested), morsels, 4, keys))
        serial = collect(Sort(build(requested), keys))
        assert parallel.to_pylist() == serial.to_pylist()

    @pytest.mark.parametrize(
        "mode", [PatchSelectMode.USE_PATCHES, PatchSelectMode.EXCLUDE_PATCHES]
    )
    def test_patch_select_per_morsel(self, mode):
        rng = np.random.default_rng(7)
        values = list(range(120))
        for rowid in rng.choice(120, 15, replace=False):
            values[int(rowid)] = 3  # duplicates become patches
        db = Database()
        db.create_table_from_pydict(
            "p",
            Schema([Field("x", DataType.INT64)]),
            {"x": values},
            partition_count=3,
        )
        index = db.create_patch_index("pi", "p", "x", kind="unique")
        table = db.table("p")

        def build(ranges):
            return PatchSelect(
                TableScan(table, scan_ranges=ranges, batch_size=16), index, mode
            )

        specs = [AggregateSpec("count_star", None, "n")]
        morsels = morsels_for_table(table, None, morsel_size=16)
        parallel = collect(
            ParallelAggregate(build, build(None), morsels, 4, ["x"], specs)
        )
        serial = collect(HashAggregate(build(None), ["x"], specs))
        assert parallel.to_pylist() == serial.to_pylist()

    def test_no_morsels_yields_empty(self):
        table = Table("e", Schema([Field("x", DataType.INT64)]), 1)
        build = scan_factory(table)
        sort = ParallelSort(build, build(None), [], 4, [SortKey("x")])
        assert collect(sort).row_count == 0

    def test_template_shown_in_explain_but_never_opened(self):
        table = make_table(n=32)
        build = scan_factory(table)
        template = build(None)
        morsels = morsels_for_table(table, None, morsel_size=8)
        sort = ParallelSort(build, template, morsels, 3, [SortKey("x")])
        text = sort.explain()
        assert "ParallelSort(x" in text and "dop=3" in text
        assert "TableScan" in text
        collect(sort)  # template must survive untouched
        assert collect(template).row_count == 32

    def test_parallel_aggregate_empty_input_global(self):
        table = Table("e", Schema([Field("x", DataType.INT64)]), 1)

        def build(ranges):
            return TableScan(table, scan_ranges=ranges, batch_size=8)

        specs = [
            AggregateSpec("count_star", None, "n"),
            AggregateSpec("sum", "x", "s"),
        ]
        parallel = collect(
            ParallelAggregate(build, build(None), [], 4, [], specs)
        )
        serial = collect(HashAggregate(build(None), [], specs))
        assert parallel.to_pylist() == serial.to_pylist()
        assert parallel.to_pylist() == [(0, None)]

    def test_mixed_count_distinct_spec_rejected(self):
        table = make_table(n=16)

        def build(ranges):
            return TableScan(table, scan_ranges=ranges, batch_size=8)

        specs = [
            AggregateSpec("count_distinct", "x", "d"),
            AggregateSpec("sum", "x", "s"),
        ]
        with pytest.raises(PlanError):
            ParallelAggregate(
                build, build(None), morsels_for_table(table), 2, [], specs
            )

    def test_batch_source_replays_batches(self):
        table = make_table(n=24, partition_count=1)
        scan = TableScan(table, batch_size=8)
        batches = []
        scan.open()
        while True:
            batch = scan.next_batch()
            if batch is None:
                break
            batches.append(batch)
        scan.close()
        replay = collect(BatchSource(scan.schema, batches))
        assert replay.column("x").to_pylist() == list(range(24))


class TestSessionKnob:
    def test_database_sql_accepts_parallelism(self, db):
        serial = db.sql("SELECT g, COUNT(*) AS n FROM t GROUP BY g",
                        parallelism=1)
        default = db.sql("SELECT g, COUNT(*) AS n FROM t GROUP BY g")
        assert serial.to_pylist() == default.to_pylist()

    def test_database_explain_accepts_parallelism(self, db):
        text = db.explain("SELECT DISTINCT v FROM t", parallelism=1)
        assert "Distinct" in text and "dop=" not in text

    def test_instance_default_threads(self, db):
        db.parallelism = 1
        assert "dop=" not in db.explain("SELECT DISTINCT v FROM t")

    def test_large_table_parallelizes_under_default_model(self):
        n = 400_000
        database = Database()
        database.create_table_from_pydict(
            "big",
            Schema([Field("x", DataType.INT64)]),
            {"x": list(range(n))},
            partition_count=4,
        )
        text = database.explain(
            "SELECT COUNT(*) AS n FROM big", parallelism=4
        )
        assert "ParallelAggregate(" in text and "dop=4" in text
        parallel = database.sql("SELECT COUNT(*) AS n FROM big",
                                parallelism=4)
        serial = database.sql("SELECT COUNT(*) AS n FROM big", parallelism=1)
        assert parallel.to_pylist() == serial.to_pylist() == [(n,)]


class TestGate:
    """At dop 2 a terminal over a scan pipeline plans parallel iff the
    pipeline splits into at least two morsels and hands the terminal
    more than ``morsel_size`` rows: the covered rows, or a use-patches
    PatchSelect's patches."""

    @pytest.mark.parametrize(
        "rows, partitions, block_size, morsel_size, where, parallel",
        [
            (64, 1, 8, 16, "", True),  # four morsels
            (16, 1, 8, 16, "", False),  # exactly one morsel's worth
            (33, 3, 8, 32, "", True),  # three morsels, one row past the size
            (24, 3, 8, 32, "", False),  # three morsels, too few rows
            (40, 1, 64, 16, "", False),  # enough rows, but one block = one morsel
            (64, 1, 8, 16, "WHERE x < 16", False),  # pruned to 16 rows
            (64, 1, 8, 16, "WHERE x < 24", True),  # pruned to 24 rows, two morsels
        ],
    )
    def test_parallel_iff_two_morsels_and_more_rows_than_a_morsel(
        self, rows, partitions, block_size, morsel_size, where, parallel
    ):
        catalog = Catalog()
        catalog.add_table(make_table(rows, partitions, block_size))
        db = SimpleNamespace(catalog=catalog)
        sql = f"SELECT COUNT(*) AS n FROM t {where}"
        operator = run_query(db, sql, parallel_planner(2, morsel_size))
        assert ("dop=2" in operator.explain()) is parallel
        serial = collect(run_query(db, sql, serial_planner()))
        assert collect(operator).to_pylist() == serial.to_pylist()

    @pytest.mark.parametrize("patches, parallel", [(16, False), (17, True)])
    def test_use_branch_is_gated_on_its_patch_count(self, patches, parallel):
        values = list(range(400))
        values[1:patches] = [0] * (patches - 1)  # one group of duplicates
        database = Database()
        database.create_table_from_pydict(
            "u", Schema([Field("c", DataType.INT64)]), {"c": values}, 3
        )
        index = database.create_patch_index("uc", "u", "c", kind="unique")
        assert index.patch_count == patches
        operator = assert_equivalent(
            database, "SELECT DISTINCT c FROM u", workers=2
        )
        assert "PatchSelect(mode=use_patches" in operator.explain()
        # The exclude branch has no terminal above it and stays serial.
        expected = {"ParallelDistinct"} if parallel else set()
        assert parallel_operators(operator) == expected

    def test_cold_and_warm_durable_table_plan_alike(self, tmp_path):
        """The gate reads no storage state: a fresh handle behind a
        2 MiB block cache and the same handle once the cache is warm
        plan every statement the same."""
        root = tmp_path / "data"
        db = repro.connect(root, sync=False)
        db.sql("CREATE TABLE big (k BIGINT, v BIGINT) PARTITIONS 4")
        n = 300_000
        db.table("big").load_columns(
            {
                "k": ColumnVector(DataType.INT64, np.arange(n)),
                "v": ColumnVector(DataType.INT64, np.arange(n) % 97),
            }
        )
        db.sql("CHECKPOINT")
        db.close()
        queries = [
            "SELECT COUNT(DISTINCT v) AS n FROM big",
            "SELECT SUM(v) AS s FROM big WHERE k < 200000",
        ]
        handle = repro.connect(root, cache_bytes=2 << 20)
        cold = [handle.explain(query, parallelism=2) for query in queries]
        assert "dop=2" in cold[0] and "dop=" not in cold[1]
        for __ in range(3):  # small enough to be admitted, then hit
            handle.sql("SELECT SUM(v) AS s FROM big WHERE k < 50000")
        assert handle.cache_stats()["hits"] > 0
        assert [handle.explain(query, parallelism=2) for query in queries] == cold
        handle.close()


class TestMorselDataclass:
    def test_rows_property(self):
        morsel = Morsel(((0, 4), (8, 10)))
        assert morsel.rows == 6

    def test_hashable_and_frozen(self):
        morsel = Morsel(((0, 4),))
        assert hash(morsel) == hash(Morsel(((0, 4),)))
        with pytest.raises(Exception):
            morsel.ranges = ()


# -- thread-vs-serial parity on a durable, memory-mapped database -------------

_DB_CACHE: list[Database] = []
_DB_ROOT: list[str] = []


def durable_db() -> Database:
    """The fuzz fixture's twin on a durable engine (cached).

    Same data as ``tests.test_query_fuzz.fuzz_db`` — a nearly-unique
    column, a nearly-sorted column, a category column, a column of
    magnitudes past 2**53, NULLs, two PatchIndexes and the join
    dimensions — but checkpointed to a data directory mid-build, so the morsel
    threads decode lazily loaded segment blocks *and* read rows that
    only exist in the WAL tail (an update and an insert land after the
    checkpoint, the indexes after both).
    """
    if not _DB_CACHE:
        root = tempfile.mkdtemp(prefix="durable_db_")
        rng = np.random.default_rng(77)
        n = 400
        unique = rng.permutation(n).astype(np.int64)
        unique[rng.choice(n, 8, replace=False)] = 7  # duplicates
        nearly_sorted = np.arange(n, dtype=np.int64)
        nearly_sorted[rng.choice(n, 8, replace=False)] = rng.integers(0, n, 8)
        category = rng.integers(0, 5, n).astype(np.int64)
        big = 2**53 + rng.permutation(n).astype(np.int64)
        db = Database(path=root, sync=False)
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
        table.update_rowid(300, "u", None)
        db.sql(
            f"INSERT INTO f VALUES (1000, 400, 2, {2**53 + 1000}), "
            "(1001, 401, 4, NULL)"
        )
        db.sql("CREATE PATCHINDEX fu ON f(u) TYPE UNIQUE")
        db.sql("CREATE PATCHINDEX fs ON f(s) TYPE SORTED")
        add_dimensions(db, n)
        _DB_CACHE.append(db)
        _DB_ROOT.append(root)
    return _DB_CACHE[0]


@pytest.fixture(scope="module", autouse=True)
def _close_durable_db():
    yield
    if _DB_CACHE:
        _DB_CACHE.pop().close()
        shutil.rmtree(_DB_ROOT.pop(), ignore_errors=True)


def plan_durable(db, text, parallelism=4, morsel_size=16):
    """Plan *text* against *db* (a Database or a snapshot view), past
    the gate by the small *morsel_size*."""
    return run_query(
        db,
        text,
        PhysicalPlanner(parallelism=parallelism, morsel_size=morsel_size),
    )


def assert_parity(query, reference, candidate):
    assert sorted(map(str, reference.to_pylist())) == sorted(
        map(str, candidate.to_pylist())
    ), query
    if "ORDER BY" in query and "GROUP BY" not in query:
        assert reference.to_pylist() == candidate.to_pylist(), query


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


class TestDurableThreadParity:
    def test_fixed_corpus(self):
        db = durable_db()
        for query in FIXED_CORPUS:
            serial = collect(plan_durable(db, query, parallelism=1))
            threaded = collect(plan_durable(db, query))
            assert_parity(query, serial, threaded)

    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_fuzz_corpus(self, query):
        db = durable_db()
        serial = collect(plan_durable(db, query, parallelism=1))
        threaded = collect(plan_durable(db, query))
        assert_parity(query, serial, threaded)

    def test_both_patch_select_modes_run_in_fragments(self):
        db = durable_db()
        table, index = db.table("f"), db.catalog.find_index("f", "u", "unique")
        specs = [
            AggregateSpec("count_star", None, "n"),
            AggregateSpec("sum", "b", "total"),
            AggregateSpec("min", "u", "lo"),
        ]
        morsels = morsels_for_table(table, None, morsel_size=16)
        for mode in PatchSelectMode:

            def build(ranges, mode=mode):
                scan = TableScan(table, scan_ranges=ranges, batch_size=16)
                return PatchSelect(scan, index, mode)

            operator = ParallelAggregate(
                build, build(None), morsels, 4, ["g"], specs
            )
            serial = collect(HashAggregate(build(None), ["g"], specs))
            assert collect(operator).to_pylist() == serial.to_pylist(), mode

    def test_pruned_scan_morsels_cover_only_surviving_blocks(self):
        db = durable_db()
        query = (
            "SELECT g, COUNT(*) AS n, SUM(b) AS total FROM f "
            "WHERE s BETWEEN 40 AND 200 GROUP BY g"
        )
        plan = plan_durable(db, query)
        covered = sum(m.rows for m in find(plan, ParallelAggregate).morsels)
        assert 0 < covered < db.table("f").row_count
        serial = collect(plan_durable(db, query, parallelism=1))
        assert collect(plan).to_pylist() == serial.to_pylist()

    def test_ordered_gather_is_rowid_order(self):
        """ParallelSort gathers its sorted runs in morsel order and
        merges left first, so rows with equal keys keep rowid order."""
        db = durable_db()
        query = "SELECT u, s, b, g FROM f WHERE g <> 1 ORDER BY g"
        operator = plan_durable(db, query)
        assert isinstance(operator, ParallelSort) and len(operator.morsels) > 4
        serial = collect(plan_durable(db, query, parallelism=1))
        assert collect(operator).to_pylist() == serial.to_pylist()


class TestNoProcessesAnywhere:
    def test_parallel_query_starts_no_process(self, tmp_path):
        """``Database.sql(q, parallelism=2)`` on a durable directory is
        the serial answer rowid-for-rowid, computed without importing a
        process pool or leaving a child behind — the server imports the
        same modules, so this is its guarantee too."""
        script = textwrap.dedent(
            """
            import os, sys
            import repro
            import repro.plan.physical
            import repro.serve

            db = repro.connect(sys.argv[1], sync=False)
            db.sql("CREATE TABLE big (k BIGINT, v BIGINT) PARTITIONS 4")
            table = db.table("big")
            n = 400_000
            import numpy as np
            from repro.storage.column import ColumnVector
            from repro.types import DataType
            table.load_columns(
                {
                    "k": ColumnVector(DataType.INT64, np.arange(n)),
                    "v": ColumnVector(DataType.INT64, np.arange(n) % 97),
                },
                partition_by_round_robin_blocks=True,
            )
            db.sql("CHECKPOINT")
            query = "SELECT k, v FROM big WHERE v < 3 ORDER BY v"
            assert "ParallelSort(v ASC; dop=2" in db.explain(query, parallelism=2)
            serial = db.sql(query, parallelism=1)
            parallel = db.sql(query, parallelism=2)
            assert parallel.row_count > 0
            assert parallel.to_pylist() == serial.to_pylist()
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            else:
                raise AssertionError("a child process exists")
            db.close()
            loaded = sorted(
                name
                for name in sys.modules
                if name.startswith("multiprocessing")
                or name == "concurrent.futures.process"
            )
            assert not loaded, loaded
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [path for path in sys.path if path]
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "data")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
