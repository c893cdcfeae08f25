"""Scan-range derivation: every prunable conjunct, never a lost row.

A scan under a filter turns the filter's predicate into rowid ranges
when it opens, by evaluating it against the per-block min/max sketches
(``TableScan.ranges``).  Pruning is only ever allowed to drop blocks no row of which
can satisfy the predicate, so the property is simple: the same query
with ``derive_scan_ranges=False`` returns the same rows — in memory, and
after a checkpoint and a reopen, where the sketches come from segment
headers.  A FLOAT64 column holds NaN (which compares false with
everything but ``!=``), the infinities and ``-0.0``.
"""

from __future__ import annotations

import math
import tempfile
from operator import eq, ge, gt, le, lt, ne

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, Field, Schema, Table
from repro.check import verify_plan
from repro.exec.result import collect
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.blocks import compute_block_stats
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnVector

_SCHEMA = Schema(
    [
        Field("a", DataType.INT64),
        Field("b", DataType.INT64),
        Field("s", DataType.STRING),
        Field("f", DataType.FLOAT64),
    ]
)
_OPS = ["=", "<", "<=", ">", ">=", "!=", "<>"]
#: Float cells besides small whole numbers and halves.
_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0]


@st.composite
def tables(draw):
    """Up to 60 rows over 1-3 partitions of 4-row blocks: NULLs, an
    unsorted column, a clustered one, strings, floats with NaN, the
    infinities and -0.0, a partial last block."""
    rows = draw(st.integers(0, 60))
    integers = st.one_of(st.none(), st.integers(0, 30))
    a = draw(st.lists(integers, min_size=rows, max_size=rows))
    if draw(st.booleans()):  # clustered: sketches get narrow enough to prune
        a = sorted(a, key=lambda v: (v is None, v))
    b = draw(st.lists(integers, min_size=rows, max_size=rows))
    s = [None if v is None else f"k{v:02d}" for v in b]
    floats = st.one_of(
        st.none(),
        st.sampled_from(_SPECIAL_FLOATS),
        st.integers(-4, 60).map(lambda v: v / 2),
    )
    f = draw(st.lists(floats, min_size=rows, max_size=rows))
    table = Table("t", _SCHEMA, draw(st.integers(1, 3)), block_size=4)
    table.load_columns(
        {
            "a": ColumnVector.from_pylist(DataType.INT64, a),
            "b": ColumnVector.from_pylist(DataType.INT64, b),
            "s": ColumnVector.from_pylist(DataType.STRING, s),
            "f": ColumnVector.from_pylist(DataType.FLOAT64, f),
        }
    )
    return table


@st.composite
def predicates(draw, depth=0):
    shape = draw(st.integers(0, 5 if depth < 2 else 3))
    column = draw(st.sampled_from(["a", "b", "s", "f"]))

    def literal() -> str:
        value = draw(st.integers(-2, 32))
        if column == "f":
            return draw(st.sampled_from(["-0.0", "0.0", f"{value / 2}"]))
        return f"'k{value:02d}'" if column == "s" else str(value)

    if shape == 0:
        op = draw(st.sampled_from(_OPS))
        if draw(st.booleans()):
            return f"{column} {op} {literal()}"
        return f"{literal()} {op} {column}"  # literal on the left
    if shape == 1:
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{column} {negated}BETWEEN {literal()} AND {literal()}"
    if shape == 2:
        count = draw(st.integers(1, 4))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{column} {negated}IN ({', '.join(literal() for _ in range(count))})"
    if shape == 3:
        return f"{column} IS {'NOT ' if draw(st.booleans()) else ''}NULL"
    left = draw(predicates(depth + 1))
    right = draw(predicates(depth + 1))
    if shape == 4:
        return f"({left} AND {right})"
    return f"({left} OR {right})"


def _plan(table: Table, query: str, **planner_knobs):
    catalog = Catalog()
    catalog.add_table(table)
    return _plan_in(catalog, query, **planner_knobs)


def _plan_in(catalog: Catalog, query: str, **planner_knobs):
    logical = Binder(catalog).bind_select(parse_statement(query))
    optimized = Optimizer(catalog).optimize(logical)
    return PhysicalPlanner(**planner_knobs).plan(optimized)


def _rows(operator) -> list[tuple]:
    """The rows *operator* returns, NaN spelled out so that equal rows
    compare equal."""
    return [
        tuple("NaN" if value != value else value for value in row)
        for row in collect(operator).to_pylist()
    ]


def _reopened(table: Table, root: str) -> Database:
    """A durable database holding *table*'s rows, checkpointed and
    reopened: its block sketches are the segment headers'."""
    db = Database(path=root, sync=False)
    copy = db.create_table(
        "t", _SCHEMA, partition_count=table.partition_count, block_size=4
    )
    copy.load_columns(
        {name: table.read_column(name) for name in _SCHEMA.names}
    )
    db.checkpoint()
    db.close()
    return Database(path=root, sync=False)


def _scans(operator):
    if type(operator).__name__ == "TableScan":
        yield operator
    for child in operator.children():
        yield from _scans(child)


class TestPruningNeverLosesRows:
    @given(tables(), predicates())
    @settings(max_examples=300, deadline=None)
    def test_same_rows_with_and_without_ranges(self, table, predicate):
        query = f"SELECT a, b, s, f, tid FROM t WHERE {predicate}"
        pruned = _plan(table, query)
        unpruned = _plan(table, query, derive_scan_ranges=False)
        assert _rows(pruned) == _rows(unpruned)
        verify_plan(pruned)
        for scan in _scans(pruned):
            ranges = scan.ranges()
            if ranges is None:
                continue
            flat = [edge for span in ranges for edge in span]
            # sorted, disjoint (and coalesced), inside the table
            assert flat == sorted(flat) and len(set(flat)) == len(flat)
            assert not flat or (flat[0] >= 0 and flat[-1] <= table.row_count)

    @given(tables(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_sorted_results_prune_the_same(self, table, predicate):
        # A stable sort returns ties in rowid order, pruned or not.
        query = f"SELECT a, b, s, f FROM t WHERE {predicate} ORDER BY b"
        pruned = _rows(_plan(table, query, batch_size=4))
        unpruned = _rows(_plan(table, query, derive_scan_ranges=False, batch_size=4))
        assert pruned == unpruned

    @given(tables(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_same_rows_after_a_reopen(self, table, predicate):
        query = f"SELECT a, b, s, f, tid FROM t WHERE {predicate}"
        with tempfile.TemporaryDirectory() as root:
            db = _reopened(table, root)
            try:
                pruned = _plan_in(db.catalog, query)
                unpruned = _plan_in(
                    db.catalog, query, derive_scan_ranges=False
                )
                assert _rows(pruned) == _rows(unpruned)
            finally:
                db.close()


@st.composite
def appended_rows(draw):
    """One to three batches of up to six rows, each appended between
    two reads."""
    integers = st.one_of(st.none(), st.integers(0, 30))
    floats = st.one_of(st.none(), st.sampled_from(_SPECIAL_FLOATS))
    row = st.tuples(integers, integers, floats).map(
        lambda r: [r[0], r[1], None if r[1] is None else f"k{r[1]:02d}", r[2]]
    )
    return draw(st.lists(st.lists(row, min_size=1, max_size=6), min_size=1, max_size=3))


class TestAppendsBetweenReads:
    """An append keeps the sketches of the full blocks before it and
    computes the rest on the next read: every read prunes as a fresh
    computation would, in memory and over segment headers."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @given(tables(), appended_rows(), predicates())
    @settings(max_examples=40, deadline=None)
    def test_pruning_equals_a_fresh_computation(self, durable, table, batches, predicate):
        query = f"SELECT a, b, s, f, tid FROM t WHERE {predicate}"
        with tempfile.TemporaryDirectory() as root:
            db = _reopened(table, root) if durable else None
            live = db.table("t") if durable else table
            catalog = db.catalog if durable else Catalog()
            if not durable:
                catalog.add_table(table)
            try:
                for rows in batches:
                    for partition in live.partitions:  # cache every sketch
                        for name in _SCHEMA.names:
                            partition.block_stats(name)
                    live.insert_rows(rows)
                    for partition in live.partitions:
                        for name in _SCHEMA.names:
                            fresh = compute_block_stats(
                                partition.column(name), partition.block_size
                            )
                            assert repr(partition.block_stats(name)) == repr(fresh)
                    pruned = _plan_in(catalog, query)
                    unpruned = _plan_in(
                        catalog, query, derive_scan_ranges=False
                    )
                    assert _rows(pruned) == _rows(unpruned)
            finally:
                if db is not None:
                    db.close()


class TestNaNBounds:
    """A NaN in a FLOAT64 block once made its bounds NaN, every
    comparison with them false, and the block pruned: rows that matched
    were dropped, in memory and after a reopen."""

    @staticmethod
    def _counts(db: Database, queries: list[str]) -> list[int]:
        return [db.sql(f"SELECT COUNT(*) AS n FROM t WHERE {q}").scalar() for q in queries]

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "reopened"])
    def test_a_nan_does_not_hide_its_block(self, tmp_path, durable):
        root = str(tmp_path / "db") if durable else None
        db = Database(path=root, sync=False)
        db.sql("CREATE TABLE t (x DOUBLE)")
        x = np.concatenate([np.arange(5000.0), [math.nan], np.full(10, 5.0)])
        db.table("t").load_columns({"x": ColumnVector(DataType.FLOAT64, x)})
        wide = np.arange(10_000.0)
        wide[0] = math.nan
        db.sql("CREATE TABLE w (x DOUBLE)")
        db.table("w").load_columns({"x": ColumnVector(DataType.FLOAT64, wide)})
        if durable:
            db.checkpoint()
            db.close()
            db = Database(path=root, sync=False)
        narrow = ["x = 5.0", "x + 0.0 = 5.0", "x != 5.0", "x + 0.0 != 5.0"]
        assert self._counts(db, narrow) == [11, 11, 5000, 5000]
        counts = [
            db.sql(f"SELECT COUNT(*) AS n FROM w WHERE {q}").scalar()
            for q in ("x >= 0.0", "x < 100.0", "x = 4095.0", "x != 1.0")
        ]
        assert counts == [9999, 99, 1, 9999]
        db.close()

    def test_a_float_block_equal_to_the_literal_keeps_its_nan_for_not_equal(self):
        db = Database()
        db.sql("CREATE TABLE t (x DOUBLE)")
        x = np.array([2.0, math.nan, 2.0, 2.0, 2.0, 2.0])
        db.table("t").load_columns({"x": ColumnVector(DataType.FLOAT64, x)})
        assert self._counts(db, ["x != 2.0", "x <> 2.0", "x = 2.0"]) == [1, 1, 5]
        db.close()

    def test_nan_bounds_from_an_older_header_never_prune(self):
        from repro.exec.operators.scan import may_contain
        from repro.storage.blocks import BlockStats, stack_sketches

        legacy = BlockStats(0, 4, math.nan, math.nan, 0)
        sketch = stack_sketches((([legacy], 0),), np.dtype(np.float64))
        assert all(may_contain(sketch, op, 1.0).all() for op in _OPS)


def _covered(operator) -> int:
    return sum(
        stop - start
        for scan in _scans(operator)
        for start, stop in (scan.ranges() or [(0, scan.table.row_count)])
    )


class TestEveryConjunctPrunes:
    @pytest.fixture(scope="class")
    def database(self):
        db = Database()
        db.create_table(
            "t",
            Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)]),
            partition_count=4,
        )
        keys = np.arange(200_000, dtype=np.int64)
        db.table("t").load_columns(
            {
                "k": ColumnVector(DataType.INT64, keys),
                "v": ColumnVector(DataType.INT64, keys % 97),
            }
        )
        return db

    def test_between_scans_at_most_two_blocks(self, database):
        """Both bounds of a BETWEEN prune: a 1000-row range on an
        ascending key touches the one or two 4096-row blocks holding it,
        not every block from the lower bound to the end of the table."""
        for low in (0, 4000, 77_777, 150_000, 199_000):
            result = database.sql(
                f"SELECT COUNT(*) AS n, SUM(v) AS x FROM t "
                f"WHERE k BETWEEN {low} AND {low + 999}",
                profile=True,
            )
            assert result.to_pylist()[0][0] == 1000
            scanned = sum(n.rows for n in result.profile.find("TableScan"))
            assert 1000 <= scanned <= 8192

    def test_connectives(self, database):
        table = database.table("t")

        def covered(where: str) -> int:
            return _covered(_plan(table, f"SELECT v FROM t WHERE {where}"))

        block = 4096
        assert covered("k >= 100 AND k <= 200") == block
        assert covered("k <= 200 AND v = 5 AND k >= 100") == block
        assert covered("k IN (5, 100000)") == 2 * block
        # the last block of a 50 000-row partition is partial
        assert covered("k < 10 OR k > 199990") == block + 50_000 % block
        # one arm says nothing: OR cannot restrict, AND still can
        assert covered("k < 10 OR v + 1 = 3") == table.row_count
        assert covered("k < 10 AND v + 1 = 3") == block
        # NOT never prunes, neither does an IN list of another type
        assert covered("NOT (k < 10)") == table.row_count
        assert covered("k IN (1.5, 2.5)") == table.row_count
        assert covered("k = 5 AND NOT (k < 10)") == block

    def test_predicate_on_the_virtual_tid_column(self, database):
        rows = database.sql("SELECT k, tid FROM t WHERE tid < 3").to_pylist()
        assert rows == [(0, 0), (1, 1), (2, 2)]


def _find(operator, name):
    if type(operator).__name__ == name:
        yield operator
    for child in operator.children():
        yield from _find(child, name)


class TestRewrittenPipelinesPrune:
    """A rewrite puts a PatchSelect between the filter and the scan; the
    filter still restricts that scan, and both branches to the same
    ranges."""

    @pytest.fixture(scope="class")
    def database(self):
        db = Database()
        db.create_table(
            "t",
            Schema([Field("k", DataType.INT64), Field("u", DataType.INT64)]),
            partition_count=4,
        )
        keys = np.arange(200_000, dtype=np.int64)
        u = keys.copy()
        u[::97] = 5  # ~1 % duplicates of one value: the NUC's patches
        db.table("t").load_columns(
            {
                "k": ColumnVector(DataType.INT64, keys),
                "u": ColumnVector(DataType.INT64, u),
            }
        )
        db.sql("CREATE PATCHINDEX tu ON t(u) TYPE UNIQUE")
        return db

    def test_count_distinct_branches_scan_only_the_pruned_blocks(self, database):
        query = "SELECT COUNT(DISTINCT u) AS n FROM t WHERE k BETWEEN 1000 AND 1999"
        rewritten = database.sql(query, profile=True)
        selects = rewritten.profile.find("PatchSelect")
        assert {node.details["mode"] for node in selects} == {
            "exclude_patches",
            "use_patches",
        }
        scans = rewritten.profile.find("TableScan")
        assert len(scans) == 2
        assert all(node.rows <= 4096 for node in scans)
        plain = database.sql(
            query, optimizer_options=OptimizerOptions(use_patch_indexes=False)
        )
        assert rewritten.to_pylist() == plain.to_pylist()

    def test_use_branch_prunes_like_the_exclude_branch(self, database):
        query = "SELECT DISTINCT u FROM t WHERE k BETWEEN 3000 AND 5000"
        logical = Binder(database.catalog).bind_select(parse_statement(query))
        operator = PhysicalPlanner().plan(
            Optimizer(database.catalog).optimize(logical)
        )
        assert len(list(_find(operator, "PatchSelect"))) == 2
        # Both branches' scans carry the same ranges: at most two blocks.
        [ranges] = {tuple(scan.ranges()) for scan in _scans(operator)}
        assert sum(stop - start for start, stop in ranges) <= 2 * 4096
        plain = PhysicalPlanner(derive_scan_ranges=False).plan(logical)
        assert sorted(collect(operator).to_pylist()) == sorted(
            collect(plain).to_pylist()
        )


class TestMixedNumericLiterals:
    """An int literal compares with a FLOAT64 cell, and a float literal
    with an INT64 cell, the way Python compares an int with a float:
    exactly, however large, with NULL never matching.  Block pruning must
    agree: a query planned with ranges returns the oracle's rows too."""

    _FLOATS = [
        None, 1.5, -2.0, 1e308, -1e308, 2.0**53, -(2.0**53), 2.0**63,
        math.inf, -math.inf, math.nan, -0.0, 0.0, 3.0, None, 9.0,
        # Blocks whose bounds a rounded literal would wrongly prune.
        2.0**53, 2.0**53, 2.0**53, 2.0**53,
        -(2.0**53), -(2.0**53), -(2.0**53), -(2.0**53),
    ]
    _INT_LITERALS = [
        "1" + "0" * 400, "-1" + "0" * 400, str(2**53 + 1), str(-(2**53 + 1)),
        str(2**53), str(2**63), str(2**63 + 1), str(-(2**63)), "3", "0",
    ]
    _INTS = [
        None, 0, 1, -1, 2, 3, 2**53, 2**53 + 1, -(2**53 + 1), 2**63 - 1,
        -(2**63), None, 7, -7, 2**62, 5,
    ]
    _FLOAT_LITERALS = [
        "9007199254740992.0", "-9007199254740994.0", "2.5", "-2.5", "0.5",
        "-0.0", "1e300", "-1e300", "1e400", "-1e400", "9.223372036854775807e18",
    ]

    @staticmethod
    def _check(op, dtype, cells, literals):
        schema = Schema([Field("k", DataType.INT64), Field("x", dtype)])
        table = Table("t", schema, 2, block_size=4)
        table.load_columns(
            {
                "k": ColumnVector.from_pylist(DataType.INT64, list(range(len(cells)))),
                "x": ColumnVector.from_pylist(dtype, cells),
            }
        )
        python_op = {
            "=": eq, "!=": ne, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge
        }[op]
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        for text in literals:
            literal = float(text) if "." in text or "e" in text else int(text)
            expected = [
                (k,)
                for k, x in enumerate(cells)
                if x is not None and python_op(x, literal)
            ]
            for query in (
                f"SELECT k FROM t WHERE x {op} {text}",
                f"SELECT k FROM t WHERE {text} {flipped} x",
            ):
                assert sorted(_rows(_plan(table, query))) == expected, query

    @pytest.mark.parametrize("op", _OPS)
    def test_int_literals_against_a_float_column(self, op):
        self._check(op, DataType.FLOAT64, self._FLOATS, self._INT_LITERALS)

    @pytest.mark.parametrize("op", _OPS)
    def test_float_literals_against_an_int_column(self, op):
        self._check(op, DataType.INT64, self._INTS, self._FLOAT_LITERALS)


class TestMixedNumericColumns:
    """An INT64 column compares with a FLOAT64 column the way Python
    compares an int with a float: exactly, where widening the int to
    float64 would round (``9007199254740993`` is not ``2.0**53``), NaN
    matching nothing but ``!=`` and NULL never matching."""

    _PAIRS = [
        (2**53 + 1, 2.0**53), (2**53 + 1, 2.0**53 + 2), (2**53, 2.0**53),
        (-(2**53) - 1, -(2.0**53)), (2**63 - 1, 2.0**63), (-(2**63), -(2.0**63)),
        (2**62 + 1, 2.0**62), (5, 5.5), (5, 5.0), (-3, -3.5), (0, -0.0),
        (7, math.nan), (7, math.inf), (7, -math.inf), (None, 1.0), (1, None),
    ]

    @pytest.mark.parametrize("op", _OPS)
    def test_an_int_column_against_a_float_column(self, op):
        schema = Schema(
            [Field("r", DataType.INT64), Field("k", DataType.INT64),
             Field("f", DataType.FLOAT64)]
        )
        table = Table("t", schema, 2, block_size=4)
        table.load_columns(
            {
                "r": ColumnVector.from_pylist(
                    DataType.INT64, list(range(len(self._PAIRS)))
                ),
                "k": ColumnVector.from_pylist(
                    DataType.INT64, [k for k, _ in self._PAIRS]
                ),
                "f": ColumnVector.from_pylist(
                    DataType.FLOAT64, [f for _, f in self._PAIRS]
                ),
            }
        )
        python_op = {
            "=": eq, "!=": ne, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge
        }[op]
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        expected = [
            (r,)
            for r, (k, f) in enumerate(self._PAIRS)
            if k is not None and f is not None and python_op(k, f)
        ]
        for query in (
            f"SELECT r FROM t WHERE k {op} f",
            f"SELECT r FROM t WHERE f {flipped} k",
        ):
            assert sorted(_rows(_plan(table, query))) == expected, query


class TestSketchesSurviveADelete:
    """A delete keeps the sketches of the blocks before its first row and
    sketches the rest on the live partition, so the snapshot pins that
    serve reads inherit them instead of each sketching them anew."""

    def test_a_pin_after_a_delete_sketches_no_block(self, monkeypatch):
        from repro.storage import partition as partition_module

        db = Database()
        schema = Schema([Field("a", DataType.INT64)])
        table = db.create_table("t", schema, block_size=4)
        table.load_columns(
            {"a": ColumnVector.from_pylist(DataType.INT64, list(range(40)))}
        )
        query = "SELECT COUNT(*) AS n FROM t WHERE a = 33"
        assert db.sql(query).scalar() == 1  # sketches every block of the live partition
        table.delete_rowids([30])
        calls = []
        original = partition_module.block_stats

        def counted(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(partition_module, "block_stats", counted)
        with db.snapshot() as view:
            assert view.sql(query).scalar() == 1
        assert calls == []
        [live] = table.partitions
        assert live.block_stats("a") == compute_block_stats(live.column("a"), 4)
