"""Scan-range derivation: every prunable conjunct, never a lost row.

The physical planner turns a filter directly above a scan into rowid
ranges by evaluating the predicate against the per-block min/max
sketches.  Pruning is only ever allowed to drop blocks no row of which
can satisfy the predicate, so the property is simple: the same query
with ``derive_scan_ranges=False`` returns the same rows.
"""

from __future__ import annotations

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
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnVector

_SCHEMA = Schema(
    [
        Field("a", DataType.INT64),
        Field("b", DataType.INT64),
        Field("s", DataType.STRING),
    ]
)
_OPS = ["=", "<", "<=", ">", ">=", "!=", "<>"]


@st.composite
def tables(draw):
    """Up to 60 rows over 1-3 partitions of 4-row blocks: NULLs, an
    unsorted column, a clustered one, strings, a partial last block."""
    rows = draw(st.integers(0, 60))
    integers = st.one_of(st.none(), st.integers(0, 30))
    a = draw(st.lists(integers, min_size=rows, max_size=rows))
    if draw(st.booleans()):  # clustered: sketches get narrow enough to prune
        a = sorted(a, key=lambda v: (v is None, v))
    b = draw(st.lists(integers, min_size=rows, max_size=rows))
    s = [None if v is None else f"k{v:02d}" for v in b]
    table = Table("t", _SCHEMA, draw(st.integers(1, 3)), block_size=4)
    table.load_columns(
        {
            "a": ColumnVector.from_pylist(DataType.INT64, a),
            "b": ColumnVector.from_pylist(DataType.INT64, b),
            "s": ColumnVector.from_pylist(DataType.STRING, s),
        }
    )
    return table


@st.composite
def predicates(draw, depth=0):
    shape = draw(st.integers(0, 5 if depth < 2 else 3))
    column = draw(st.sampled_from(["a", "b", "s"]))

    def literal() -> str:
        value = draw(st.integers(-2, 32))
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
    logical = Binder(catalog).bind_select(parse_statement(query))
    optimized = Optimizer(catalog).optimize(logical)
    return PhysicalPlanner(**planner_knobs).plan(optimized)


def _scans(operator):
    if type(operator).__name__ == "TableScan":
        yield operator
    for child in operator.children():
        yield from _scans(child)


class TestPruningNeverLosesRows:
    @given(tables(), predicates())
    @settings(max_examples=300, deadline=None)
    def test_same_rows_with_and_without_ranges(self, table, predicate):
        query = f"SELECT a, b, s, tid FROM t WHERE {predicate}"
        pruned = _plan(table, query, parallelism=1)
        unpruned = _plan(table, query, parallelism=1, derive_scan_ranges=False)
        assert collect(pruned).to_pylist() == collect(unpruned).to_pylist()
        verify_plan(pruned)
        for scan in _scans(pruned):
            ranges = scan.scan_ranges
            if ranges is None:
                continue
            flat = [edge for span in ranges for edge in span]
            # sorted, disjoint (and coalesced), inside the table
            assert flat == sorted(flat) and len(set(flat)) == len(flat)
            assert not flat or (flat[0] >= 0 and flat[-1] <= table.row_count)

    @given(tables(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_parallel_fragments_prune_the_same(self, table, predicate):
        # ORDER BY: only a terminal fans out, and a stable parallel
        # sort returns ties in rowid order however the morsels split.
        query = f"SELECT a, b, s FROM t WHERE {predicate} ORDER BY b"
        knobs = dict(parallelism=2, morsel_size=4)
        pruned = collect(_plan(table, query, **knobs)).to_pylist()
        unpruned = collect(
            _plan(table, query, derive_scan_ranges=False, **knobs)
        ).to_pylist()
        assert pruned == unpruned


def _covered(operator) -> int:
    return sum(
        stop - start
        for scan in _scans(operator)
        for start, stop in (scan.scan_ranges or [(0, scan.table.row_count)])
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

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_between_scans_at_most_two_blocks(self, database, parallelism):
        """Both bounds of a BETWEEN prune: a 1000-row range on an
        ascending key touches the one or two 4096-row blocks holding it,
        not every block from the lower bound to the end of the table."""
        for low in (0, 4000, 77_777, 150_000, 199_000):
            result = database.sql(
                f"SELECT COUNT(*) AS n, SUM(v) AS x FROM t "
                f"WHERE k BETWEEN {low} AND {low + 999}",
                parallelism=parallelism,
                profile=True,
            )
            assert result.to_pylist()[0][0] == 1000
            scanned = sum(n.rows for n in result.profile.find("TableScan"))
            assert 1000 <= scanned <= 8192

    def test_connectives(self, database):
        table = database.table("t")

        def covered(where: str) -> int:
            return _covered(_plan(table, f"SELECT v FROM t WHERE {where}", parallelism=1))

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
        rewritten = database.sql(query, parallelism=1, profile=True)
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

    def test_parallel_use_branch_prunes_its_morsels(self, database):
        query = "SELECT DISTINCT u FROM t WHERE k BETWEEN 3000 AND 5000"
        logical = Binder(database.catalog).bind_select(parse_statement(query))
        operator = PhysicalPlanner(parallelism=2, morsel_size=16).plan(
            Optimizer(database.catalog).optimize(logical)
        )
        [parallel] = _find(operator, "ParallelDistinct")
        assert sum(morsel.rows for morsel in parallel.morsels) <= 2 * 4096
        # The exclude branch's scan carries the same ranges.
        ranges = {
            tuple(scan.scan_ranges) for scan in _scans(parallel.template)
        } | {
            tuple(scan.scan_ranges)
            for scan in _scans(operator)
        }
        assert len(ranges) == 1
        plain = PhysicalPlanner(parallelism=1).plan(logical)
        assert sorted(collect(operator).to_pylist()) == sorted(
            collect(plain).to_pylist()
        )
