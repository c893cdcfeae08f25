"""Unit tests for per-block min/max sketches and block pruning.

Pruning weighs a predicate against a table's stacked sketches with one
vectorized compare per conjunct (:func:`repro.exec.operators.scan.
may_contain`).  Its reference is the per-block rule it replaced,
:func:`oracle_may_contain` below, with ranges intersected for AND and
united for OR (:func:`oracle_ranges`): the differential tests compare the
two over random blocks and random tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TypeMismatchError
from repro.exec.expressions import (
    FLIPPED_OPS,
    And,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Or,
)
from repro.exec.operators.scan import (
    _sketch_literal,
    may_contain,
    normalize_ranges,
    pruned_ranges,
)
from repro.storage.blocks import BlockStats, compute_block_stats, stack_sketches
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

_OPS = ["=", "<", "<=", ">", ">=", "!=", "<>"]


def oracle_may_contain(block: BlockStats, op: str, literal: object) -> bool:
    """Whether any row of *block* can satisfy ``col <op> literal``, one
    block at a time: an all-NULL block never, a NaN bound always."""
    if block.minimum is None or block.maximum is None:
        return False
    if block.minimum != block.minimum or block.maximum != block.maximum:
        return True  # a NaN bound: unknown range
    if op == "=":
        return block.minimum <= literal <= block.maximum
    if op == "<":
        return block.minimum < literal
    if op == "<=":
        return block.minimum <= literal
    if op == ">":
        return block.maximum > literal
    if op == ">=":
        return block.maximum >= literal
    if op in ("!=", "<>"):
        # A float block may also hold a NaN, which differs from every
        # literal.
        return isinstance(block.minimum, float) or not (
            block.minimum == block.maximum == literal
        )
    return True  # an unknown operator: never prune


def oracle_ranges(table: Table, predicate) -> list[tuple[int, int]] | None:
    """The rowid ranges the per-block rule keeps for *predicate*: AND
    intersects what its arms can tell, OR unites (and needs both), IN is
    the OR of its equalities; ``None`` when nothing can be told."""
    if isinstance(predicate, (And, Or)):
        left = oracle_ranges(table, predicate.left)
        right = oracle_ranges(table, predicate.right)
        if left is None or right is None:
            if isinstance(predicate, Or):
                return None
            return left if right is None else right
        if isinstance(predicate, And):
            return _intersect(left, right)
        return normalize_ranges(left + right, table.row_count)
    conjunct = _prunable_conjunct(predicate, table)
    if conjunct is None:
        return None
    column, op, values = conjunct
    ranges = [
        (partition.base_rowid + block.start, partition.base_rowid + block.stop)
        for partition in table.partitions
        for block in partition.block_stats(column)
        if any(oracle_may_contain(block, op, value) for value in values)
    ]
    return normalize_ranges(ranges, table.row_count)


def _prunable_conjunct(predicate, table):
    """``(column, op, literals)`` when *predicate* is ``column <op>
    literal`` (either way round) or ``column IN (literals)`` over a base
    column, with literals the column's sketches compare."""
    if isinstance(predicate, InList):
        if predicate.negated or not isinstance(predicate.operand, ColumnRef):
            return None
        column, op, candidates = predicate.operand.name, "=", predicate.values
    elif isinstance(predicate, Comparison):
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, Literal):
            left, right, op = right, left, FLIPPED_OPS[op]
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            return None
        column, candidates = left.name, (right.value,)
    else:
        return None
    if column not in table.schema or None in candidates:
        return None
    dtype = table.schema.field(column).dtype
    try:
        return column, op, [_sketch_literal(value, dtype) for value in candidates]
    except TypeMismatchError:
        return None


def _intersect(left, right):
    """Intersection of two sorted, disjoint range lists."""
    ranges = []
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        stop = min(left[i][1], right[j][1])
        if start < stop:
            ranges.append((start, stop))
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return ranges


def sketch_of(blocks, dtype=np.int64):
    return stack_sketches(((list(blocks), 0),), np.dtype(dtype))


def kept(blocks, op, literal, dtype=np.int64) -> list[bool]:
    return may_contain(sketch_of(blocks, dtype), op, literal).tolist()


class TestComputeBlockStats:
    def test_basic(self):
        vector = ColumnVector.from_pylist(DataType.INT64, list(range(10)))
        stats = compute_block_stats(vector, block_size=4)
        assert [(s.start, s.stop) for s in stats] == [(0, 4), (4, 8), (8, 10)]
        assert stats[0].minimum == 0 and stats[0].maximum == 3
        assert stats[2].minimum == 8 and stats[2].maximum == 9

    def test_nulls_counted_and_skipped(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [5, None, 7, None])
        stats = compute_block_stats(vector, block_size=4)
        assert stats[0].null_count == 2
        assert stats[0].minimum == 5
        assert stats[0].maximum == 7

    def test_all_null_block(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [None, None])
        stats = compute_block_stats(vector, block_size=2)
        assert stats[0].minimum is None
        assert stats[0].maximum is None

    def test_string_blocks(self):
        vector = ColumnVector.from_pylist(DataType.STRING, ["b", "a", "d"])
        stats = compute_block_stats(vector, block_size=8)
        assert stats[0].minimum == "a"
        assert stats[0].maximum == "d"


class TestMayContain:
    @pytest.fixture
    def block(self) -> BlockStats:
        return BlockStats(0, 10, 10, 20, 0)

    def test_equality(self, block):
        assert kept([block], "=", 15) == [True]
        assert kept([block], "=", 9) == [False]
        assert kept([block], "=", 21) == [False]

    def test_ranges(self, block):
        assert kept([block], ">", 19) == [True]
        assert kept([block], ">", 20) == [False]
        assert kept([block], ">=", 20) == [True]
        assert kept([block], "<", 11) == [True]
        assert kept([block], "<", 10) == [False]
        assert kept([block], "<=", 10) == [True]

    def test_not_equal(self):
        constant = BlockStats(0, 4, 7, 7, 0)
        assert kept([constant], "!=", 7) == [False]
        assert kept([constant], "!=", 8) == [True]

    def test_all_null_prunable(self):
        block = BlockStats(0, 4, None, None, 4)
        assert kept([block], "=", 1) == [False]
        assert kept([block], "!=", 1) == [False]

    def test_unknown_op_conservative(self, block):
        assert kept([block], "like", 0) == [True]

    def test_nan_bounds_never_prune(self):
        legacy = BlockStats(0, 4, math.nan, math.nan, 0)
        for op in _OPS:
            assert kept([legacy], op, 1.0, np.float64) == [True], op

    def test_an_int_beyond_two_to_the_53_against_float_bounds_is_exact(self):
        """``float(2**53 + 1)`` is ``2.0**53``: a rounded literal would
        keep a block it cannot match and prune one it can."""
        at = BlockStats(0, 4, 2.0**53, 2.0**53, 0)
        above = BlockStats(4, 8, 2.0**53 + 2, 2.0**53 + 2, 0)
        blocks = [at, above]
        assert kept(blocks, "=", 2**53 + 1, np.float64) == [False, False]
        assert kept(blocks, ">", 2**53, np.float64) == [False, True]
        assert kept(blocks, "<", 2**53 + 1, np.float64) == [True, False]
        assert kept(blocks, ">=", 2**53 + 1, np.float64) == [False, True]
        assert kept(blocks, "<=", -(2**53 + 1), np.float64) == [False, False]
        assert kept(blocks, "<", 10**400, np.float64) == [True, True]


class TestPruneBlocks:
    def test_coalesces_adjacent(self):
        sketch = sketch_of(
            [
                BlockStats(0, 4, 0, 3, 0),
                BlockStats(4, 8, 4, 7, 0),
                BlockStats(8, 12, 100, 110, 0),
            ]
        )
        assert sketch.ranges(may_contain(sketch, "<", 8)) == [(0, 8)]

    def test_disjoint_ranges(self):
        sketch = sketch_of(
            [
                BlockStats(0, 4, 0, 3, 0),
                BlockStats(4, 8, 50, 60, 0),
                BlockStats(8, 12, 1, 2, 0),
            ]
        )
        assert sketch.ranges(may_contain(sketch, "<=", 3)) == [(0, 4), (8, 12)]

    def test_nothing_survives(self):
        sketch = sketch_of([BlockStats(0, 4, 0, 3, 0)])
        assert sketch.ranges(may_contain(sketch, ">", 99)) == []

    def test_partitions_stack_at_their_base_rowids(self):
        first = [BlockStats(0, 4, 0, 3, 0), BlockStats(4, 6, 4, 5, 0)]
        second = [BlockStats(0, 4, 6, 9, 0)]
        sketch = stack_sketches(((first, 0), (second, 6)), np.dtype(np.int64))
        assert sketch.spans == [(0, 4), (4, 6), (6, 10)]
        # The short block ends where the next partition starts: one range.
        assert sketch.ranges(may_contain(sketch, ">=", 4)) == [(4, 10)]


# -- differential: the vectorized rule against the per-block one ---------------

_BIG = 2.0**53
_FLOAT_BOUNDS = [
    -_BIG, _BIG, -(_BIG + 2), _BIG + 2, -1.5, 0.0, -0.0, 2.5, 7.0,
    math.inf, -math.inf,
]
_FLOAT_LITERALS = [
    2**53, 2**53 + 1, -(2**53), -(2**53 + 1), 2**53 + 2, 0, 7, 10**400,
    -(10**400), 2.5, -1.5, 0.0, 7.0, math.inf, -math.inf,
]


@st.composite
def float_blocks(draw):
    """Blocks of FLOAT64 bounds: NULL-only ones, NaN bounds, ±2**53."""
    blocks = []
    for at in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["bounds", "bounds", "null", "nan"]))
        if kind == "null":
            low = high = None
        elif kind == "nan":
            low, high = math.nan, draw(st.sampled_from([math.nan, 1.0]))
        else:
            low, high = sorted(draw(st.lists(st.sampled_from(_FLOAT_BOUNDS), min_size=2, max_size=2)))
        blocks.append(BlockStats(4 * at, 4 * at + 4, low, high, 0))
    return blocks


@st.composite
def typed_blocks(draw, values):
    blocks = []
    for at in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            low = high = None
        else:
            low, high = sorted(draw(st.lists(values, min_size=2, max_size=2)))
        blocks.append(BlockStats(4 * at, 4 * at + 4, low, high, 0))
    return blocks


_INTS = st.integers(-(2**63), 2**63 - 1) | st.integers(-5, 5)
_STRINGS = st.text(alphabet="ab\x00é", max_size=3)


class TestDifferentialBlocks:
    @given(float_blocks(), st.sampled_from(_OPS), st.sampled_from(_FLOAT_LITERALS))
    @settings(max_examples=400, deadline=None)
    def test_float_bounds(self, blocks, op, value):
        literal = _sketch_literal(value, DataType.FLOAT64)
        expected = [oracle_may_contain(block, op, literal) for block in blocks]
        assert kept(blocks, op, literal, np.float64) == expected

    @given(typed_blocks(_INTS), st.sampled_from(_OPS), _INTS)
    @settings(max_examples=300, deadline=None)
    def test_int_bounds(self, blocks, op, literal):
        expected = [oracle_may_contain(block, op, literal) for block in blocks]
        assert kept(blocks, op, literal) == expected

    @given(typed_blocks(_STRINGS), st.sampled_from(_OPS), _STRINGS)
    @settings(max_examples=300, deadline=None)
    def test_string_bounds(self, blocks, op, literal):
        expected = [oracle_may_contain(block, op, literal) for block in blocks]
        assert kept(blocks, op, literal, object) == expected


_SCHEMA = Schema(
    [
        Field("i", DataType.INT64),
        Field("f", DataType.FLOAT64),
        Field("s", DataType.STRING),
    ]
)
_F_CELLS = [None, math.nan, _BIG, -_BIG, _BIG + 2, 0.5, 3.0, 9.0, -2.0]


@st.composite
def rows(draw, count):
    out = []
    for __ in range(count):
        i = draw(st.none() | st.integers(0, 20))
        f = draw(st.sampled_from(_F_CELLS))
        out.append([i, f, None if i is None else f"k{i:02d}"])
    return out


@st.composite
def pruned_tables(draw):
    """Up to 40 rows over 1-3 partitions of 4-row blocks, sometimes
    clustered, then up to two INSERTs: a short last block."""
    loaded = draw(rows(draw(st.integers(0, 40))))
    if draw(st.booleans()):
        loaded.sort(key=lambda row: (row[0] is None, row[0] or 0))
    table = Table("t", _SCHEMA, draw(st.integers(1, 3)), block_size=4)
    columns = list(zip(*loaded)) if loaded else [[], [], []]
    table.load_columns(
        {
            field.name: ColumnVector.from_pylist(field.dtype, list(values))
            for field, values in zip(_SCHEMA, columns)
        }
    )
    for __ in range(draw(st.integers(0, 2))):
        table.block_sketch("i")  # stacked before the append: grown after
        table.insert_rows(draw(rows(draw(st.integers(1, 5)))))
    return table


@st.composite
def conjuncts(draw, depth=0):
    shape = draw(st.integers(0, 4 if depth < 2 else 2))
    column = draw(st.sampled_from(["i", "f", "s"]))

    def value():
        if column == "f":
            return draw(st.sampled_from(_FLOAT_LITERALS))
        number = draw(st.integers(-1, 22))
        return f"k{number:02d}" if column == "s" else number

    if shape == 0:
        op = draw(st.sampled_from(_OPS))
        if draw(st.booleans()):
            return Comparison(op, ColumnRef(column), Literal(value()))
        return Comparison(op, Literal(value()), ColumnRef(column))
    if shape == 1:
        values = tuple(value() for __ in range(draw(st.integers(1, 3))))
        return InList(ColumnRef(column), values, draw(st.booleans()))
    if shape == 2:
        return Comparison("=", ColumnRef(column), ColumnRef(column))
    left, right = draw(conjuncts(depth + 1)), draw(conjuncts(depth + 1))
    return And(left, right) if shape == 3 else Or(left, right)


class TestDifferentialTables:
    @given(pruned_tables(), conjuncts())
    @settings(max_examples=300, deadline=None)
    def test_pruned_ranges_equal_the_per_block_rule(self, table, predicate):
        assert pruned_ranges(table, predicate) == oracle_ranges(table, predicate)

    def test_a_short_last_block_after_an_insert(self):
        table = Table("t", _SCHEMA, 2, block_size=4)
        table.insert_rows([[n, float(n), f"k{n:02d}"] for n in range(10)])
        before = table.block_sketch("i")
        table.insert_rows([[40, 40.0, "k40"], [41, 41.0, "k41"]])
        after = table.block_sketch("i")
        assert after is not before
        assert after.spans == [(0, 4), (4, 8), (8, 12)]
        assert after.high.tolist()[-1] == 41
        predicate = Comparison(">", ColumnRef("i"), Literal(20))
        assert pruned_ranges(table, predicate) == [(8, 12)]
        assert pruned_ranges(table, predicate) == oracle_ranges(table, predicate)


class TestSketchGrowth:
    """A table keeps the stacked sketch of every column a read pruned on
    current as it changes, converting only the blocks that changed: an
    INSERT never restacks the whole table, and a snapshot copy taken
    after it inherits the sketch as it is."""

    @staticmethod
    def _table():
        table = Table("t", _SCHEMA, 4, block_size=4)
        table.load_columns(
            {
                "i": ColumnVector.from_pylist(DataType.INT64, list(range(100))),
                "f": ColumnVector.from_pylist(DataType.FLOAT64, [0.5] * 100),
                "s": ColumnVector.from_pylist(DataType.STRING, ["k"] * 100),
            }
        )
        return table

    def test_an_insert_converts_only_the_blocks_past_the_last_full_one(
        self, monkeypatch
    ):
        from repro.storage import blocks

        table = self._table()
        predicate = Comparison(">=", ColumnRef("i"), Literal(90))
        # Four partitions of 25 rows: the last holds rowids 75..99 in
        # blocks starting at its rows 0, 4, .., 24 (a one-row block).
        assert pruned_ranges(table, predicate) == [(87, 100)]
        converted = []
        original = blocks._record

        def counting(block, filler):
            converted.append((block.start, block.stop))
            return original(block, filler)

        monkeypatch.setattr(blocks, "_record", counting)
        table.insert_rows([[100 + n, 0.5, "k"] for n in range(3)])
        # The last partition's short block grew: it alone is converted,
        # at the INSERT, not at the next read.
        assert converted == [(24, 28)]
        copy = table.copy()
        assert copy.block_sketch("i") is table.block_sketch("i")
        assert pruned_ranges(copy, predicate) == [(87, 103)]
        assert converted == [(24, 28)]
        assert pruned_ranges(copy, predicate) == oracle_ranges(copy, predicate)

    def test_a_delete_restacks_from_its_first_block(self, monkeypatch):
        from repro.storage import blocks

        table = self._table()
        predicate = Comparison("<", ColumnRef("i"), Literal(10))
        assert pruned_ranges(table, predicate) == [(0, 12)]
        converted = []
        original = blocks._record
        monkeypatch.setattr(
            blocks,
            "_record",
            lambda block, filler: converted.append(block.start)
            or original(block, filler),
        )
        table.delete_rowids([97])
        # Rowid 97 is row 22 of the last partition, in its block from row
        # 20; the partition keeps 24 rows, so that block is its last and
        # the only one sketched again.
        assert converted == [20]
        assert pruned_ranges(table, predicate) == oracle_ranges(table, predicate)

