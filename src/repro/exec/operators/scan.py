"""Table scan with scan-range pruning and optional ``tid`` column.

The scan walks partitions in order and emits batches whose rowids are
contiguous runs of global tuple identifiers — the property the
PatchSelect operator depends on (paper §VI-A1).  A ``use_patches``
PatchSelect instead hands the scan the patch rowids of its ranges
(:attr:`TableScan.gather`); the scan then emits only those rows, in
rowid order, reading only the blocks that hold one.

A range scan reads each column in *runs* of several batches
(:data:`MAX_RUN_BATCHES`), so a segment-backed column decodes many
blocks per call, and emits batch-sized views of the run.  Its batches
carry their rowids as a ``(start, stop)`` window
(:class:`~repro.exec.batch.RecordBatch`), built into an array only if
something reads it.

Scan ranges (global ``[start, stop)`` rowid intervals) restrict the scan
to the given intervals.  The planner gives a scan its filter's predicate
instead (:attr:`TableScan.prune`), and every run derives its ranges when
it opens, from the values the run binds: :func:`pruned_ranges` weighs
each ``column <op> literal`` / ``column IN (...)`` conjunct against the
column's per-block min/max sketches, stacked per table
(:class:`~repro.storage.blocks.BlockSketch`), with one vectorized compare
— the "small materialized aggregates" mechanism the paper references.
A plan tree therefore holds no ranges that depend on a literal, and a
cached tree serves every binding of its statement.

When *with_tid* is set, the scan additionally materializes the virtual
``tid`` column of tuple identifiers, which the paper's NUC discovery
query selects.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import PlanError, TypeMismatchError
from repro.exec.batch import DEFAULT_BATCH_SIZE, RecordBatch
from repro.exec.expressions import (
    FLIPPED_OPS,
    And,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Or,
    float_operand,
)
from repro.exec.operators.base import Operator
from repro.storage.blocks import BlockSketch
from repro.storage.cache import ScanIO
from repro.storage.column import ColumnVector
from repro.storage.partition import Partition
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType
from repro.types.datatypes import coerce_scalar, numpy_dtype

#: Name of the virtual tuple-identifier column.
TID_COLUMN = "tid"

#: One batch of work: a ``(start, stop, run)`` rowid range, or an
#: array of gathered rowids.
_Piece = tuple[int, int, tuple[int, int]] | np.ndarray

#: Most batches one run reads per column.  A range scan reads its
#: columns in runs of 1, 2, 4 and then 8 batches (clipped to the
#: partition and the scan range) and emits batch-sized views of them:
#: a long scan decodes 32 blocks a call, a ``LIMIT`` that stops after
#: its first batch decodes only that batch's blocks.
MAX_RUN_BATCHES = 8


def normalize_ranges(
    scan_ranges: list[tuple[int, int]] | None, total: int
) -> list[tuple[int, int]] | None:
    """Validate, sort, merge and clip ``[start, stop)`` rowid ranges.

    Negative starts and stops beyond *total* are clipped, empty and
    inverted ranges are dropped, and overlapping or adjacent ranges are
    merged.  ``None`` (no restriction) passes through.
    """
    if scan_ranges is None:
        return None
    cleaned: list[tuple[int, int]] = []
    for start, stop in sorted(scan_ranges):
        start = max(0, start)
        stop = min(total, stop)
        if start >= stop:
            continue
        if cleaned and start <= cleaned[-1][1]:
            cleaned[-1] = (cleaned[-1][0], max(cleaned[-1][1], stop))
        else:
            cleaned.append((start, stop))
    return cleaned


class _Leaf(NamedTuple):
    """A ``column <op> literal`` or ``column IN (literals)`` conjunct:
    what the sketches weigh; its literals are read anew each run."""

    column: str
    op: str
    dtype: DataType
    literals: tuple[Literal, ...]


class _Connective(NamedTuple):
    """AND (*conjunction*) or OR of two arms; ``None``: an arm the
    sketches say nothing about."""

    conjunction: bool
    left: "_Leaf | _Connective | None"
    right: "_Leaf | _Connective | None"


def pruned_ranges(
    table: Table, predicate: Expression
) -> list[tuple[int, int]] | None:
    """Global rowid ranges of the blocks *predicate* cannot rule out:
    sorted, disjoint, coalesced and inside the table.

    ``None`` when the min/max sketches say nothing about it.  AND keeps
    the blocks every arm it can weigh keeps (one such arm is enough);
    OR the blocks either arm keeps, and so needs both; IN is the OR of
    its equalities; anything else — NOT, arithmetic, column-to-column
    comparisons, IS NULL, a NULL literal or one the column's type cannot
    hold — never prunes.
    """
    return _ranges(table, _compile(predicate, table))


def _ranges(
    table: Table, pruner: "_Leaf | _Connective | None"
) -> list[tuple[int, int]] | None:
    surviving = _surviving_blocks(table, pruner)
    if surviving is None:
        return None
    keep, sketch = surviving
    return sketch.ranges(keep)


def _compile(
    predicate: Expression, table: Table
) -> "_Leaf | _Connective | None":
    """*predicate*'s shape as the sketches weigh it, which no literal's
    value changes."""
    if isinstance(predicate, (And, Or)):
        return _Connective(
            isinstance(predicate, And),
            _compile(predicate.left, table),
            _compile(predicate.right, table),
        )
    literals: tuple[Literal, ...]
    if isinstance(predicate, InList):
        if predicate.negated or not isinstance(predicate.operand, ColumnRef):
            return None
        column, op = predicate.operand.name, "="
        literals = tuple(Literal(value) for value in predicate.values)
    elif isinstance(predicate, Comparison):
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, Literal):
            left, right, op = right, left, FLIPPED_OPS[op]
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            return None
        column, literals = left.name, (right,)
    else:
        return None
    # Base columns only: the virtual tid column has no sketches.
    if column not in table.schema:
        return None
    return _Leaf(column, op, table.schema.field(column).dtype, literals)


def _surviving_blocks(
    table: Table, pruner: "_Leaf | _Connective | None"
) -> tuple[np.ndarray, BlockSketch] | None:
    """The mask of the table's blocks *pruner* may match with its
    literals' values now, and a sketch of the block grid it indexes;
    ``None``: unknown."""
    if pruner is None:
        return None
    if isinstance(pruner, _Connective):
        left = _surviving_blocks(table, pruner.left)
        right = _surviving_blocks(table, pruner.right)
        if left is None or right is None:
            if not pruner.conjunction:
                return None
            return left if right is None else right
        if pruner.conjunction:
            return left[0] & right[0], left[1]
        return left[0] | right[0], left[1]
    values: list[object] = []
    for literal in pruner.literals:
        value = literal.value
        if value is None:
            return None
        try:
            values.append(_sketch_literal(value, pruner.dtype))
        except TypeMismatchError:
            return None
    sketch = table.block_sketch(pruner.column)
    keep = may_contain(sketch, pruner.op, values[0])
    for value in values[1:]:
        keep |= may_contain(sketch, pruner.op, value)
    return keep, sketch


def may_contain(sketch: BlockSketch, op: str, literal: object) -> np.ndarray:
    """Which blocks may hold a row with ``column <op> literal``: a block
    of NULLs only never does, one with a NaN bound always may.

    *literal* is :func:`_sketch_literal`'s: an int against FLOAT64
    bounds is compared exactly, through the float that orders the
    bounds as the int does (:func:`~repro.exec.expressions.float_operand`).
    """
    if op in ("!=", "<>"):
        if sketch.low.dtype.kind == "f":
            # A float block may also hold a NaN, which the bounds leave
            # out and which differs from every literal.
            hit = sketch.known.copy()
        else:
            hit = _bound(sketch.low, "=", literal)
            hit &= _bound(sketch.high, "=", literal)
            hit = ~hit
    elif op == "=":
        hit = _bound(sketch.low, "<=", literal)
        hit &= _bound(sketch.high, ">=", literal)
    elif op in ("<", "<="):
        hit = _bound(sketch.low, op, literal)
    elif op in (">", ">="):
        hit = _bound(sketch.high, op, literal)
    else:  # an unknown operator never prunes
        hit = sketch.known.copy()
    if sketch.all_known:
        return hit
    hit &= sketch.known
    hit |= sketch.unknown
    return hit


_BOUND_OPS = {
    "=": np.equal, "<": np.less, "<=": np.less_equal,
    ">": np.greater, ">=": np.greater_equal,
}


def _bound(bounds: np.ndarray, op: str, literal: object) -> np.ndarray:
    """``bounds <op> literal``, element by element, exactly."""
    kind = bounds.dtype.kind
    if kind == "f" and type(literal) is int:
        op, literal = float_operand(op, literal)
    elif kind == "O":
        # As an object, not a NumPy str scalar, which drops trailing NULs.
        literal = np.array(literal, dtype=object)
    hit: np.ndarray = _BOUND_OPS[op](bounds, literal)
    return hit


def _sketch_literal(value: object, dtype: DataType) -> object:
    """*value* as a block sketch's bounds compare with it.  An int
    against a FLOAT64 column stays an int, compared exactly as the
    filter compares it, where ``float(value)`` rounds (or overflows) and
    would prune blocks that match."""
    if dtype == DataType.FLOAT64 and type(value) is int:
        return value
    return coerce_scalar(value, dtype)


class TableScan(Operator):
    """Scans a table, batch by batch, partition by partition."""

    def __init__(
        self,
        table: Table,
        columns: list[str] | None = None,
        scan_ranges: list[tuple[int, int]] | None = None,
        with_tid: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
        prune: Expression | None = None,
    ):
        self.table = table
        self.column_names = (
            list(columns) if columns is not None else list(table.schema.names)
        )
        fields = [table.schema.field(name) for name in self.column_names]
        if with_tid:
            if TID_COLUMN in self.column_names:
                raise PlanError(f"table already has a {TID_COLUMN!r} column")
            fields.append(Field(TID_COLUMN, DataType.INT64, nullable=False))
        if prune is not None and scan_ranges is not None:
            raise PlanError("a scan takes fixed ranges or a prune predicate")
        self._schema = Schema(fields)
        self.with_tid = with_tid
        self.batch_size = batch_size
        #: Fixed ranges, or ``None``: every row, less what :attr:`prune`
        #: rules out.
        self.scan_ranges = normalize_ranges(scan_ranges, table.row_count)
        self.prune = prune
        #: Ascending global rowids, inside the scan ranges, to emit
        #: instead of every covered row; set before :meth:`open`, which
        #: takes it.
        self.gather: np.ndarray | None = None
        self._cursor: list[_Piece] | None = None
        #: The run the last range batch came from and its column vectors.
        self._run: tuple[int, int] | None = None
        self._run_columns: dict[str, ColumnVector] = {}
        #: Decode / block-cache accounting for segment-backed columns of
        #: the last run (surfaced as EXPLAIN ANALYZE details).
        self.io = ScanIO()

    @property
    def prune(self) -> Expression | None:
        """A predicate the scan's rows are filtered by above it; each
        run skips the blocks whose sketches rule it out (:meth:`ranges`)."""
        return self._prune

    @prune.setter
    def prune(self, predicate: Expression | None) -> None:
        self._prune = predicate
        self._pruner = (
            None if predicate is None else _compile(predicate, self.table)
        )

    def ranges(self) -> list[tuple[int, int]] | None:
        """The normalized rowid ranges a run covers now: the fixed ones,
        or those of the blocks :attr:`prune` cannot rule out with the
        values its literals hold now (``None``: the whole table)."""
        if self._prune is None:
            return self.scan_ranges
        return _ranges(self.table, self._pruner)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return []

    def open(self) -> None:
        # Pre-compute the batch work list: global (start, stop, run)
        # pieces, or arrays of gathered rowids, never crossing a
        # partition boundary and each at most batch_size rows.  A run is
        # the (start, stop) window of consecutive pieces whose columns
        # are read in one go.
        pieces: list[_Piece] = []
        gather, self.gather = self.gather, None
        self.io = ScanIO()
        covered = self.ranges() if gather is None else []
        ranges = [(0, self.table.row_count)] if covered is None else covered
        planned = 0
        run_batches = 1
        for partition in self.table.partitions:
            p_start, p_stop = partition.rowid_range
            if gather is not None:
                lo, hi = np.searchsorted(gather, (p_start, p_stop))
                rowids = gather[lo:hi]
                pieces.extend(
                    rowids[at : at + self.batch_size]
                    for at in range(0, len(rowids), self.batch_size)
                )
                planned += _block_rows(
                    partition, rowids - p_start
                ) * self._row_bytes(partition)
                continue
            for r_start, r_stop in ranges:
                if r_start >= p_stop:
                    break  # the ranges are sorted
                lo = max(p_start, r_start)
                hi = min(p_stop, r_stop)
                if lo >= hi:
                    continue
                planned += (hi - lo) * self._row_bytes(partition)
                position = lo
                while position < hi:
                    run_stop = min(position + run_batches * self.batch_size, hi)
                    run = (position, run_stop)
                    run_batches = min(2 * run_batches, MAX_RUN_BATCHES)
                    while position < run_stop:
                        stop = min(position + self.batch_size, run_stop)
                        pieces.append((position, stop, run))
                        position = stop
        pieces.reverse()  # pop() from the end keeps order
        self._cursor = pieces
        self._run = None
        self._run_columns = {}
        # What this scan will pull through the block cache; one that
        # cannot fit is read around it (SegmentColumnSource._decode_run).
        self.io.planned_bytes = planned

    def _row_bytes(self, partition: Partition) -> int:
        """Decoded bytes per row of the columns *partition* still reads
        from segments through the block cache."""
        return sum(
            numpy_dtype(field.dtype).itemsize
            for field in self._schema
            if partition.is_lazy(field.name)
        )

    def next_batch(self) -> RecordBatch | None:
        if self._cursor is None:
            raise PlanError("scan used before open()")
        if not self._cursor:
            return None
        piece = self._cursor.pop()
        if isinstance(piece, tuple):
            start, stop, run = piece
            if run != self._run:
                self._read_run(run)
            offset = start - run[0]
            columns: dict[str, ColumnVector] = {
                name: vector.slice(offset, offset + stop - start)
                for name, vector in self._run_columns.items()
            }
            if not self.with_tid:
                return RecordBatch(self._schema, columns, window=(start, stop))
            rowids = np.arange(start, stop, dtype=np.int64)
        else:
            rowids = piece
            partition = self.table.partition_of_rowid(int(rowids[0]))
            positions = rowids - partition.base_rowid
            columns = {
                name: partition.column_take(name, positions, self.io)
                for name in self.column_names
            }
        if self.with_tid:
            columns[TID_COLUMN] = ColumnVector(DataType.INT64, rowids)
        return RecordBatch(self._schema, columns, rowids)

    def _read_run(self, run: tuple[int, int]) -> None:
        """Read every column's rows of *run*; batches are views of them.

        Each run gets fresh vectors, never a reused buffer, since the
        batches of the last run may still be held downstream.
        """
        partition = self.table.partition_of_rowid(run[0])
        lo, hi = run[0] - partition.base_rowid, run[1] - partition.base_rowid
        self._run = run
        self._run_columns = {
            name: partition.column_slice(name, lo, hi, self.io)
            for name in self.column_names
        }

    def close(self) -> None:
        self._cursor = None
        self._run = None
        self._run_columns = {}

    def label(self) -> str:
        parts = [f"TableScan({self.table.name}"]
        ranges = self.ranges()
        if ranges is not None:
            covered = sum(stop - start for start, stop in ranges)
            parts.append(f", ranges={len(ranges)} rows={covered}")
        if self.with_tid:
            parts.append(", +tid")
        parts.append(")")
        return "".join(parts)


def _block_rows(partition: Partition, positions: np.ndarray) -> int:
    """Rows of the *partition* blocks that hold one of *positions*."""
    if not len(positions):
        return 0
    size = partition.block_size
    blocks = positions // size
    touched = 1 + int(np.count_nonzero(np.diff(blocks)))
    # Only the partition's last block can be short.
    short = (int(blocks[-1]) + 1) * size - partition.row_count
    return touched * size - max(0, short)
