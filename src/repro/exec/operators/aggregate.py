"""Hash aggregation: GROUP BY with COUNT / SUM / MIN / MAX / AVG /
COUNT(DISTINCT).

This operator is the "very expensive hash-based aggregation" the
distinct use case of the paper avoids for the constraint-satisfying
majority of tuples (§VI-B1).  The implementation is fully vectorized:
group keys are factorized to dense group ids, and every aggregate
function reduces with NumPy scatter kernels — so its cost scales with
input size *and* the number of groups, matching the cost behaviour the
paper's evaluation discusses (more duplicates → fewer groups → faster
aggregation).

SQL semantics implemented:

- GROUP BY treats all NULL keys as one group;
- COUNT(col) / COUNT(DISTINCT col) ignore NULLs, COUNT(*) does not;
- SUM/MIN/MAX/AVG over an empty (all-NULL) group yield NULL;
- aggregation without GROUP BY emits exactly one row even on empty
  input (COUNT = 0, others NULL);
- SUM and AVG over INT64 add exact integers: AVG of an INT64 column is
  the int64 sums of each value's 32-bit halves, combined once in
  float64, so it neither wraps nor depends on the summation order; an
  INT64 SUM whose exact value leaves INT64 raises
  :class:`~repro.errors.NumericOverflowError` (PostgreSQL's ``bigint
  out of range``) instead of wrapping (:func:`check_int64_sum`).

Aggregation without GROUP BY or COUNT(DISTINCT) holds at most
:data:`FOLD_ROWS` rows of its input: it folds batches into *partial*
rows as they arrive and combines those rows at the end of input
(:func:`two_phase_specs`).  Grouped and COUNT(DISTINCT) aggregation drain and
concatenate their input first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import NumericOverflowError, PlanError, TypeMismatchError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType, is_numeric
from repro.types.datatypes import numpy_dtype

#: The two halves an INT64 value splits into for an exact AVG: the
#: signed high and the unsigned low 32 bits.  Their int64 sums cannot
#: wrap below 2**31 rows.  SQL never names them; an ungrouped AVG
#: carries them as its partial rows.
INT64_HALVES = {
    "sum_high": lambda values: values >> 32,
    "sum_low": lambda values: values & 0xFFFFFFFF,
}

#: The partials an ungrouped INT64 SUM folds with, and their types: its
#: int64 sum, which may wrap, and the same sum added in float64, from
#: which the final step tells whether it did (:func:`check_int64_sum`).
#: SQL never names them.
INT64_SUM_PARTS = {"sum_wrapping": DataType.INT64, "sum_shadow": DataType.FLOAT64}

#: A float64 shadow of an INT64 sum under this magnitude proves the sum
#: did not wrap (:func:`check_int64_sum`).
_SHADOW_BOUND = 2.0**62

#: Rows an ungrouped aggregate holds before it reduces them to one
#: partial row.  Partial rows cost Python per batch (a two-row UnionAll
#: folded in 28 us against 12 us concatenated and reduced once), more
#: than concatenating a few thousand rows, so smaller batches (a
#: UnionAll of one-row counts, a point read's rows) are concatenated and
#: reduced together; scan batches are reduced one by one.
FOLD_ROWS = 4096

_AGG_FUNCS = frozenset(
    {"count", "count_star", "count_distinct", "sum", "min", "max", "avg"}
) | frozenset(INT64_HALVES) | frozenset(INT64_SUM_PARTS)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: function, input column (None for COUNT(*)), alias."""

    func: str
    column: str | None
    alias: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise PlanError(f"unknown aggregate function {self.func!r}")
        if self.func == "count_star" and self.column is not None:
            raise PlanError("count_star takes no column")
        if self.func != "count_star" and self.column is None:
            raise PlanError(f"{self.func} requires a column")

    def output_field(self, input_schema: Schema) -> Field:
        if self.func in ("count", "count_star", "count_distinct"):
            return Field(self.alias, DataType.INT64, nullable=False)
        dtype = input_schema.field(self.column).dtype
        if self.func in INT64_HALVES or self.func in INT64_SUM_PARTS:
            if dtype != DataType.INT64:
                raise TypeMismatchError(f"{self.func} requires an INT64 column")
            return Field(self.alias, INT64_SUM_PARTS.get(self.func, DataType.INT64))
        if self.func == "avg":
            if not is_numeric(dtype):
                raise TypeMismatchError("avg requires a numeric column")
            return Field(self.alias, DataType.FLOAT64)
        if self.func == "sum":
            if not is_numeric(dtype):
                raise TypeMismatchError("sum requires a numeric column")
            return Field(self.alias, dtype)
        return Field(self.alias, dtype)  # min / max


class HashAggregate(Operator):
    """Blocking aggregation operator."""

    def __init__(
        self,
        child: Operator,
        group_by: list[str],
        aggregates: list[AggregateSpec],
    ):
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        fields = [child.schema.field(name) for name in self.group_by]
        fields.extend(spec.output_field(child.schema) for spec in self.aggregates)
        if not fields:
            raise PlanError("aggregation produces no columns")
        self._schema = Schema(fields)
        #: Whether the input folds batch by batch (see :meth:`_fold`).
        self._folds = not self.group_by and all(
            spec.func != "count_distinct" for spec in self.aggregates
        )
        self._done = False

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.child]

    def open(self) -> None:
        super().open()
        self._done = False

    def next_batch(self) -> RecordBatch | None:
        if self._done:
            return None
        self._done = True
        if self._folds:
            return self._fold()
        data = self.child.drain()
        if data is None:
            data = RecordBatch.empty(self.child.schema)
        if self.group_by:
            return self._grouped(data)
        return _reduce(self.aggregates, data, self._schema)

    def _fold(self) -> RecordBatch:
        """Reduce the input to partial rows as it arrives, then the rows.

        Batches are held until they reach :data:`FOLD_ROWS` rows and
        reduced together; an input that never does is reduced whole,
        with no partials.
        """
        held: list[RecordBatch] = []
        rows = 0
        partials: list[RecordBatch] = []
        while (batch := self.child.next_batch()) is not None:
            if not len(batch):
                continue
            held.append(batch)
            rows += len(batch)
            if rows >= FOLD_ROWS:
                partials.append(self._partial_row(held))
                held, rows = [], 0
        if not partials:
            data = _one_batch(held) if held else RecordBatch.empty(self.child.schema)
            return _reduce(self.aggregates, data, self._schema)
        if held:
            partials.append(self._partial_row(held))
        __, __, final, final_schema = self._two_phase
        merged = _reduce(final, RecordBatch.concat(partials), final_schema)
        return finish_aggregates(merged, [], self.aggregates, self._schema)

    def _partial_row(self, held: list[RecordBatch]) -> RecordBatch:
        partial, partial_schema, __, __ = self._two_phase
        return _reduce(partial, _one_batch(held), partial_schema)

    @cached_property
    def _two_phase(
        self,
    ) -> tuple[list[AggregateSpec], Schema, list[AggregateSpec], Schema]:
        """Partial specs and their row schema, final specs and theirs."""
        partial, final = two_phase_specs(self.aggregates, self.child.schema)
        partial_schema = _output_schema(partial, self.child.schema)
        return partial, partial_schema, final, _output_schema(final, partial_schema)

    # -- grouping ---------------------------------------------------------

    def _grouped(self, data: RecordBatch) -> RecordBatch:
        group_ids, group_count, first_positions = _factorize_keys(
            [data.column(name) for name in self.group_by]
        )
        columns: dict[str, ColumnVector] = {}
        for name in self.group_by:
            columns[name] = data.column(name).take(first_positions)
        for spec in self.aggregates:
            columns[spec.alias] = _compute_grouped(
                spec, data, group_ids, group_count, self._schema
            )
        return RecordBatch(self._schema, columns)

    def label(self) -> str:
        keys = ", ".join(self.group_by) if self.group_by else "<global>"
        aggs = ", ".join(
            f"{spec.func}({spec.column or '*'}) AS {spec.alias}"
            for spec in self.aggregates
        )
        return f"HashAggregate(by=[{keys}], aggs=[{aggs}])"


# -- two-phase aggregation ------------------------------------------------------


def _partial_alias(func: str, spec: AggregateSpec) -> str:
    return f"__partial_{func}__{spec.alias}"


def _avg_partials(spec: AggregateSpec, input_schema: Schema) -> list[str]:
    """The partial functions one AVG carries.  Over INT64 they are
    integers — a count and the sums of the two 32-bit halves — which add
    associatively, so every split of the input yields the same bits."""
    if input_schema.field(spec.column).dtype == DataType.INT64:
        return ["count", *INT64_HALVES]
    return ["count", "sum"]


def two_phase_specs(
    aggregates: list[AggregateSpec], input_schema: Schema
) -> tuple[list[AggregateSpec], list[AggregateSpec]]:
    """Partial specs (over a piece of the input) and final specs (over
    the partial rows) that together compute *aggregates*: COUNT merges
    by summing, SUM / MIN / MAX by themselves, AVG through the partials
    of :func:`_avg_partials` and an INT64 SUM through
    :data:`INT64_SUM_PARTS`, both finished by :func:`finish_aggregates`."""
    partial: list[AggregateSpec] = []
    final: list[AggregateSpec] = []
    for spec in aggregates:
        if (
            spec.func == "sum"
            and input_schema.field(spec.column).dtype == DataType.INT64
        ):
            for func, merge in zip(INT64_SUM_PARTS, ("sum_wrapping", "sum")):
                alias = _partial_alias(func, spec)
                partial.append(AggregateSpec(func, spec.column, alias))
                final.append(AggregateSpec(merge, alias, alias))
        elif spec.func in ("count", "count_star"):
            partial.append(spec)
            final.append(AggregateSpec("sum", spec.alias, spec.alias))
        elif spec.func in ("sum", "min", "max", *INT64_HALVES):
            partial.append(spec)
            merge = "sum" if spec.func in INT64_HALVES else spec.func
            final.append(AggregateSpec(merge, spec.alias, spec.alias))
        elif spec.func == "avg":
            for func in _avg_partials(spec, input_schema):
                alias = _partial_alias(func, spec)
                partial.append(AggregateSpec(func, spec.column, alias))
                final.append(AggregateSpec("sum", alias, alias))
        else:
            raise PlanError(f"{spec.func!r} does not aggregate in two phases")
    return partial, final


def finish_aggregates(
    merged: RecordBatch,
    group_by: list[str],
    aggregates: list[AggregateSpec],
    schema: Schema,
) -> RecordBatch:
    """The *aggregates* of *schema* from the merged partials: AVG divides
    its merged sums by its count, an INT64 SUM is its merged int64 sum
    once checked against its shadow, every other column passes through."""
    columns: dict[str, ColumnVector] = {
        name: merged.column(name) for name in group_by
    }
    for spec in aggregates:
        if spec.func == "avg":
            columns[spec.alias] = _finish_avg(merged, spec)
        elif _partial_alias("sum_wrapping", spec) in merged.schema:
            wrapped = merged.column(_partial_alias("sum_wrapping", spec))
            shadow = merged.column(_partial_alias("sum_shadow", spec))
            check_int64_sum(wrapped.values[0], shadow.values[0], spec.column)
            columns[spec.alias] = wrapped
        else:
            columns[spec.alias] = merged.column(spec.alias)
    return RecordBatch(schema, columns)


def _finish_avg(merged: RecordBatch, spec: AggregateSpec) -> ColumnVector:
    """AVG from merged partials (NULL where no valid input)."""

    def part(func: str) -> np.ndarray:
        return merged.column(_partial_alias(func, spec)).values

    counts = part("count").astype(np.int64)
    empty = counts == 0
    if _partial_alias("sum", spec) in merged.schema:
        means = part("sum").astype(np.float64) / np.maximum(counts, 1)
    else:
        means = int64_mean(part("sum_high"), part("sum_low"), counts)
    validity = None if not empty.any() else ~empty
    return ColumnVector(DataType.FLOAT64, np.where(empty, 0.0, means), validity)


def _output_schema(aggregates: list[AggregateSpec], input_schema: Schema) -> Schema:
    return Schema(spec.output_field(input_schema) for spec in aggregates)


def _one_batch(batches: list[RecordBatch]) -> RecordBatch:
    return batches[0] if len(batches) == 1 else RecordBatch.concat(batches)


def _reduce(
    aggregates: list[AggregateSpec], data: RecordBatch, schema: Schema
) -> RecordBatch:
    """One row: each of *aggregates* over all of *data*."""
    return RecordBatch(
        schema,
        {spec.alias: _compute_scalar(spec, data, schema) for spec in aggregates},
    )


# -- vectorized kernels ---------------------------------------------------------


def _factorize_one(column: ColumnVector) -> tuple[np.ndarray, int]:
    """Map one column to dense codes; NULLs get their own (last) code."""
    n = len(column)
    validity = column.validity_or_all_true()
    codes = np.empty(n, dtype=np.int64)
    valid_positions = np.flatnonzero(validity)
    if len(valid_positions):
        __, inverse = np.unique(
            column.values[valid_positions], return_inverse=True
        )
        codes[valid_positions] = inverse
        distinct = int(inverse.max()) + 1
    else:
        distinct = 0
    has_nulls = len(valid_positions) != n
    if has_nulls:
        codes[~validity] = distinct
        distinct += 1
    return codes, distinct


def _factorize_keys(
    key_columns: list[ColumnVector],
) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense group ids for (possibly composite) keys.

    Returns ``(group_ids, group_count, first_positions)`` where
    ``first_positions[g]`` is the position of the first row of group
    ``g`` (used to materialize representative key values).  Group ids
    are ordered by key value (np.unique order), giving deterministic
    output order.
    """
    codes, cardinality = _factorize_one(key_columns[0])
    for column in key_columns[1:]:
        more_codes, more_cardinality = _factorize_one(column)
        combined = codes * more_cardinality + more_codes
        unique, codes = np.unique(combined, return_inverse=True)
        cardinality = len(unique)
    unique, first_positions, group_ids = np.unique(
        codes, return_index=True, return_inverse=True
    )
    return group_ids.astype(np.int64), len(unique), first_positions


def _compute_grouped(
    spec: AggregateSpec,
    data: RecordBatch,
    group_ids: np.ndarray,
    group_count: int,
    output_schema: Schema,
) -> ColumnVector:
    out_field = output_schema.field(spec.alias)
    if spec.func == "count_star":
        counts = np.bincount(group_ids, minlength=group_count)
        return ColumnVector(DataType.INT64, counts.astype(np.int64))

    column = data.column(spec.column)
    validity = column.validity_or_all_true()

    if spec.func == "count":
        counts = np.bincount(
            group_ids, weights=validity.astype(np.float64), minlength=group_count
        )
        return ColumnVector(DataType.INT64, counts.astype(np.int64))

    if spec.func == "count_distinct":
        valid_positions = np.flatnonzero(validity)
        if len(valid_positions) == 0:
            return ColumnVector(
                DataType.INT64, np.zeros(group_count, dtype=np.int64)
            )
        if group_count == 1:
            # Global COUNT(DISTINCT): no inverse needed, plain unique.
            distinct = len(np.unique(column.values[valid_positions]))
            return ColumnVector(
                DataType.INT64, np.asarray([distinct], dtype=np.int64)
            )
        value_codes, value_cardinality = _factorize_one(
            column.take(valid_positions)
        )
        pairs = group_ids[valid_positions] * value_cardinality + value_codes
        unique_pairs = np.unique(pairs)
        owning_groups = unique_pairs // value_cardinality
        counts = np.bincount(owning_groups, minlength=group_count)
        return ColumnVector(DataType.INT64, counts.astype(np.int64))

    # SUM / MIN / MAX / AVG below need the valid rows only.
    valid_positions = np.flatnonzero(validity)
    group_of_valid = group_ids[valid_positions]
    counts = np.bincount(group_of_valid, minlength=group_count)
    empty = counts == 0
    out_validity = None if not empty.any() else ~empty

    # INT64 sums stay in int64: a float64 accumulator drops low bits
    # past 2**53.
    if spec.func == "avg" and column.dtype == DataType.INT64:
        values = column.values[valid_positions]
        high, low = (
            _int64_sums(half(values), group_of_valid, group_count)
            for half in INT64_HALVES.values()
        )
        means = np.where(empty, 0.0, int64_mean(high, low, counts))
        return ColumnVector(DataType.FLOAT64, means, out_validity)
    if spec.func in ("sum", *INT64_HALVES) and out_field.dtype == DataType.INT64:
        values = column.values[valid_positions]
        if spec.func in INT64_HALVES:
            values = INT64_HALVES[spec.func](values)
        exact = _int64_sums(values, group_of_valid, group_count)
        if spec.func == "sum":
            shadow = np.bincount(group_of_valid, weights=values, minlength=group_count)
            for group in np.flatnonzero(np.abs(shadow) >= _SHADOW_BOUND):
                check_int64_sum(exact[group], shadow[group], spec.column)
        return ColumnVector(DataType.INT64, exact, out_validity)
    if spec.func in ("sum", "avg"):
        values = column.values[valid_positions].astype(np.float64)
        sums = np.bincount(group_of_valid, weights=values, minlength=group_count)
        if spec.func == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                means = np.where(empty, 0.0, sums / np.maximum(counts, 1))
            return ColumnVector(DataType.FLOAT64, means, out_validity)
        return ColumnVector(DataType.FLOAT64, sums, out_validity)

    # MIN / MAX
    values = column.values[valid_positions]
    if values.dtype == np.dtype(object):
        out = np.empty(group_count, dtype=object)
        out[:] = ""
        seen = np.zeros(group_count, dtype=np.bool_)
        better = (lambda a, b: a < b) if spec.func == "min" else (lambda a, b: a > b)
        for group, value in zip(group_of_valid.tolist(), values.tolist()):
            if not seen[group] or better(value, out[group]):
                out[group] = value
                seen[group] = True
        return ColumnVector(out_field.dtype, out, out_validity)
    if spec.func == "min":
        out = np.full(
            group_count, _extreme(values.dtype, maximum=True), dtype=values.dtype
        )
        np.minimum.at(out, group_of_valid, values)
        out[empty] = _fill(values.dtype)
    else:
        out = np.full(
            group_count, _extreme(values.dtype, maximum=False), dtype=values.dtype
        )
        np.maximum.at(out, group_of_valid, values)
        out[empty] = _fill(values.dtype)
    return ColumnVector(out_field.dtype, out.astype(values.dtype), out_validity)


def _compute_scalar(
    spec: AggregateSpec, data: RecordBatch, output_schema: Schema
) -> ColumnVector:
    """One ungrouped aggregate as a plain reduction over the valid values.

    COUNT(DISTINCT) and string MIN/MAX go through the grouped kernels
    with every row in group 0; their cost is not the group ids.
    """
    if spec.func == "count_star":
        return _one(DataType.INT64, len(data))
    column = data.column(spec.column)
    values = column.values
    if spec.func == "count_distinct" or (
        spec.func in ("min", "max") and values.dtype == np.dtype(object)
    ):
        return _compute_grouped(
            spec, data, np.zeros(len(data), dtype=np.int64), 1, output_schema
        )
    if spec.func == "count":
        return _one(DataType.INT64, len(values) - column.null_count())
    if column.validity is not None:
        values = values[column.validity]
    dtype = output_schema.field(spec.alias).dtype
    if not len(values):
        return ColumnVector(
            dtype,
            np.zeros(1, dtype=numpy_dtype(dtype)),
            np.zeros(1, dtype=np.bool_),
        )
    if spec.func in INT64_HALVES:
        return _one(dtype, INT64_HALVES[spec.func](values).sum())
    if spec.func == "sum_shadow":
        return _one(dtype, values.sum(dtype=np.float64))
    if spec.func == "sum" and dtype == DataType.INT64:
        total = values.sum()
        check_int64_sum(total, values.sum(dtype=np.float64), spec.column)
        return _one(dtype, total)
    if spec.func in ("sum", "sum_wrapping"):
        return _one(dtype, values.sum(dtype=numpy_dtype(dtype)))
    if spec.func == "avg" and column.dtype == DataType.INT64:
        high, low = (
            np.asarray([half(values).sum()]) for half in INT64_HALVES.values()
        )
        return ColumnVector(dtype, int64_mean(high, low, len(values)))
    if spec.func == "avg":
        return _one(dtype, values.sum(dtype=np.float64) / len(values))
    return _one(dtype, values.min() if spec.func == "min" else values.max())


def _int64_sums(
    values: np.ndarray, group_ids: np.ndarray, group_count: int
) -> np.ndarray:
    exact = np.zeros(group_count, dtype=np.int64)
    np.add.at(exact, group_ids, values)
    return exact


def check_int64_sum(wrapped: int, shadow: float, column: str) -> None:
    """Raise :class:`NumericOverflowError` unless *wrapped*, an int64 sum
    of *column*'s values, is their exact sum.

    *shadow* is the same sum added in float64.  Over n values of at most
    2**63 each, float64 ends within about n**2 * 2**10 of the exact sum
    S: under 2**60 below 2**25 rows.  So a shadow under
    :data:`_SHADOW_BOUND` proves that S fits, and for any other, S is
    *wrapped* plus the multiple of 2**64 nearest to ``shadow -
    wrapped``, which is 0 exactly when S fits.
    """
    if abs(shadow) < _SHADOW_BOUND:
        return
    if round((float(shadow) - int(wrapped)) / 2.0**64):
        raise NumericOverflowError(f"SUM({column}) is out of the INT64 range")


def int64_mean(
    high: np.ndarray, low: np.ndarray, counts: np.ndarray | int
) -> np.ndarray:
    """Means from exact int64 sums of the two halves (:data:`INT64_HALVES`).

    The sum is combined once in float64 and divided once, so the result
    depends only on the integer sums — not on how rows were split or in
    which order they were added.
    """
    totals = high.astype(np.float64) * 2.0**32 + low.astype(np.float64)
    return totals / np.maximum(counts, 1)


def _one(dtype: DataType, value: object) -> ColumnVector:
    return ColumnVector(dtype, np.asarray([value], dtype=numpy_dtype(dtype)))


def _extreme(dtype: np.dtype, maximum: bool) -> object:
    if np.issubdtype(dtype, np.floating):
        return np.inf if maximum else -np.inf
    if np.issubdtype(dtype, np.bool_):
        return True if maximum else False
    info = np.iinfo(dtype)
    return info.max if maximum else info.min


def _fill(dtype: np.dtype) -> object:
    if np.issubdtype(dtype, np.floating):
        return 0.0
    if np.issubdtype(dtype, np.bool_):
        return False
    return 0
