"""Vectorized scalar expressions evaluated against record batches.

Expressions form a small tree (column references, literals, comparisons,
boolean connectives, arithmetic, IS [NOT] NULL) and evaluate to
:class:`~repro.storage.column.ColumnVector` over a batch.

NULL semantics: comparisons and arithmetic on NULL inputs yield NULL;
when a predicate's result is consumed by a filter, NULL counts as *not
satisfied* — the standard SQL WHERE behaviour.  AND/OR use Kleene logic
restricted to the cases expressible with a value array + validity mask.
"""

from __future__ import annotations

import abc
import dataclasses
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ExecutionError, TypeMismatchError
from repro.exec.batch import RecordBatch
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema
from repro.types import DataType, common_type, infer_datatype, is_numeric
from repro.types.datatypes import coerce_scalar, numpy_dtype


class Expression(abc.ABC):
    """Base class of the expression tree."""

    @abc.abstractmethod
    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        """Evaluate over a batch, returning one vector of results."""

    @abc.abstractmethod
    def output_type(self, schema: Schema) -> DataType:
        """Static result type against an input schema."""

    @abc.abstractmethod
    def referenced_columns(self) -> set[str]:
        """Names of all columns the expression reads."""

    def __str__(self) -> str:  # pragma: no cover - overridden where useful
        return repr(self)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to an input column by name."""

    name: str

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        return batch.column(self.name)

    def output_type(self, schema: Schema) -> DataType:
        return schema.field(self.name).dtype

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant; ``value is None`` denotes NULL (dtype required then).

    ``slot`` marks a literal lifted out of the statement text by the
    plan cache: a cached plan is re-executed by swapping the values of
    its slotted literals (:func:`map_literals`).  It is not part of the
    literal's identity.
    """

    value: object
    dtype: DataType | None = None
    slot: int | None = field(default=None, compare=False)

    def _resolved_type(self) -> DataType:
        if self.dtype is not None:
            return self.dtype
        if self.value is None:
            raise TypeMismatchError("NULL literal requires an explicit dtype")
        return infer_datatype(self.value)

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        dtype = self._resolved_type()
        n = len(batch)
        np_dtype = numpy_dtype(dtype)
        if self.value is None:
            values = (
                np.full(n, "", dtype=object)
                if np_dtype == np.dtype(object)
                else np.zeros(n, dtype=np_dtype)
            )
            return ColumnVector(dtype, values, np.zeros(n, dtype=np.bool_))
        coerced = coerce_scalar(self.value, dtype)
        if np_dtype == np.dtype(object):
            values = np.full(n, coerced, dtype=object)
        else:
            values = np.full(n, coerced, dtype=np_dtype)
        return ColumnVector(dtype, values)

    def output_type(self, schema: Schema) -> DataType:
        return self._resolved_type()

    def referenced_columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return "NULL" if self.value is None else str(self.value)


_COMPARE_OPS: dict[str, Callable[[object, object], object]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: The operator that holds with the two sides swapped.
FLIPPED_OPS = {
    "=": "=", "!=": "!=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison producing BOOL (NULL when either side is NULL)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARE_OPS:
            raise ExecutionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        # A literal side is compared as a scalar: no per-batch constant
        # column is materialized for it.
        if isinstance(self.right, Literal) and not isinstance(self.left, Literal):
            return _compare_with_literal(
                self.left.evaluate(batch), self.op, self.right
            )
        if isinstance(self.left, Literal) and not isinstance(self.right, Literal):
            return _compare_with_literal(
                self.right.evaluate(batch), FLIPPED_OPS[self.op], self.left
            )
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        left_values, right_values = _align_for_compare(left, right)
        out = _COMPARE_OPS[self.op](left_values, right_values)
        return ColumnVector(
            DataType.BOOL,
            np.asarray(out, dtype=np.bool_),
            _combine_validity(left, right),
        )

    def output_type(self, schema: Schema) -> DataType:
        common_type(self.left.output_type(schema), self.right.output_type(schema))
        return DataType.BOOL

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic on numeric inputs (+, -, *, /)."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        if not (is_numeric(left.dtype) and is_numeric(right.dtype)):
            raise TypeMismatchError(
                f"arithmetic requires numeric inputs, got "
                f"{left.dtype.name}/{right.dtype.name}"
            )
        out_type = (
            DataType.FLOAT64
            if self.op == "/" or DataType.FLOAT64 in (left.dtype, right.dtype)
            else DataType.INT64
        )
        left_values = left.values.astype(numpy_dtype(out_type), copy=False)
        right_values = right.values.astype(numpy_dtype(out_type), copy=False)
        if self.op == "+":
            out = left_values + right_values
        elif self.op == "-":
            out = left_values - right_values
        elif self.op == "*":
            out = left_values * right_values
        elif self.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = left_values / right_values
        else:
            raise ExecutionError(f"unknown arithmetic operator {self.op!r}")
        validity = _combine_validity(left, right)
        if self.op == "/":
            zero = right_values == 0
            if zero.any():
                validity = (
                    np.ones(len(left), dtype=np.bool_)
                    if validity is None
                    else validity.copy()
                )
                validity[zero] = False
                out = np.where(zero, 0.0, out)
        return ColumnVector(out_type, np.asarray(out), validity)

    def output_type(self, schema: Schema) -> DataType:
        left = self.left.output_type(schema)
        right = self.right.output_type(schema)
        if not (is_numeric(left) and is_numeric(right)):
            raise TypeMismatchError("arithmetic requires numeric inputs")
        if self.op == "/" or DataType.FLOAT64 in (left, right):
            return DataType.FLOAT64
        return DataType.INT64

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        out = left.values & right.values
        # Kleene AND: NULL unless one side is a definite False.
        validity = _combine_validity(left, right)
        if validity is not None:
            definite_false = (
                (left.validity_or_all_true() & ~left.values.astype(np.bool_))
                | (right.validity_or_all_true() & ~right.values.astype(np.bool_))
            )
            validity = validity | definite_false
            out = np.where(validity, out, False)
        return ColumnVector(DataType.BOOL, np.asarray(out, dtype=np.bool_), validity)

    def output_type(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        left = self.left.evaluate(batch)
        right = self.right.evaluate(batch)
        out = left.values | right.values
        # Kleene OR: NULL unless one side is a definite True.
        validity = _combine_validity(left, right)
        if validity is not None:
            definite_true = (
                (left.validity_or_all_true() & left.values.astype(np.bool_))
                | (right.validity_or_all_true() & right.values.astype(np.bool_))
            )
            validity = validity | definite_true
            out = np.where(validity, out, False)
        return ColumnVector(DataType.BOOL, np.asarray(out, dtype=np.bool_), validity)

    def output_type(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        operand = self.operand.evaluate(batch)
        out = ~operand.values.astype(np.bool_)
        return ColumnVector(DataType.BOOL, out, operand.validity)

    def output_type(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (literal, ...)`` — vectorized membership test.

    NULL operands yield NULL (SQL semantics for a non-empty list
    without NULLs, the only list shape the parser produces).
    """

    operand: Expression
    values: tuple[object, ...]
    negated: bool = False

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        operand = self.operand.evaluate(batch)
        needles = np.array(
            [coerce_scalar(value, operand.dtype) for value in self.values],
            dtype=operand.values.dtype,
        )
        mask = np.isin(operand.values, needles)
        if self.negated:
            mask = ~mask
        return ColumnVector(DataType.BOOL, mask, operand.validity)

    def output_type(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        rendered = ", ".join(
            f"'{value}'" if isinstance(value, str) else str(value)
            for value in self.values
        )
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {keyword} ({rendered}))"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL`` (never returns NULL itself)."""

    operand: Expression
    negated: bool = False

    def evaluate(self, batch: RecordBatch) -> ColumnVector:
        operand = self.operand.evaluate(batch)
        nulls = (
            np.zeros(len(operand), dtype=np.bool_)
            if operand.validity is None
            else ~operand.validity
        )
        out = ~nulls if self.negated else nulls
        return ColumnVector(DataType.BOOL, out)

    def output_type(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


# -- helpers -------------------------------------------------------------


def _align_for_compare(
    left: ColumnVector, right: ColumnVector
) -> tuple[np.ndarray, np.ndarray]:
    """Return comparable value arrays, widening numerics when mixed."""
    if left.dtype == right.dtype:
        return left.values, right.values
    if is_numeric(left.dtype) and is_numeric(right.dtype):
        return (
            left.values.astype(np.float64, copy=False),
            right.values.astype(np.float64, copy=False),
        )
    raise TypeMismatchError(
        f"cannot compare {left.dtype.name} with {right.dtype.name}"
    )


def _compare_with_literal(
    vector: ColumnVector, op: str, literal: Literal
) -> ColumnVector:
    """``vector <op> literal`` against the coerced scalar.

    Same result as aligning *vector* with ``literal.evaluate(batch)``:
    mixed numerics widen to float64, any other type pair is a mismatch,
    and a NULL literal makes every row NULL.
    """
    dtype = literal._resolved_type()
    values = vector.values
    widen = vector.dtype != dtype
    if widen and not (is_numeric(vector.dtype) and is_numeric(dtype)):
        raise TypeMismatchError(
            f"cannot compare {vector.dtype.name} with {dtype.name}"
        )
    if literal.value is None:
        return ColumnVector(
            DataType.BOOL,
            np.zeros(len(vector), dtype=np.bool_),
            np.zeros(len(vector), dtype=np.bool_),
        )
    scalar = coerce_scalar(literal.value, dtype)
    if widen:
        values = values.astype(np.float64, copy=False)
        scalar = float(scalar)  # type: ignore[arg-type]
    out = _COMPARE_OPS[op](values, scalar)
    return ColumnVector(
        DataType.BOOL, np.asarray(out, dtype=np.bool_), vector.validity
    )


def _combine_validity(
    left: ColumnVector, right: ColumnVector
) -> np.ndarray | None:
    if left.validity is None and right.validity is None:
        return None
    return left.validity_or_all_true() & right.validity_or_all_true()


def predicate_mask(expression: Expression, batch: RecordBatch) -> np.ndarray:
    """Evaluate a predicate as a WHERE filter mask: NULL → False."""
    result = expression.evaluate(batch)
    if result.dtype != DataType.BOOL:
        raise TypeMismatchError("filter predicate must be BOOL")
    mask = result.values.astype(np.bool_, copy=False)
    if result.validity is not None:
        mask = mask & result.validity
    return mask


def literal(
    value: object, dtype: DataType | None = None, slot: int | None = None
) -> Literal:
    """Convenience constructor coercing Python scalars (dates → days)."""
    if value is None:
        return Literal(None, dtype, slot)
    resolved = dtype if dtype is not None else infer_datatype(value)
    return Literal(
        coerce_scalar(value, resolved) if resolved == DataType.DATE else value,
        resolved,
        slot,
    )


#: Per expression class: the names of its sub-expression fields.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def map_literals(
    expression: Expression, replace: Callable[[Literal], Literal]
) -> Expression:
    """Rebuild *expression* with every :class:`Literal` passed through
    *replace*; subtrees whose literals come back unchanged are shared,
    not copied."""
    cls = type(expression)
    if cls is Literal:
        return replace(expression)  # type: ignore[arg-type]
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            item.name
            for item in dataclasses.fields(expression)  # type: ignore[arg-type]
            if isinstance(getattr(expression, item.name), Expression)
        )
    changed: dict[str, Expression] = {}
    for name in names:
        child = getattr(expression, name)
        mapped = map_literals(child, replace)
        if mapped is not child:
            changed[name] = mapped
    if not changed:
        return expression
    return dataclasses.replace(expression, **changed)  # type: ignore[type-var]
