"""Logical data types and their mapping to NumPy storage.

The engine stores every column as a NumPy array plus an optional validity
mask.  The :class:`DataType` enum is the *logical* type visible in
schemas, expressions and SQL; this module centralizes the mapping to the
*physical* NumPy dtype and the scalar coercions used by INSERT and the
expression evaluator.

Notes
-----
``DATE`` is stored as days since the Unix epoch in an ``int64`` array.
This matches how analytical engines store dates for vectorized
comparison, and it keeps sorting/uniqueness semantics identical to plain
integers (which is what the PatchIndex operates on).

``STRING`` columns are stored as ``object`` arrays of Python ``str``.
A vectorized engine would use dictionary encoding; for this
reproduction, object arrays keep NumPy's vectorized comparison and
sorting available while remaining simple.
"""

from __future__ import annotations

import datetime as _dt
import enum

import numpy as np

from repro.errors import TypeMismatchError

_EPOCH = _dt.date(1970, 1, 1)


class DataType(enum.Enum):
    """Logical column data types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataType.{self.name}"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a type from a (case-insensitive) SQL type name."""
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INT64,
            "integer": cls.INT64,
            "bigint": cls.INT64,
            "int64": cls.INT64,
            "float": cls.FLOAT64,
            "double": cls.FLOAT64,
            "real": cls.FLOAT64,
            "float64": cls.FLOAT64,
            "string": cls.STRING,
            "varchar": cls.STRING,
            "char": cls.STRING,
            "text": cls.STRING,
            "date": cls.DATE,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
        }
        if normalized not in aliases:
            raise TypeMismatchError(f"unknown SQL type name: {name!r}")
        return aliases[normalized]


_NUMPY_DTYPES: dict[DataType, np.dtype] = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.STRING: np.dtype(object),
    DataType.DATE: np.dtype(np.int64),
    DataType.BOOL: np.dtype(np.bool_),
}

_PYTHON_TYPES: dict[DataType, type] = {
    DataType.INT64: int,
    DataType.FLOAT64: float,
    DataType.STRING: str,
    DataType.DATE: _dt.date,
    DataType.BOOL: bool,
}

_NUMERIC = frozenset({DataType.INT64, DataType.FLOAT64})
# Every supported type has a total order (strings lexicographic, dates by
# day number), which is what NSC discovery requires.
_ORDERABLE = frozenset(DataType)


def numpy_dtype(dtype: DataType) -> np.dtype:
    """Return the physical NumPy dtype used to store *dtype*."""
    return _NUMPY_DTYPES[dtype]


def python_type(dtype: DataType) -> type:
    """Return the Python scalar type corresponding to *dtype*."""
    return _PYTHON_TYPES[dtype]


def is_numeric(dtype: DataType) -> bool:
    """True if arithmetic is defined on *dtype*."""
    return dtype in _NUMERIC


def is_orderable(dtype: DataType) -> bool:
    """True if *dtype* has a total order usable for NSC constraints."""
    return dtype in _ORDERABLE


def common_type(left: DataType, right: DataType) -> DataType:
    """Return the wider of two types for a binary expression.

    Raises :class:`TypeMismatchError` when the pair has no common type.
    """
    if left == right:
        return left
    if {left, right} == _NUMERIC:
        return DataType.FLOAT64
    raise TypeMismatchError(f"no common type for {left.name} and {right.name}")


def date_to_days(value: _dt.date) -> int:
    """Convert a Python ``date`` to its physical day-number encoding."""
    return (value - _EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Convert a physical day number back to a Python ``date``."""
    return _EPOCH + _dt.timedelta(days=int(days))


def infer_datatype(value: object) -> DataType:
    """Infer the logical type of a Python scalar (used by INSERT/literals)."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, (int, np.integer)):
        return DataType.INT64
    if isinstance(value, (float, np.floating)):
        return DataType.FLOAT64
    if isinstance(value, str):
        return DataType.STRING
    if isinstance(value, _dt.date):
        return DataType.DATE
    raise TypeMismatchError(f"cannot infer data type of {value!r}")


def coerce_scalar(value: object, dtype: DataType) -> object:
    """Coerce a Python scalar to the physical representation of *dtype*.

    ``None`` passes through (it denotes SQL NULL and is recorded in the
    validity mask, not in the value array).
    """
    if value is None:
        return None
    if dtype == DataType.INT64:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeMismatchError(f"expected INT64, got {value!r}")
        return _int64(value, dtype)
    if dtype == DataType.FLOAT64:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise TypeMismatchError(f"expected FLOAT64, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise TypeMismatchError(
                f"value out of range for FLOAT64: {value!r}"
            ) from None
    if dtype == DataType.STRING:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected STRING, got {value!r}")
        return value
    if dtype == DataType.DATE:
        if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
            return date_to_days(value)
        if isinstance(value, (int, np.integer)):
            return _int64(value, dtype)
        raise TypeMismatchError(f"expected DATE, got {value!r}")
    if dtype == DataType.BOOL:
        if not isinstance(value, (bool, np.bool_)):
            raise TypeMismatchError(f"expected BOOL, got {value!r}")
        return bool(value)
    raise TypeMismatchError(f"unhandled data type {dtype}")  # pragma: no cover


def _int64(value: int | np.integer, dtype: DataType) -> int:
    """*value* as a Python int, or a mismatch when int64 cannot hold it."""
    value = int(value)
    if not -(2**63) <= value < 2**63:
        raise TypeMismatchError(f"value out of range for {dtype.name}: {value!r}")
    return value
