"""Typed column vectors with validity (NULL) masks.

A :class:`ColumnVector` is the unit of vectorized processing: a NumPy
value array plus an optional boolean validity mask (``True`` = value
present, ``False`` = SQL NULL).  A mask of ``None`` means *all valid*,
which keeps the common non-NULL path allocation-free.

Column vectors are conceptually immutable once built; operators create
new vectors via :meth:`take` / :meth:`slice` / :meth:`filter` instead of
mutating in place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import StorageError, TypeMismatchError
from repro.types import DataType
from repro.types.datatypes import coerce_scalar, days_to_date, numpy_dtype


class ColumnVector:
    """A typed vector of values with optional validity mask."""

    __slots__ = ("dtype", "values", "validity")

    def __init__(
        self,
        dtype: DataType,
        values: np.ndarray,
        validity: np.ndarray | None = None,
    ):
        expected = numpy_dtype(dtype)
        if values.dtype != expected:
            raise TypeMismatchError(
                f"values dtype {values.dtype} does not match {dtype.name} "
                f"(expected {expected})"
            )
        if validity is not None:
            if validity.dtype != np.bool_:
                raise TypeMismatchError("validity mask must be boolean")
            if validity.shape != values.shape:
                raise StorageError(
                    f"validity length {validity.shape} != values {values.shape}"
                )
            # Normalize the all-valid case to None so equality and the
            # fast paths do not depend on how the vector was built.
            if bool(validity.all()):
                validity = None
        self.dtype = dtype
        self.values = values
        self.validity = validity

    # -- construction -------------------------------------------------

    @classmethod
    def from_pylist(cls, dtype: DataType, items: Sequence[object]) -> "ColumnVector":
        """Build a vector from Python scalars; ``None`` becomes NULL."""
        np_dtype = numpy_dtype(dtype)
        plain = _PLAIN_TYPES.get(dtype)
        if plain is not None and set(map(type, items)) <= plain:
            # A type check on every item: plain ints and floats are what
            # coerce_scalar would return, so one np.array call converts
            # them all.  Anything else (NULL, bool, str, numpy scalars)
            # goes through coerce_scalar, which accepts or raises as
            # always.  An int out of the type's range makes NumPy raise
            # OverflowError, so the fast path checks no range itself:
            # coerce_scalar below names the value.
            try:
                return cls(dtype, np.array(items, dtype=np_dtype))
            except OverflowError:
                pass
        coerced = [coerce_scalar(item, dtype) for item in items]
        validity = np.array([item is not None for item in coerced], dtype=np.bool_)
        if np_dtype == np.dtype(object):
            values = np.empty(len(coerced), dtype=object)
            for position, item in enumerate(coerced):
                values[position] = "" if item is None else item
        else:
            fill = _null_fill(dtype)
            values = np.array(
                [fill if item is None else item for item in coerced], dtype=np_dtype
            )
        if validity.all():
            return cls(dtype, values)
        return cls(dtype, values, validity)

    @classmethod
    def from_numpy(
        cls,
        dtype: DataType,
        values: np.ndarray,
        validity: np.ndarray | None = None,
    ) -> "ColumnVector":
        """Wrap an existing NumPy array (converting dtype when safe)."""
        expected = numpy_dtype(dtype)
        if values.dtype != expected:
            values = values.astype(expected)
        return cls(dtype, values, validity)

    @classmethod
    def empty(cls, dtype: DataType) -> "ColumnVector":
        return cls(dtype, np.empty(0, dtype=numpy_dtype(dtype)))

    @classmethod
    def concat(cls, vectors: Sequence["ColumnVector"]) -> "ColumnVector":
        """Concatenate vectors of identical type into one."""
        if not vectors:
            raise StorageError("cannot concat zero vectors")
        dtype = vectors[0].dtype
        for vector in vectors[1:]:
            if vector.dtype != dtype:
                raise TypeMismatchError("concat of mismatched column types")
        values = np.concatenate([vector.values for vector in vectors])
        if all(vector.validity is None for vector in vectors):
            return cls(dtype, values)
        validity = np.concatenate(
            [
                vector.validity
                if vector.validity is not None
                else np.ones(len(vector), dtype=np.bool_)
                for vector in vectors
            ]
        )
        return cls(dtype, values, validity)

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    @property
    def has_nulls(self) -> bool:
        return self.validity is not None

    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int((~self.validity).sum())

    def validity_or_all_true(self) -> np.ndarray:
        """Return the validity mask, materializing the all-valid case."""
        if self.validity is None:
            return np.ones(len(self), dtype=np.bool_)
        return self.validity

    def is_valid(self, position: int) -> bool:
        if self.validity is None:
            return True
        return bool(self.validity[position])

    def __getitem__(self, position: int) -> object:
        """Return the Python-level value at *position* (``None`` for NULL)."""
        if not self.is_valid(position):
            return None
        raw = self.values[position]
        if self.dtype == DataType.DATE:
            return days_to_date(int(raw))
        if self.dtype == DataType.INT64:
            return int(raw)
        if self.dtype == DataType.FLOAT64:
            return float(raw)
        if self.dtype == DataType.BOOL:
            return bool(raw)
        return raw

    def to_pylist(self) -> list[object]:
        """Materialize the vector as a list of Python scalars."""
        return [self[position] for position in range(len(self))]

    # -- vectorized transforms ----------------------------------------

    def slice(self, start: int, stop: int) -> "ColumnVector":
        """Zero-copy contiguous slice ``[start, stop)``."""
        validity = None if self.validity is None else self.validity[start:stop]
        return ColumnVector(self.dtype, self.values[start:stop], validity)

    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by integer indices."""
        validity = None if self.validity is None else self.validity[indices]
        return ColumnVector(self.dtype, self.values[indices], validity)

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where the boolean *mask* is True."""
        if mask.dtype != np.bool_:
            raise TypeMismatchError("filter mask must be boolean")
        if len(mask) != len(self):
            raise StorageError("filter mask length mismatch")
        validity = None if self.validity is None else self.validity[mask]
        return ColumnVector(self.dtype, self.values[mask], validity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(value) for value in self.to_pylist()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"ColumnVector({self.dtype.name}, [{preview}{suffix}], n={len(self)})"


#: Item types a numeric column converts in one ``np.array`` call with the
#: values :func:`coerce_scalar` would give them (``float(int)`` rounds as
#: numpy's int-to-double conversion does).
_PLAIN_TYPES: dict[DataType, frozenset[type]] = {
    DataType.INT64: frozenset({int}),
    DataType.FLOAT64: frozenset({float, int}),
}


def _null_fill(dtype: DataType) -> object:
    """Physical placeholder stored at NULL positions."""
    if dtype in (DataType.INT64, DataType.DATE):
        return 0
    if dtype == DataType.FLOAT64:
        return 0.0
    if dtype == DataType.BOOL:
        return False
    return ""

