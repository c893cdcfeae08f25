"""Table schemas: ordered, named, typed fields.

A :class:`Schema` is immutable once constructed.  Column lookup is by
name (case-sensitive, as produced by the SQL binder after normalization)
and positional index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.types import DataType


@dataclass(frozen=True)
class Field:
    """A single column definition: name, logical type, nullability."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")
        if not isinstance(self.dtype, DataType):
            raise SchemaError(f"field {self.name!r}: dtype must be a DataType")

    def __str__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.dtype.name}{null}"


class Schema:
    """An ordered collection of :class:`Field` with unique names."""

    def __init__(self, fields: Iterable[Field]):
        self._fields: tuple[Field, ...] = tuple(fields)
        self._index: dict[str, int] = {}
        for position, field in enumerate(self._fields):
            if field.name in self._index:
                raise SchemaError(f"duplicate column name: {field.name!r}")
            self._index[field.name] = position

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(field.name for field in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def field(self, name: str) -> Field:
        """Return the field called *name*, raising on unknown columns."""
        try:
            return self._fields[self._index[name]]
        except KeyError:
            raise SchemaError(f"unknown column: {name!r}") from None

    def index_of(self, name: str) -> int:
        """Return the ordinal position of column *name*."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown column: {name!r}") from None

    def select(self, names: Iterable[str]) -> "Schema":
        """Return a new schema projecting the given columns, in order."""
        return Schema(self.field(name) for name in names)

    def __repr__(self) -> str:
        inner = ", ".join(str(field) for field in self._fields)
        return f"Schema({inner})"
