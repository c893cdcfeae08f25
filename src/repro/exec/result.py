"""Materialized query results.

:func:`collect` drains a physical operator tree into a
:class:`QueryResult` — the object returned by
:meth:`repro.storage.database.Database.sql`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.storage.column import ColumnVector
from repro.storage.schema import Field as SchemaField, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.operators.base import Operator
    from repro.obs.profile import QueryProfile
    from repro.serve.protocol import RemoteProfile


class QueryResult:
    """A fully materialized result set with named, typed columns.

    This is the stable result surface for *both* local and remote
    callers: :meth:`repro.storage.database.Database.sql`,
    :meth:`repro.sql.session.Session.sql` and the network client in
    :mod:`repro.serve` all return it.  Rows come out as tuples through
    :meth:`to_pylist`, columns through :meth:`column`, and text through
    :meth:`text`, :meth:`pretty` and :meth:`scalar`.
    """

    #: The :class:`~repro.obs.profile.QueryProfile` of the execution when
    #: the statement ran with ``profile=True`` (EXPLAIN ANALYZE or
    #: ``Database.sql(..., profile=True)``); ``None`` otherwise.  Remote
    #: results carry a render-only stand-in with the same ``to_text()``.
    profile: "QueryProfile | RemoteProfile | None" = None

    def __init__(self, schema: Schema, columns: dict[str, ColumnVector]):
        self.schema = schema
        self.columns = columns

    @classmethod
    def empty(cls, schema: Schema | None = None) -> "QueryResult":
        schema = schema if schema is not None else Schema([])
        return cls(
            schema,
            {field.name: ColumnVector.empty(field.dtype) for field in schema},
        )

    @classmethod
    def message(cls, text: str, column: str = "status") -> "QueryResult":
        """A 1×1 STRING result (DDL/DML acknowledgements)."""
        return cls.from_lines(column, [text])

    @classmethod
    def from_lines(cls, column: str, lines: list[str]) -> "QueryResult":
        """A single STRING column with one row per line (plan output)."""
        from repro.types import DataType

        vector = ColumnVector.from_pylist(DataType.STRING, list(lines))
        schema = Schema([SchemaField(column, DataType.STRING, nullable=False)])
        return cls(schema, {column: vector})

    @property
    def row_count(self) -> int:
        for vector in self.columns.values():
            return len(vector)
        return 0

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> ColumnVector:
        return self.columns[name]

    def to_pylist(self) -> list[tuple[object, ...]]:
        """Rows as tuples, in result order."""
        return _rows(self.columns[name] for name in self.column_names)

    def text(self) -> str:
        """A single-STRING-column result joined into one string.

        This is how EXPLAIN / EXPLAIN ANALYZE plans and status messages
        are read back out of their uniform QueryResult carrier.
        """
        if len(self.schema) != 1:
            raise ValueError(
                f"text() requires a single-column result, got "
                f"{len(self.schema)} columns"
            )
        name = self.schema.names[0]
        return "\n".join(str(value) for value in self.columns[name].to_pylist())

    def scalar(self) -> object:
        """The single value of a 1×1 result (e.g. a COUNT query)."""
        if self.row_count != 1 or len(self.schema) != 1:
            raise ValueError(
                f"scalar() requires a 1x1 result, got "
                f"{self.row_count}x{len(self.schema)}"
            )
        return self.columns[self.schema.names[0]][0]

    def pretty(self, limit: int = 20) -> str:
        """Fixed-width textual rendering (for examples and debugging)."""
        names = list(self.column_names)
        stop = min(limit, self.row_count)
        rows = _rows(self.columns[name].slice(0, stop) for name in names)
        cells = [[_fmt(value) for value in row] for row in rows]
        widths = [
            max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(width) for name, width in zip(names, widths))
        rule = "-+-".join("-" * width for width in widths)
        body = [
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in cells
        ]
        lines = [header, rule, *body]
        if self.row_count > limit:
            lines.append(f"... ({self.row_count} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult(rows={self.row_count}, cols={list(self.column_names)})"


def _rows(vectors: Iterable[ColumnVector]) -> list[tuple[object, ...]]:
    materialized = [vector.to_pylist() for vector in vectors]
    return list(zip(*materialized)) if materialized else []


def _fmt(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def collect(operator: "Operator") -> QueryResult:
    """Open, drain and close an operator tree into a QueryResult."""
    operator.open()
    try:
        batch = operator.drain()
        if batch is None:
            return QueryResult.empty(operator.schema)
        return QueryResult(operator.schema, batch.columns)
    finally:
        operator.close()
