"""Materialized query results.

:func:`collect` drains a physical operator tree into a
:class:`QueryResult` — the object returned by
:meth:`repro.storage.database.Database.sql`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.storage.column import ColumnVector
from repro.storage.schema import Field as SchemaField, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.operators.base import Operator


class QueryResult:
    """A fully materialized result set with named, typed columns.

    This is the stable result surface for *both* local and remote
    callers: :meth:`repro.storage.database.Database.sql`,
    :meth:`repro.sql.session.Session.sql` and the network clients in
    :mod:`repro.serve` all return it.  Besides the columnar accessors
    (:meth:`column`, :meth:`to_pydict`) it carries a DB-API-flavoured
    cursor surface — iteration yields row tuples, :meth:`fetchone` /
    :meth:`fetchmany` / :meth:`fetchall` consume them incrementally,
    :attr:`rowcount` mirrors the DB-API attribute, and ``result[name]``
    gives column access by name.
    """

    #: The :class:`~repro.obs.profile.QueryProfile` of the execution when
    #: the statement ran with ``profile=True`` (EXPLAIN ANALYZE or
    #: ``Database.sql(..., profile=True)``); ``None`` otherwise.  Remote
    #: results carry a render-only stand-in with the same ``to_text()``.
    profile = None

    def __init__(self, schema: Schema, columns: dict[str, ColumnVector]):
        self.schema = schema
        self.columns = columns
        #: Cursor position for fetchone()/fetchmany() (DB-API surface).
        self._cursor = 0
        self._rows: list[tuple[object, ...]] | None = None

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

    def __getitem__(self, name: str) -> ColumnVector:
        """Column access by name: ``result["total"]``."""
        if not isinstance(name, str):
            raise TypeError(
                f"QueryResult columns are addressed by name, got "
                f"{type(name).__name__}"
            )
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; columns are {list(self.column_names)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self.columns

    def to_pydict(self) -> dict[str, list[object]]:
        return {
            field.name: self.columns[field.name].to_pylist()
            for field in self.schema
        }

    def to_pylist(self) -> list[tuple[object, ...]]:
        """Rows as tuples, in result order."""
        materialized = [
            self.columns[field.name].to_pylist() for field in self.schema
        ]
        return list(zip(*materialized)) if materialized else []

    # -- DB-API-flavoured cursor surface -----------------------------------

    @property
    def rowcount(self) -> int:
        """Number of rows in the result (DB-API spelling)."""
        return self.row_count

    def _materialized_rows(self) -> list[tuple[object, ...]]:
        if self._rows is None:
            self._rows = self.to_pylist()
        return self._rows

    def fetchone(self) -> tuple[object, ...] | None:
        """The next row tuple, or ``None`` when the cursor is exhausted."""
        rows = self._materialized_rows()
        if self._cursor >= len(rows):
            return None
        row = rows[self._cursor]
        self._cursor += 1
        return row

    def fetchmany(self, size: int = 1) -> list[tuple[object, ...]]:
        """Up to *size* next row tuples (empty list when exhausted)."""
        if size < 0:
            raise ValueError(f"fetchmany size must be >= 0, got {size}")
        rows = self._materialized_rows()
        chunk = rows[self._cursor : self._cursor + size]
        self._cursor += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple[object, ...]]:
        """All remaining row tuples from the cursor position on."""
        rows = self._materialized_rows()
        chunk = rows[self._cursor :]
        self._cursor = len(rows)
        return chunk

    def rows(self) -> list[tuple[object, ...]]:
        """Alias of :meth:`to_pylist`: rows as tuples, in result order."""
        return self.to_pylist()

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as ``{column: value}`` dicts, in result order."""
        names = self.column_names
        return [dict(zip(names, row)) for row in self.to_pylist()]

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

    def __iter__(self) -> Iterator[tuple[object, ...]]:
        return iter(self.to_pylist())

    def __len__(self) -> int:
        return self.row_count

    def pretty(self, limit: int = 20) -> str:
        """Fixed-width textual rendering (for examples and debugging)."""
        names = list(self.column_names)
        rows = self.to_pylist()[:limit]
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
