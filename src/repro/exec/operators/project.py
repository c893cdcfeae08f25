"""Projection operator: compute named output expressions per batch."""

from __future__ import annotations

from repro.errors import PlanError
from repro.exec.batch import RecordBatch
from repro.exec.expressions import ColumnRef, Expression
from repro.exec.operators.base import Operator
from repro.storage.schema import Field, Schema


class Project(Operator):
    """Evaluate ``(alias, expression)`` pairs over each input batch.

    Pure column renames/reorders preserve rowids (the batch still maps
    1:1 to input rows); computed expressions do too, since projection
    never changes row identity.
    """

    def __init__(self, child: Operator, outputs: list[tuple[str, Expression]]):
        if not outputs:
            raise PlanError("projection must produce at least one column")
        self.child = child
        self.outputs = list(outputs)
        self._schema = Schema(
            Field(alias, expression.output_type(child.schema))
            for alias, expression in self.outputs
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.child]

    def next_batch(self) -> RecordBatch | None:
        batch = self.child.next_batch()
        if batch is None:
            return None
        columns = {
            alias: expression.evaluate(batch)
            for alias, expression in self.outputs
        }
        return batch.with_columns(self._schema, columns)

    def label(self) -> str:
        rendered = ", ".join(
            str(expression)
            if isinstance(expression, ColumnRef) and expression.name == alias
            else f"{expression} AS {alias}"
            for alias, expression in self.outputs
        )
        return f"Project({rendered})"
