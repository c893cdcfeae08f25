"""A leaf operator over batches already in hand, for operator tests."""

from typing import Sequence

from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.storage.schema import Schema


class BatchSource(Operator):
    """Leaf operator replaying a fixed list of materialized batches."""

    def __init__(self, schema: Schema, batches: Sequence[RecordBatch]):
        self._schema = schema
        self.batches = list(batches)
        self._position = 0

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return []

    def open(self) -> None:
        self._position = 0

    def next_batch(self) -> RecordBatch | None:
        if self._position >= len(self.batches):
            return None
        batch = self.batches[self._position]
        self._position += 1
        return batch

    def label(self) -> str:
        return f"BatchSource({len(self.batches)} batches)"
