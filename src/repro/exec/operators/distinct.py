"""Distinct operator: duplicate elimination over all input columns.

This is the operator the paper's distinct rewrite avoids running over
the constraint-satisfying majority (§VI-B1): the rewritten plan applies
it only to the ``use_patches`` branch.  Implemented as hash aggregation
with all columns as group keys and no aggregate functions — output
arrives in key order, first occurrence representative per group.
"""

from __future__ import annotations

import numpy as np

from repro.exec.batch import RecordBatch
from repro.exec.operators.aggregate import _factorize_keys
from repro.exec.operators.base import Operator
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema


class Distinct(Operator):
    """Blocking duplicate elimination (SELECT DISTINCT semantics)."""

    def __init__(self, child: Operator, columns: list[str] | None = None):
        self.child = child
        self.column_names = (
            list(columns) if columns is not None else list(child.schema.names)
        )
        self._schema = child.schema.select(self.column_names)
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
        data = self.child.drain()
        if data is None:
            return RecordBatch.empty(self._schema)
        if len(self.column_names) == 1:
            return self._distinct_single(data)
        keys = [data.column(name) for name in self.column_names]
        __, __, first_positions = _factorize_keys(keys)
        first_positions = np.sort(first_positions)  # preserve input order
        columns = {
            name: data.column(name).take(first_positions)
            for name in self.column_names
        }
        return RecordBatch(self._schema, columns)

    def _distinct_single(self, data: RecordBatch) -> RecordBatch:
        """Single-column fast path: plain ``np.unique`` (hash-based for
        integers in recent NumPy), output in value order, NULL last.

        SQL leaves DISTINCT output order unspecified; value order keeps
        the kernel a single pass with no inverse/index reconstruction —
        exactly the cheap duplicate elimination the distinct rewrite
        applies to the patches branch.
        """
        name = self.column_names[0]
        column = data.column(name)
        validity = column.validity_or_all_true()
        values = np.unique(column.values[validity])
        has_null = len(data) and not validity.all()
        if not has_null:
            return RecordBatch(
                self._schema, {name: ColumnVector(column.dtype, values)}
            )
        padded = np.concatenate(
            [values, np.zeros(1, dtype=values.dtype)]
            if values.dtype != np.dtype(object)
            else [values, np.array([""], dtype=object)]
        )
        out_validity = np.ones(len(padded), dtype=np.bool_)
        out_validity[-1] = False
        return RecordBatch(
            self._schema,
            {name: ColumnVector(column.dtype, padded, out_validity)},
        )

    def label(self) -> str:
        return f"Distinct({', '.join(self.column_names)})"
