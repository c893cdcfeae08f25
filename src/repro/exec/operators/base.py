"""Operator protocol shared by all physical operators.

Operators follow the classic open / next / close contract, batched:
:meth:`next_batch` returns a :class:`~repro.exec.batch.RecordBatch` or
``None`` at end of stream.  An operator may be re-executed by calling
:meth:`open` again after :meth:`close`.
"""

from __future__ import annotations

import abc

from repro.exec.batch import RecordBatch
from repro.storage.schema import Schema


class Operator(abc.ABC):
    """A physical dataflow operator."""

    #: Optimizer cardinality estimate, stamped by the physical planner
    #: on plan roots per logical node.  ``None`` when no estimate exists
    #: (e.g. operators built directly, or worker-side fragments).
    estimated_rows: int | None = None

    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """Output schema of the operator."""

    @abc.abstractmethod
    def children(self) -> list["Operator"]:
        """Input operators (empty for leaves)."""

    def open(self) -> None:
        """Prepare for execution; default opens all children."""
        for child in self.children():
            child.open()

    @abc.abstractmethod
    def next_batch(self) -> RecordBatch | None:
        """Produce the next output batch, or ``None`` when exhausted."""

    def close(self) -> None:
        """Release resources; default closes all children."""
        for child in self.children():
            child.close()

    def drain(self) -> RecordBatch | None:
        """Pull every batch and concatenate the non-empty ones, or return
        ``None`` when there are none.  Blocking operators read their
        input through it; each decides what an empty input produces."""
        batches: list[RecordBatch] = []
        while (batch := self.next_batch()) is not None:
            if len(batch):
                batches.append(batch)
        return RecordBatch.concat(batches) if batches else None

    # -- plan introspection (EXPLAIN) ----------------------------------

    def label(self) -> str:
        """One-line description used by the plan pretty-printer."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Indented textual rendering of the operator subtree."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)
