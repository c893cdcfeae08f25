"""Exchange: morsel-driven scatter/gather over a pipeline fragment.

The Exchange operator is the parallel engine's only source of
concurrency: it instantiates the scan→PatchSelect→filter/project
fragment once per morsel, runs the fragments on the shared worker pool,
and re-emits their batches downstream on the caller's thread.

Gather order is *morsel submission order* — morsels are created in
ascending rowid order, so the Exchange's output batch stream is exactly
the serial scan's stream.  Parallel plans therefore return byte-identical
results to serial plans wherever the serial plan's order was
deterministic, and downstream operators (MergeJoin's streaming side, the
NSC MergeUnion's presorted exclude branch) keep their order assumptions
for free.

Fragments hold no shared mutable state: each morsel gets its own
operator instances, and the storage they read (column vectors, patch
sets) is immutable during query execution.  The fragment kernels are
NumPy calls that release the GIL, which is what makes thread-based
morsel parallelism yield real wall-clock speedups.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from repro.errors import PlanError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.exec.parallel.morsels import Morsel
from repro.exec.parallel.pool import get_pool
from repro.storage.schema import Schema

#: Builds one pipeline-fragment operator restricted to the given
#: global rowid ranges (one morsel's worth of the scan).
FragmentFactory = Callable[[list[tuple[int, int]]], Operator]


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


def run_fragment(factory: FragmentFactory, morsel: Morsel) -> list[RecordBatch]:
    """Worker task: build, drain and close one morsel's fragment."""
    fragment = factory(list(morsel.ranges))
    fragment.open()
    try:
        batches: list[RecordBatch] = []
        while True:
            batch = fragment.next_batch()
            if batch is None:
                return batches
            if len(batch):
                batches.append(batch)
    finally:
        fragment.close()


def submit_morsels(
    factory: FragmentFactory,
    morsels: Sequence[Morsel],
    parallelism: int,
    obs: Any,
) -> deque[Any]:
    """Submit one :func:`run_fragment` task per morsel, in morsel order.

    *obs* is the duck-typed pool observation hook the profiler installs
    (a ``repro.obs.profile.ParallelObs``); ``None`` submits directly
    with zero accounting.
    """
    pool = get_pool(parallelism)
    if obs is None:
        return deque(
            pool.submit(run_fragment, factory, morsel) for morsel in morsels
        )
    return deque(obs.submit(pool, factory, morsel) for morsel in morsels)


class Exchange(Operator):
    """Run a pipeline fragment per morsel on the pool; gather in order."""

    def __init__(
        self,
        fragment_factory: FragmentFactory,
        template: Operator,
        morsels: Sequence[Morsel],
        parallelism: int,
    ):
        if parallelism < 1:
            raise PlanError("Exchange parallelism must be >= 1")
        self.fragment_factory = fragment_factory
        #: Unopened fragment instance used for schema and EXPLAIN only.
        self.template = template
        self.morsels = list(morsels)
        self.parallelism = parallelism
        #: Pool observation hook, see :func:`submit_morsels`.
        self.obs = None
        self._futures: deque[Any] | None = None
        self._pending: deque[RecordBatch] = deque()

    @property
    def schema(self) -> Schema:
        return self.template.schema

    def children(self) -> list[Operator]:
        return [self.template]

    def open(self) -> None:
        # Note: the template stays closed — workers build their own
        # fragments.  All morsels are submitted up front; the pool's
        # worker count bounds actual concurrency.
        self._futures = submit_morsels(
            self.fragment_factory, self.morsels, self.parallelism, self.obs
        )
        self._pending = deque()

    def next_batch(self) -> RecordBatch | None:
        if self._futures is None:
            raise PlanError("exchange used before open()")
        while not self._pending:
            if not self._futures:
                return None
            self._pending.extend(self._futures.popleft().result())
        return self._pending.popleft()

    def close(self) -> None:
        if self._futures is not None:
            for future in self._futures:
                future.cancel()
            self._futures = None
        self._pending = deque()

    def label(self) -> str:
        return f"Exchange(dop={self.parallelism}, morsels={len(self.morsels)})"
