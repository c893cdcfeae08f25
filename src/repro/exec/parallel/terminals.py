"""Parallel-aware terminal operators: distinct, aggregation, sort.

These three are the parallel engine's only sources of concurrency.
Each one instantiates the scan→PatchSelect→filter/project fragment once
per morsel, runs the fragments on the shared worker pool with a
*partial* of its own work on top, and finishes with a cheap merge at
the gather point on the caller's thread:

- :class:`ParallelDistinct` — per-worker duplicate elimination (hash
  sets built per morsel), unioned and deduplicated once at the gather;
- :class:`ParallelAggregate` — classic two-phase aggregation: partial
  hash aggregation per morsel, merged by a final aggregation over the
  partials (COUNT→sum, SUM→sum, MIN/MAX→min/max, AVG→exact integer
  half-sums or float sums plus a count), or a lone COUNT(DISTINCT) via
  per-morsel distinct partials;
- :class:`ParallelSort` — per-morsel sort producing sorted runs,
  combined by the serial Sort over the runs in morsel order (its
  stable sort finds the runs and merges them).  The planner never puts
  it over an NSC rewrite's exclude-patches branch: those morsels are
  already sorted runs, which the serial run-adaptive kernel merges
  faster than a fan-out does.

Partials are gathered in *morsel submission order* — morsels are
created in ascending rowid order — and merged with order-insensitive or
stable merges, so the output equals the serial operator's, row for row.

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
from repro.exec.operators.aggregate import (
    AggregateSpec,
    HashAggregate,
    finish_aggregates,
    two_phase_specs,
)
from repro.exec.operators.base import Operator
from repro.exec.operators.distinct import Distinct
from repro.exec.operators.sort import Sort, SortKey
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


class _ParallelBlocking(Operator):
    """Scaffolding shared by the blocking parallel terminals.

    Subclasses provide :meth:`_wrap` (the per-morsel partial operator
    placed on top of a fragment) and :meth:`_combine` (the final merge
    over the gathered partial batches, in morsel order).
    """

    def __init__(
        self,
        fragment_factory: FragmentFactory,
        template: Operator,
        morsels: Sequence[Morsel],
        parallelism: int,
    ):
        if parallelism < 1:
            raise PlanError("parallel operator needs parallelism >= 1")
        self.fragment_factory = fragment_factory
        #: Unopened fragment instance used for schema and EXPLAIN only.
        self.template = template
        self.morsels = list(morsels)
        self.parallelism = parallelism
        #: Pool observation hook, see :func:`submit_morsels`.
        self.obs = None
        self._futures: deque[Any] | None = None
        self._done = False

    def children(self) -> list[Operator]:
        return [self.template]

    def open(self) -> None:
        self._futures = submit_morsels(
            self._wrapped_factory, self.morsels, self.parallelism, self.obs
        )
        self._done = False

    def _wrapped_factory(self, ranges: list[tuple[int, int]]) -> Operator:
        return self._wrap(self.fragment_factory(ranges))

    def next_batch(self) -> RecordBatch | None:
        if self._futures is None:
            raise PlanError("parallel operator used before open()")
        if self._done:
            return None
        self._done = True
        partials: list[RecordBatch] = []
        while self._futures:
            partials.extend(self._futures.popleft().result())
        return self._combine(partials)

    def close(self) -> None:
        if self._futures is not None:
            for future in self._futures:
                future.cancel()
            self._futures = None

    def _detail(self) -> str:
        return f"dop={self.parallelism}, morsels={len(self.morsels)}"

    # -- subclass hooks ------------------------------------------------

    def _wrap(self, fragment: Operator) -> Operator:
        raise NotImplementedError

    def _combine(self, partials: list[RecordBatch]) -> RecordBatch | None:
        raise NotImplementedError


class ParallelDistinct(_ParallelBlocking):
    """Duplicate elimination with per-worker partials.

    Workers deduplicate their morsels locally (each morsel's hash set is
    built independently); the gather unions the partial results and runs
    one final deduplication over the — much smaller — union.
    """

    def __init__(
        self,
        fragment_factory: FragmentFactory,
        template: Operator,
        morsels: Sequence[Morsel],
        parallelism: int,
    ):
        super().__init__(fragment_factory, template, morsels, parallelism)
        self._schema = template.schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def _wrap(self, fragment: Operator) -> Operator:
        return Distinct(fragment)

    def _combine(self, partials: list[RecordBatch]) -> RecordBatch | None:
        final = Distinct(BatchSource(self._schema, partials))
        final.open()
        try:
            return final.next_batch()
        finally:
            final.close()

    def label(self) -> str:
        return f"ParallelDistinct({self._detail()})"


class ParallelSort(_ParallelBlocking):
    """Per-morsel sorts, gathered by the serial Sort over the runs.

    A stable sort of the runs in morsel order is the serial Sort of the
    input, row for row, the way :class:`ParallelDistinct`'s gather is a
    :class:`Distinct`.
    """

    def __init__(
        self,
        fragment_factory: FragmentFactory,
        template: Operator,
        morsels: Sequence[Morsel],
        parallelism: int,
        keys: list[SortKey],
    ):
        super().__init__(fragment_factory, template, morsels, parallelism)
        self.keys = list(keys)
        self._schema = template.schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def _wrap(self, fragment: Operator) -> Operator:
        return Sort(fragment, self.keys)

    def _combine(self, partials: list[RecordBatch]) -> RecordBatch | None:
        if not partials:
            return None
        return _drain_one(Sort(BatchSource(self._schema, partials), self.keys))

    def label(self) -> str:
        keys = ", ".join(str(key) for key in self.keys)
        return f"ParallelSort({keys}; {self._detail()})"


class ParallelAggregate(_ParallelBlocking):
    """Two-phase aggregation: morsel-local partials, one final merge.

    Every worker aggregates its morsels into per-group partial states;
    the gather merges the partials with a second aggregation (COUNT and
    SUM partials merge by summing, MIN/MAX by min/max, AVG carries a
    count plus the int64 sums of an INT64 column's 32-bit halves, or a
    FLOAT64 column's float sum).  A single COUNT(DISTINCT c) aggregate
    instead uses per-morsel *distinct* partials — the per-worker hash
    sets are unioned at the gather and counted once.
    """

    def __init__(
        self,
        fragment_factory: FragmentFactory,
        template: Operator,
        morsels: Sequence[Morsel],
        parallelism: int,
        group_by: list[str],
        aggregates: list[AggregateSpec],
    ):
        super().__init__(fragment_factory, template, morsels, parallelism)
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        # Validates specs and pins the output schema (same as serial).
        self._schema = HashAggregate(template, group_by, aggregates).schema
        self._distinct_mode = (
            len(self.aggregates) == 1
            and self.aggregates[0].func == "count_distinct"
        )
        if not self._distinct_mode and any(
            spec.func == "count_distinct" for spec in self.aggregates
        ):
            raise PlanError(
                "ParallelAggregate supports count_distinct only as the "
                "sole aggregate; plan the aggregate serially"
            )
        if not self._distinct_mode:
            self._partial_specs, self._final_specs = two_phase_specs(
                self.aggregates, template.schema
            )

    @property
    def schema(self) -> Schema:
        return self._schema

    def _wrap(self, fragment: Operator) -> Operator:
        if self._distinct_mode:
            spec = self.aggregates[0]
            columns = list(self.group_by)
            if spec.column not in columns:
                columns.append(spec.column)
            return Distinct(fragment, columns)
        return HashAggregate(fragment, self.group_by, self._partial_specs)

    def _combine(self, partials: list[RecordBatch]) -> RecordBatch | None:
        if not partials:
            # Canonical empty-input result (one row for scalar
            # aggregation, zero rows with GROUP BY) via the serial path.
            final = HashAggregate(
                BatchSource(self.template.schema, []),
                self.group_by,
                self.aggregates,
            )
            return _drain_one(final)
        partial_schema = partials[0].schema
        source = BatchSource(partial_schema, partials)
        if self._distinct_mode:
            merged = _drain_one(
                HashAggregate(source, self.group_by, self.aggregates)
            )
            return RecordBatch(self._schema, merged.columns)
        merged = _drain_one(
            HashAggregate(source, self.group_by, self._final_specs)
        )
        return finish_aggregates(
            merged, self.group_by, self.aggregates, self._schema
        )

    def label(self) -> str:
        keys = ", ".join(self.group_by) if self.group_by else "<global>"
        aggs = ", ".join(
            f"{spec.func}({spec.column or '*'}) AS {spec.alias}"
            for spec in self.aggregates
        )
        strategy = "distinct-partials" if self._distinct_mode else "two-phase"
        return (
            f"ParallelAggregate(by=[{keys}], aggs=[{aggs}], "
            f"{strategy}; {self._detail()})"
        )


def _drain_one(operator: Operator) -> RecordBatch:
    """Open a blocking operator, take its single batch, close it."""
    operator.open()
    try:
        batch = operator.next_batch()
    finally:
        operator.close()
    if batch is None:  # pragma: no cover - callers never pass empty input
        raise PlanError("blocking operator produced no batch")
    return batch
