"""Worker-process side of the process execution backend.

The coordinator cannot ship live operators across a process boundary —
operators close over :class:`~repro.storage.table.Table` objects whose
columns may be memory-mapped segment files.  Instead the planner
describes a morsel's work as plain picklable *specs*:

- :class:`EngineSnapshot` — which durable data directory to attach and
  the WAL LSN the coordinator planned against (staleness guard);
- :class:`FragmentSpec` — the scan pipeline: table, projected columns,
  optional :class:`PatchSpec` (the PatchIndex rebuilt worker-side from
  shipped per-partition patch rowids — never re-discovered, so
  maintenance drift is preserved exactly), and the Filter/Project chain
  as expression objects (frozen dataclasses, picklable);
- :class:`PartialSpec` — the per-morsel partial operator the parallel
  terminal would have wrapped the fragment with on the thread path
  (distinct set, sorted run, two-phase aggregate partial, or nothing);
- :class:`MorselTask` — one unit of work: the above plus the morsel's
  global rowid ranges and the shm block name to ship results under.

:func:`run_morsel_task` is the pool entrypoint (module-level, so it is
importable under the ``spawn`` start method).  Each worker process
attaches the data directory once per snapshot
(:func:`repro.storage.materialize.attach_tables`) and caches the
resulting tables: the attach memory-maps checkpointed segment payloads
(``mmap=True`` engines) and deterministically replays the WAL data tail,
so worker tables are byte-identical to the coordinator's.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.constraints import ConstraintKind
from repro.core.patch_index import PatchIndex
from repro.core.patches import PatchSet
from repro.exec.operators.aggregate import AggregateSpec, HashAggregate
from repro.exec.operators.base import Operator
from repro.exec.operators.distinct import Distinct
from repro.exec.operators.filter import Filter
from repro.exec.operators.patch_select import PatchSelect, PatchSelectMode
from repro.exec.operators.project import Project
from repro.exec.operators.scan import TableScan
from repro.exec.operators.sort import Sort, SortKey
from repro.exec.parallel.shm import encode
from repro.storage.table import Table


@dataclass(frozen=True)
class EngineSnapshot:
    """Identity of the durable state one parallel query plans against."""

    root: str
    mmap: bool
    #: The coordinator WAL's last LSN at planning time.  A worker whose
    #: attach sees a different tail refuses (the coordinator falls back
    #: to serial execution) rather than compute on divergent data.
    wal_lsn: int


@dataclass(frozen=True)
class PatchSpec:
    """A PatchIndex shipped by value: per-partition patch rowids.

    The rowids come from the coordinator's *live* index (including
    maintenance drift), serialized as raw little-endian int64 bytes per
    partition — the worker rebuilds the patch sets directly instead of
    re-running discovery.
    """

    name: str
    kind: str
    column: str
    design: str
    threshold: float
    ascending: bool
    strict: bool
    scope: str
    use_patches: bool
    #: One ``int64.tobytes()`` blob of partition-local rowids per
    #: partition, in partition order.
    partition_rowids: tuple[bytes, ...]


@dataclass(frozen=True)
class OpSpec:
    """One Filter or Project level of the fragment, innermost first."""

    kind: str  # "filter" | "project"
    predicate: Any = None
    outputs: tuple[tuple[str, Any], ...] | None = None


@dataclass(frozen=True)
class FragmentSpec:
    """The scan pipeline a fragment factory would build, as data."""

    table: str
    columns: tuple[str, ...] | None
    with_tid: bool
    batch_size: int
    patch: PatchSpec | None
    ops: tuple[OpSpec, ...]


@dataclass(frozen=True)
class PartialSpec:
    """The per-morsel partial wrap of a parallel terminal, as data.

    Mirrors the ``_wrap`` hooks of the thread-path terminals: the worker
    applies the same partial operator the coordinator's gather expects
    to combine (``none`` for a plain Exchange).
    """

    kind: str = "none"  # "none" | "distinct" | "sort" | "agg"
    #: Distinct key columns; ``None`` deduplicates full rows.
    columns: tuple[str, ...] | None = None
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    sort_keys: tuple[SortKey, ...] = ()


@dataclass(frozen=True)
class MorselTask:
    """One worker task: a fragment restricted to one morsel's ranges."""

    snapshot: EngineSnapshot
    fragment: FragmentSpec
    partial: PartialSpec
    ranges: tuple[tuple[int, int], ...]
    shm_name: str
    #: Test-only failure injection ("exit" | "unpicklable-error").
    fault: str | None = None


# One attached table set per engine snapshot, reused across the queries
# this worker process serves.  Workers are single-threaded, so plain
# dict access is safe; the small cap bounds mmap handles when tests
# churn through many temporary databases.
_TABLE_CACHE: dict[EngineSnapshot, dict[str, Table]] = {}
_TABLE_CACHE_LIMIT = 4


def _tables_for(snapshot: EngineSnapshot) -> dict[str, Table]:
    tables = _TABLE_CACHE.get(snapshot)
    if tables is None:
        from repro.storage.cache import process_cache
        from repro.storage.materialize import attach_tables

        # All snapshots share one per-process block cache: generation
        # keys keep entries from different checkpoints apart, and the
        # tail replay materializes mutated partitions, so a stale block
        # can never be served (decode happens worker-side, off the
        # memory-mapped encoded payload).
        tables = attach_tables(
            snapshot.root,
            snapshot.wal_lsn,
            cache=process_cache(),
            mmap=snapshot.mmap,
        )
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        _TABLE_CACHE[snapshot] = tables
    return tables


def _build_index(spec: PatchSpec, table: Table) -> PatchIndex:
    patch_sets = [
        PatchSet.build(
            np.frombuffer(raw, dtype=np.int64), partition.row_count, spec.design
        )
        for raw, partition in zip(spec.partition_rowids, table.partitions)
    ]
    return PatchIndex(
        spec.name,
        table,
        spec.column,
        ConstraintKind.from_name(spec.kind),
        patch_sets,
        threshold=spec.threshold,
        ascending=spec.ascending,
        strict=spec.strict,
        scope=spec.scope,
        provenance="worker",
    )


def build_fragment(
    fragment: FragmentSpec,
    partial: PartialSpec,
    table: Table,
    ranges: list[tuple[int, int]],
) -> tuple[Operator, PatchIndex | None]:
    """Reconstruct one morsel's operator tree from its specs.

    Returns the tree plus the rebuilt PatchIndex (if any) so the caller
    can detach its table listener afterwards — worker tables are cached
    across tasks and must not accumulate listeners.
    """
    operator: Operator = TableScan(
        table,
        list(fragment.columns) if fragment.columns is not None else None,
        scan_ranges=ranges,
        with_tid=fragment.with_tid,
        batch_size=fragment.batch_size,
    )
    index: PatchIndex | None = None
    if fragment.patch is not None:
        index = _build_index(fragment.patch, table)
        mode = (
            PatchSelectMode.USE_PATCHES
            if fragment.patch.use_patches
            else PatchSelectMode.EXCLUDE_PATCHES
        )
        operator = PatchSelect(operator, index, mode)
    for op in fragment.ops:
        if op.kind == "filter":
            operator = Filter(operator, op.predicate)
        else:
            operator = Project(operator, list(op.outputs or ()))
    if partial.kind == "distinct":
        operator = Distinct(
            operator,
            list(partial.columns) if partial.columns is not None else None,
        )
    elif partial.kind == "sort":
        operator = Sort(operator, list(partial.sort_keys))
    elif partial.kind == "agg":
        operator = HashAggregate(
            operator, list(partial.group_by), list(partial.aggregates)
        )
    return operator, index


def run_morsel_task(task: MorselTask) -> dict[str, Any]:
    """Pool entrypoint: attach, execute one morsel, ship the partials."""
    if task.fault == "exit":
        os._exit(17)
    started = time.perf_counter()
    tables = _tables_for(task.snapshot)
    operator, index = build_fragment(
        task.fragment, task.partial, tables[task.fragment.table], list(task.ranges)
    )
    try:
        operator.open()
        try:
            batches = []
            while True:
                batch = operator.next_batch()
                if batch is None:
                    break
                if len(batch):
                    batches.append(batch)
        finally:
            operator.close()
    finally:
        if index is not None:
            index.detach()
    if task.fault == "unpicklable-error":
        # A dynamically created exception class cannot be pickled back
        # through the pool's result queue (OOM/corruption stand-in).
        raise type("UnpicklableWorkerError", (RuntimeError,), {})("injected")
    payload = encode(batches, task.shm_name)
    payload["pid"] = os.getpid()
    payload["started_s"] = started
    payload["busy_s"] = time.perf_counter() - started
    return payload


__all__ = [
    "EngineSnapshot",
    "FragmentSpec",
    "MorselTask",
    "OpSpec",
    "PartialSpec",
    "PatchSpec",
    "build_fragment",
    "run_morsel_task",
]
