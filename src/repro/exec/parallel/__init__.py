"""Morsel-driven parallel execution (paper §VI context: Actian Vector's
parallel scan infrastructure, realized here as one shared thread pool
over contiguous rowid morsels).

Components:

- :mod:`~repro.exec.parallel.pool` — the shared thread pool and the
  ``REPRO_THREADS`` / CPU-count parallelism default;
- :mod:`~repro.exec.parallel.morsels` — the morsel dispatcher splitting
  (range-restricted) scans into partition/block-aligned work units;
- :mod:`~repro.exec.parallel.terminals` — the parallel-aware blocking
  operators (distinct, two-phase aggregation, sort), the
  only operators that fan out: each runs a pipeline fragment per morsel
  with its partial on top and merges the partials in morsel order.

Fragments run on that pool only and read the tables and patch sets in
place; why there is no worker-process pool beside it is DESIGN §5b-ii.
"""

from repro.exec.parallel.morsels import (
    DEFAULT_MORSEL_SIZE,
    Morsel,
    morsels_for_table,
    validate_morsels,
)
from repro.exec.parallel.pool import (
    default_parallelism,
    get_pool,
    shutdown_pool,
)
from repro.exec.parallel.terminals import (
    BatchSource,
    ParallelAggregate,
    ParallelDistinct,
    ParallelSort,
)

# Only caller: bench_e2e/tracing.py ("stop whatever parallelism=2 started").
shutdown_process_pool = shutdown_pool

__all__ = [
    "BatchSource",
    "DEFAULT_MORSEL_SIZE",
    "Morsel",
    "morsels_for_table",
    "validate_morsels",
    "default_parallelism",
    "get_pool",
    "shutdown_pool",
    "shutdown_process_pool",
    "ParallelAggregate",
    "ParallelDistinct",
    "ParallelSort",
]
