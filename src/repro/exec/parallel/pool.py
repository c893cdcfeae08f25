"""Shared morsel worker pool.

One process-wide :class:`~concurrent.futures.ThreadPoolExecutor` serves
every parallel query, mirroring the single worker pool of morsel-driven
engines (one thread per core, queries share the pool rather than each
spawning threads).  Threads suffice here because the scan/select/filter
kernels are NumPy calls that release the GIL.

The degree of parallelism is resolved once per planner from
``REPRO_THREADS`` (explicit override) or :func:`os.cpu_count`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from repro.check.sanitize import make_lock
from repro.errors import PlanError


def default_parallelism() -> int:
    """Worker count from ``REPRO_THREADS``, else the machine's cores."""
    env = os.environ.get("REPRO_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise PlanError(f"REPRO_THREADS must be an integer, got {env!r}")
        return max(1, value)
    return os.cpu_count() or 1


_lock = make_lock("exec.parallel.pool")
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def get_pool(workers: int | None = None) -> ThreadPoolExecutor:
    """The shared worker pool, grown to at least *workers* threads."""
    wanted = workers if workers is not None else default_parallelism()
    wanted = max(1, wanted)
    global _pool, _pool_size
    with _lock:
        if _pool is None or _pool_size < wanted:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=wanted, thread_name_prefix="repro-morsel"
            )
            _pool_size = wanted
        return _pool


def shutdown_pool() -> None:
    """Tear down the shared pool (tests / interpreter shutdown)."""
    global _pool, _pool_size
    with _lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = None
        _pool_size = 0
