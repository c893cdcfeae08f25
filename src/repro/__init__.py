"""repro — PatchIndex: approximate constraints in self-managing databases.

A full Python reproduction of *PatchIndex — Exploiting Approximate
Constraints in Self-managing Databases* (Klaebe, Sattler, Baumann,
ICDE 2020): a vectorized columnar engine substrate, the PatchIndex
structure for nearly unique / nearly sorted columns, constraint
discovery, the PatchedScan, and the distinct / sort / join query
rewrites, plus a self-management advisor, incremental maintenance and a
measured breakeven exception rate per rewrite.

Quick start::

    import repro

    db = repro.connect()
    db.sql("CREATE TABLE t (k BIGINT, v BIGINT)")
    db.sql("INSERT INTO t VALUES (1, 10), (2, 20), (2, 30)")
    db.sql("CREATE PATCHINDEX pi_k ON t(k) TYPE UNIQUE")
    print(db.sql("SELECT COUNT(DISTINCT k) AS n FROM t").pretty())
    print(db.sql("EXPLAIN ANALYZE SELECT DISTINCT k FROM t").text())
"""

import os as _os

from repro.errors import (
    ReproError,
    CatalogError,
    SchemaError,
    ConstraintError,
    ThresholdExceededError,
    ExecutionError,
    PlanError,
    PlanInvariantError,
    SqlError,
    ProtocolError,
    ConnectionClosedError,
)
from repro.types import DataType
from repro.storage import (
    Field,
    Schema,
    ColumnVector,
    Table,
    Catalog,
    Database,
    WriteAheadLog,
)
from repro.core import (
    PatchIndex,
    PatchIndexMode,
    PatchSet,
    IdentifierPatches,
    BitmapPatches,
    ConstraintKind,
    ConstraintAdvisor,
    discover_nuc_patches,
    discover_nsc_patches,
    longest_sorted_subsequence_indices,
)
from repro.exec.result import QueryResult
from repro.obs import MetricsRegistry, QueryProfile

__version__ = "1.0.0"


def connect(
    target: "str | _os.PathLike | None" = None,
    *,
    # 1 only; bench_e2e/harness.py and bench_e2e/tracing.py pass it.
    parallelism: int | None = None,
    sync: bool = True,
    cache_bytes: int | None = None,
    timeout: float | None = None,
):
    """Open a database — local or remote — from one *target*.

    The single positional selects the mode:

    - ``repro.connect()`` — a fresh **in-memory** database;
    - ``repro.connect("/data/dir")`` — a **durable** database directory
      (created if missing; an existing file is a
      :class:`~repro.errors.StorageError`): row data is WAL-logged,
      ``CHECKPOINT`` flushes block-encoded columnar segment files, and
      reconnecting to the same directory recovers tables and
      PatchIndexes as they were — the log carries data, never patches
      (paper §V);
    - ``repro.connect("repro://host:port")`` — a **network client**
      (:class:`repro.serve.ServerClient`) speaking to a running
      ``python -m repro serve`` instance; it mirrors the ``Database``
      query surface, and *timeout* bounds the socket connect/replies.

    Durable knobs: *cache_bytes* bounds the shared decoded-block cache
    (default ``REPRO_CACHE_BYTES``, else 64 MiB; ``0`` disables it);
    ``sync=False`` skips fsync (benchmarks only).  Execution is serial:
    *parallelism* accepts ``1`` and nothing else.
    """
    if parallelism not in (None, 1):
        raise ReproError(
            f"execution is serial: parallelism must be 1, got {parallelism!r}"
        )
    if isinstance(target, str) and target.startswith("repro://"):
        if not sync or cache_bytes is not None:
            raise ReproError(
                "sync/cache_bytes are storage knobs of the "
                "server's database, not the client"
            )
        from repro.serve import ServerClient

        return ServerClient.from_uri(target, timeout=timeout)
    return Database(path=target, sync=sync, cache_bytes=cache_bytes)


__all__ = [
    "__version__",
    "connect",
    "ReproError",
    "CatalogError",
    "SchemaError",
    "ConstraintError",
    "ThresholdExceededError",
    "ExecutionError",
    "PlanError",
    "PlanInvariantError",
    "SqlError",
    "ProtocolError",
    "ConnectionClosedError",
    "DataType",
    "Field",
    "Schema",
    "ColumnVector",
    "Table",
    "Catalog",
    "Database",
    "WriteAheadLog",
    "PatchIndex",
    "PatchIndexMode",
    "PatchSet",
    "IdentifierPatches",
    "BitmapPatches",
    "ConstraintKind",
    "ConstraintAdvisor",
    "discover_nuc_patches",
    "discover_nsc_patches",
    "longest_sorted_subsequence_indices",
    "QueryResult",
    "QueryProfile",
    "MetricsRegistry",
]
