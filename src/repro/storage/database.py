"""Database facade: DDL, PatchIndex DDL, SQL entry point, recovery.

This is the top-level object users interact with.  It owns the
:class:`~repro.storage.catalog.Catalog` and the
:class:`~repro.storage.wal.WriteAheadLog`, and wires the SQL front end,
the optimizer and the executor together.

Recovery follows the paper's design (§V): the WAL records *that* a
PatchIndex exists (name, table, column, kind, mode, threshold), never its
patches.  A reopen restores indexes from the checkpoint's persisted patch
sets (or discovers them from data) and replays the WAL's data tail
through the tables, which the indexes re-classify exactly as they did
live (:mod:`repro.storage.materialize`); an index no checkpoint covers
yet is discovered from data as its ``create_index`` replays.  The
database is also where
maintenance meets self-management: every maintained mutation and every
rebuild of an index reaches :meth:`Database._on_index_event`, which
feeds the per-index drift gauge, schedules a background rebuild once
drift exceeds :data:`REBUILD_THRESHOLD`, and logs each rebuild as a
``rebuild_index`` record so recovery re-runs it.  Two durability modes
exist, selected at construction through the storage engine seam
(:mod:`repro.storage.engine`):

- in-memory (the default): nothing is persisted.
- durable (``Database(path=...)`` / ``repro.connect(path=...)``): row
  data is WAL-logged and checkpointed into columnar segment files, and
  reopening the same path runs full recovery — manifest load, PatchIndex
  restore or re-discovery, WAL tail replay — automatically.
"""

from __future__ import annotations

import os
import time
from typing import Mapping, Sequence, TYPE_CHECKING

from repro.errors import StorageError, WalError
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.patch_index import PatchIndex
    from repro.exec.result import QueryResult
    from repro.obs.metrics import MetricsRegistry
    from repro.sql.session import Session
    from repro.storage.materialize import Recovered
    from repro.storage.snapshot import SnapshotView

#: Drift ratio (patches added by maintenance / table rows) past which a
#: PatchIndex is scheduled for a background rebuild.  A constant, not a
#: knob: maintenance keeps patch sets correct, not minimal, so one
#: threshold is needed and no caller has ever asked for another.
REBUILD_THRESHOLD = 0.02


def schema_to_payload(schema: Schema) -> list[dict]:
    """Serialize a schema for a WAL record."""
    return [
        {
            "name": field.name,
            "dtype": field.dtype.value,
            "nullable": field.nullable,
        }
        for field in schema
    ]


def payload_to_schema(payload: Sequence[Mapping]) -> Schema:
    """Deserialize a schema from a WAL record."""
    try:
        return Schema(
            Field(
                entry["name"],
                DataType(entry["dtype"]),
                bool(entry.get("nullable", True)),
            )
            for entry in payload
        )
    except (KeyError, ValueError) as exc:
        raise WalError(f"malformed schema payload: {payload!r}") from exc


class Database:
    """A self-contained analytical database instance."""

    def __init__(
        self,
        *,
        path: str | os.PathLike | None = None,
        parallelism: int | None = None,
        sync: bool = True,
        cache_bytes: int | None = None,
    ):
        """Open a database: in memory, or a durable data directory.

        *path* opens (or creates) a durable data directory managed by
        :class:`~repro.storage.engine.DurableEngine`: row data is
        WAL-logged, ``CHECKPOINT`` flushes block-encoded columnar
        segment files, and reopening the same *path* recovers tables
        and PatchIndexes as they were.  ``sync=False`` skips fsync
        (benchmarks only).  *cache_bytes* bounds the shared
        decoded-block cache (default: the ``REPRO_CACHE_BYTES``
        environment variable, else 64 MiB; ``0`` disables caching).
        """
        from repro.obs import MetricsRegistry
        from repro.storage.engine import DurableEngine, MemoryEngine

        if path is None and cache_bytes is not None:
            raise StorageError(
                "cache_bytes= requires a durable database (pass path=)"
            )
        self.catalog = Catalog()
        #: Default degree of parallelism for queries issued through this
        #: instance; ``None`` lets the planner resolve ``REPRO_THREADS``
        #: / the CPU count, ``1`` forces serial plans.
        self.parallelism = parallelism
        #: Instance-wide metrics registry (see :meth:`metrics`).
        self.obs = MetricsRegistry()
        #: Session bookkeeping.
        self._implicit_session = None
        self._open_sessions = 0
        if path is not None:
            self.engine = DurableEngine(path, sync=sync, cache_bytes=cache_bytes)
            self.wal = self.engine.open_wal(self)
            self.engine.recover(self)
        else:
            self.engine = MemoryEngine()
            self.wal = self.engine.open_wal(self)

    # -- sessions -----------------------------------------------------------

    def session(
        self,
        *,
        parallelism: int | None = None,
        profile: bool = False,
        snapshot_reads: bool = False,
        label: str | None = None,
    ) -> "Session":
        """Open a :class:`~repro.sql.session.Session` on this database.

        The session carries sticky knobs every statement issued through
        it inherits (*parallelism*, *profile*), and
        ``snapshot_reads=True`` runs each read statement against its own
        :meth:`snapshot` pin, on either engine.  *label* tags the
        session's ``session.<label>.*`` metrics.  Sessions are context
        managers::

            with db.session(parallelism=4) as session:
                session.sql("SELECT ...")
        """
        from repro.sql.session import Session

        return Session(
            self,
            parallelism=parallelism,
            profile=profile,
            snapshot_reads=snapshot_reads,
            label=label,
        )

    def _default_session(self) -> "Session":
        """The implicit session :meth:`sql` / :meth:`explain` run under."""
        if self._implicit_session is None:
            from repro.sql.session import Session

            self._implicit_session = Session(
                self, label="default", _implicit=True
            )
        return self._implicit_session

    def _session_opened(self) -> None:
        self._open_sessions += 1
        self.obs.counter("session.opened").inc()
        self.obs.gauge("session.active").set(self._open_sessions)

    def _session_closed(self) -> None:
        self._open_sessions = max(0, self._open_sessions - 1)
        self.obs.counter("session.closed").inc()
        self.obs.gauge("session.active").set(self._open_sessions)

    def snapshot(self) -> "SnapshotView":
        """Pin a snapshot and return a read-only view over it.

        The view exposes ``sql`` / ``explain`` for ``SELECT`` statements
        against exactly the tables and PatchIndexes at pin time — a copy
        of the live catalog taken under its state lock, shared by every
        pin until the next mutation (:mod:`repro.storage.snapshot`).  Close
        the view (or use it as a context manager) to release the pin so
        deferred segment GC can run.  Works on every engine.
        """
        from repro.storage.snapshot import SnapshotView

        return SnapshotView(self, self.engine.pin_snapshot(self))

    def _on_table_event(self, event: str, payload: dict) -> None:
        """Always-on maintenance counters, plus engine data logging."""
        if event == "append":
            self.obs.counter("maintenance.appends").inc()
            self.obs.counter("maintenance.rows_appended").inc(
                int(payload.get("row_count", 0))
            )
        elif event == "load":
            self.obs.counter("maintenance.loads").inc()
            self.obs.counter("maintenance.rows_loaded").inc(
                int(payload.get("row_count", 0))
            )
        elif event == "delete":
            self.obs.counter("maintenance.deletes").inc()
        elif event == "update":
            self.obs.counter("maintenance.updates").inc()
        self.engine.table_event(self, event, payload)

    def _on_index_event(self, index: "PatchIndex", event: str) -> None:
        """Sink for every maintained table event and rebuild of an index.

        Feeds the per-index drift gauge and schedules a background rebuild
        (``rebuild_pending``) once drift exceeds :data:`REBUILD_THRESHOLD`.
        A rebuild is logged as a ``rebuild_index`` record (durable
        engines): the data records carry the mutations, but only this
        says where the rebuild happened, so recovery re-runs it there.
        """
        if event == "rebuild":
            if self.engine.logs_data:
                self.wal.append(
                    "rebuild_index", {"name": index.name, "table": index.table_name}
                )
            index.publish_discovery(self.obs)
        drift = index.drift_rate()
        self.obs.gauge(f"patchindex.{index.name}.drift_rate").set(drift)
        if (
            event != "rebuild"
            and not index.rebuild_pending
            and drift > REBUILD_THRESHOLD
        ):
            index.rebuild_pending = True
            self.obs.counter("maintenance.rebuilds_scheduled").inc()

    def run_pending_rebuilds(self) -> int:
        """Rebuild every index maintenance drift marked for it.

        The background half of drift-triggered self-management: the
        index sink marks indexes past :data:`REBUILD_THRESHOLD`, and
        this sweep — called by the server's writer loop between batches,
        or directly — re-runs discovery on them.  Returns the number of
        indexes rebuilt.
        """
        ran = 0
        for index in self.catalog.indexes():
            if index.rebuild_pending:
                index.rebuild()
                self.obs.counter("maintenance.rebuilds_run").inc()
                ran += 1
        return ran

    def drift_report(self) -> list[dict]:
        """Per-index drift summary (the REPL's ``\\drift`` command)."""
        report = []
        for index in self.catalog.indexes():
            report.append(
                {
                    "index": index.name,
                    "table": index.table_name,
                    "column": index.column_name,
                    "patch_count": index.patch_count,
                    "drift_rate": index.drift_rate(),
                    "rebuild_threshold": REBUILD_THRESHOLD,
                    "rebuild_pending": index.rebuild_pending,
                    "rebuilds": index.rebuild_count,
                }
            )
        return report

    # -- table DDL ----------------------------------------------------------

    def _install_table(self, table: Table) -> None:
        """Register a table in the catalog and wire the event listener."""
        table.add_listener(self._on_table_event)
        self.catalog.add_table(table)

    def create_table(
        self,
        name: str,
        schema: Schema,
        partition_count: int = 1,
        block_size: int | None = None,
    ) -> Table:
        """Create an empty table and log the DDL."""
        kwargs = {} if block_size is None else {"block_size": block_size}
        table = Table(name, schema, partition_count, **kwargs)
        with self.catalog.state_lock:
            self._install_table(table)
            self.wal.append(
                "create_table",
                {
                    "name": name,
                    "schema": schema_to_payload(schema),
                    "partition_count": partition_count,
                    "block_size": table.block_size,
                },
            )
        return table

    def create_table_from_pydict(
        self,
        name: str,
        schema: Schema,
        data: Mapping[str, Sequence[object]],
        partition_count: int = 1,
    ) -> Table:
        """Create a table and bulk-load Python-level data in one step."""
        table = self.create_table(name, schema, partition_count)
        columns = {
            field.name: ColumnVector.from_pylist(field.dtype, list(data[field.name]))
            for field in schema
        }
        table.load_columns(columns)
        return table

    def drop_table(self, name: str) -> None:
        with self.catalog.state_lock:
            self.catalog.drop_table(name)
            self.wal.append("drop_table", {"name": name})

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- PatchIndex DDL --------------------------------------------------------

    def create_patch_index(
        self,
        index_name: str,
        table_name: str,
        column_name: str,
        kind: str,
        *,
        mode: str = "auto",
        threshold: float = 1.0,
        scope: str = "global",
        ascending: bool = True,
        strict: bool = False,
    ) -> "PatchIndex":
        """Create a PatchIndex: run discovery, register, log to the WAL.

        Parameters mirror the paper: *kind* is ``"unique"`` (NUC) or
        ``"sorted"`` (NSC); *mode* selects the physical design
        (``"identifier"``, ``"bitmap"`` or ``"auto"``); *threshold* is
        ``nuc_threshold`` / ``nsc_threshold`` — creation fails with
        :class:`~repro.errors.ThresholdExceededError` when the discovered
        exception rate is above it.  *scope* selects global vs
        partition-local sortedness for NSC indexes (see
        :func:`repro.core.discovery.discover_table_nsc`).
        """
        from repro.core.patch_index import PatchIndex, PatchIndexMode

        with self.catalog.state_lock:
            index = PatchIndex.create(
                index_name,
                self.catalog.table(table_name),
                column_name,
                kind=kind,
                mode=PatchIndexMode(mode),
                threshold=threshold,
                scope=scope,
                ascending=ascending,
                strict=strict,
            )
            self._adopt_index(index)
            self.wal.append(
                "create_index",
                {
                    "name": index_name,
                    "table": table_name,
                    "column": column_name,
                    "kind": kind,
                    "mode": mode,
                    "threshold": threshold,
                    "scope": scope,
                    "ascending": ascending,
                    "strict": strict,
                },
            )
        return index

    def _adopt_index(self, index: "PatchIndex") -> None:
        """Register an index and route its events through this database."""
        self.catalog.add_index(index)
        index.delta_sink = self._on_index_event
        # A reopen restores drift with the patch sets, so the pending
        # rebuild it implies comes back with them.
        index.rebuild_pending = index.drift_rate() > REBUILD_THRESHOLD
        # Created or rebuilt from data; a restored index has none to report.
        index.publish_discovery(self.obs)

    def _install_recovered(self, recovered: "Recovered") -> None:
        """Register what recovery's replay produced (tables, then indexes)."""
        for table in recovered.tables.values():
            self._install_table(table)
        for index in recovered.indexes:
            self._adopt_index(index)

    def drop_patch_index(self, name: str) -> None:
        with self.catalog.state_lock:
            self.catalog.drop_index(name)
            self.wal.append("drop_index", {"name": name})

    # -- durability ---------------------------------------------------------

    def checkpoint(self) -> dict:
        """Durably flush state through the storage engine.

        For a durable database this writes a fresh generation of segment
        files, installs the manifest, marks the WAL and prunes records
        the checkpoint made redundant; for an in-memory database it
        writes the marker and compacts metadata.  Returns a summary dict
        (engine, lsn, segment counts/bytes, records pruned, seconds) and
        feeds ``checkpoint.seconds`` / ``checkpoint.count`` metrics.
        """
        started = time.perf_counter()
        info = self.engine.checkpoint(self)
        elapsed = time.perf_counter() - started
        self.obs.counter("checkpoint.count").inc()
        self.obs.histogram("checkpoint.seconds").observe(elapsed)
        info["seconds"] = elapsed
        return info

    def close(self) -> None:
        """Release engine resources (appends are already durable)."""
        self.engine.close(self)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- SQL entry point ----------------------------------------------------------

    def sql(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        profile: bool = False,
        optimizer_options=None,
    ) -> "QueryResult":
        """Parse, bind, optimize and execute a SQL statement.

        DDL and DML statements return a 1×1 status result; queries
        return a :class:`~repro.exec.result.QueryResult` with named
        columns.  All knobs are keyword-only: *parallelism* overrides
        the instance default for this statement, *profile* instruments
        the execution and attaches a ``QueryProfile`` to the result
        (``result.profile``), and *optimizer_options* passes a
        :class:`~repro.plan.optimizer.OptimizerOptions` through to the
        optimizer (e.g. to disable PatchIndex rewrites).

        Statements run under the database's implicit default session;
        open an explicit :meth:`session` for sticky knobs or snapshot
        reads.
        """
        return self._default_session().sql(
            text,
            parallelism=parallelism,
            profile=profile,
            optimizer_options=optimizer_options,
        )

    def explain(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        analyze: bool = False,
        optimizer_options=None,
    ) -> str:
        """Return the plan of a SQL query as indented text.

        ``analyze=True`` executes the query and annotates the plan with
        actual row counts, wall times and PatchSelect counters
        (equivalent to ``EXPLAIN ANALYZE <query>``).
        """
        return self._default_session().explain(
            text,
            parallelism=parallelism,
            analyze=analyze,
            optimizer_options=optimizer_options,
        )

    # -- observability -----------------------------------------------------------

    def metrics(self, *, refresh: bool = True) -> "MetricsRegistry":
        """The instance's metrics registry.

        With ``refresh=True`` (the default) the PatchIndex health and
        maintenance gauges are recomputed first: per index,
        ``patchindex.<name>.patch_count`` / ``.patch_ratio`` (exception
        rate vs. the paper's 1/64 design crossover, exported as
        ``.ratio_vs_crossover``) / ``.rebuilds`` / ``.drift_rate``, plus
        the aggregated maintenance drift counters.
        """
        if refresh:
            self._refresh_health_gauges()
        return self.obs

    def _refresh_health_gauges(self) -> None:
        from repro.core.patches import CROSSOVER_RATE

        for table_name in self.catalog.table_names():
            for index in self.catalog.indexes_on(table_name):
                prefix = f"patchindex.{index.name}"
                self.obs.gauge(f"{prefix}.patch_count").set(index.patch_count)
                self.obs.gauge(f"{prefix}.patch_ratio").set(
                    index.exception_rate
                )
                self.obs.gauge(f"{prefix}.ratio_vs_crossover").set(
                    index.exception_rate / CROSSOVER_RATE
                )
                self.obs.gauge(f"{prefix}.rebuilds").set(index.rebuild_count)
                self.obs.gauge(f"{prefix}.drift_rate").set(index.drift_rate())
                self.obs.gauge(f"{prefix}.rebuild_pending").set(
                    1.0 if index.rebuild_pending else 0.0
                )
                stats = index.maintenance_stats()
                if stats is not None:
                    self.obs.gauge(f"{prefix}.patches_added").set(
                        stats.patches_added
                    )
        self.obs.gauge("maintenance.rebuild_threshold").set(REBUILD_THRESHOLD)
        cache_stats = self.engine.cache_stats()
        if cache_stats is not None:
            self.obs.gauge("cache.bytes").set(cache_stats["bytes"])
            self.obs.gauge("cache.entries").set(cache_stats["entries"])
            self.obs.gauge("cache.hit_ratio").set(cache_stats["hit_ratio"])
            self.obs.gauge("cache.capacity_bytes").set(
                cache_stats["capacity_bytes"]
            )
        for table_name, ratio in self.engine.encoded_ratios().items():
            self.obs.gauge(f"storage.{table_name}.encoded_ratio").set(ratio)

    def cache_stats(self) -> dict | None:
        """Block-cache counters and occupancy (None without a cache)."""
        return self.engine.cache_stats()

    # -- introspection -----------------------------------------------------------

    def describe(self) -> str:
        """Human-readable summary of tables and indexes."""
        lines: list[str] = []
        for name in self.catalog.table_names():
            table = self.catalog.table(name)
            lines.append(
                f"table {name} ({table.row_count} rows, "
                f"{table.partition_count} partitions)"
            )
            for field in table.schema:
                lines.append(f"  {field}")
            for index in self.catalog.indexes_on(name):
                lines.append(f"  {index.describe()}")
        return "\n".join(lines)
