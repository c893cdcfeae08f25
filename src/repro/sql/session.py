"""SQL sessions: statement dispatch against a Database.

This module wires the front end together: tokenize → (DDL / DML
execution | optimized plan, from the catalog's plan cache or parse →
bind → optimize → physical plan → collect) — and owns :class:`Session`,
the first-class per-caller scope.  A session holds sticky knobs
(parallelism, profiling, snapshot reads) and is the unit the
network server hands each connection;
:meth:`repro.storage.database.Database.sql` delegates to an implicit
default session so single-caller code never has to see one.

Every statement bumps always-on counters in the owning database's
:class:`~repro.obs.metrics.MetricsRegistry` (statement totals per kind,
rows returned, plan-cache hits and misses, and on a miss each rewrite
the optimizer's breakeven gate refused, as
``plan.rewrite_refused.<distinct|sort|join>``).  When a statement runs
with ``profile=True`` — or as
``EXPLAIN ANALYZE`` — the operator tree is instrumented with
:func:`repro.obs.profile.profile_collect`, the resulting
:class:`~repro.obs.profile.QueryProfile` is attached to the returned
:class:`~repro.exec.result.QueryResult`, rolled into the registry
(query latency histogram, PatchSelect and parallel-pool counters).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import BindError, ExecutionError
from repro.exec.operators import Operator
from repro.exec.operators.scan import TID_COLUMN
from repro.exec.result import QueryResult, collect
from repro.obs.profile import QueryProfile, profile_collect
from repro.plan import logical as lp
from repro.plan.cache import (
    CachedPlan,
    bind_parameters,
    literal_slots,
    table_versions,
)
from repro.plan.explain import explain_both
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.lexer import Token, parameterize, tokenize
from repro.sql.parser import parse_select, parse_tokens
from repro.storage.schema import Field, Schema
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database


#: A run of characters that is neither whitespace nor "(".
_WORD = re.compile(r"[^\s(]+")


def statement_kind(text: str) -> str:
    """Coarse statement class: ``"read"`` | ``"write"`` | ``"checkpoint"``.

    Classified from the leading keyword alone — enough for routing
    decisions that must not parse (the server's read/write split, the
    snapshot-read gate) and deliberately conservative: anything that is
    not recognisably a read or a checkpoint is treated as a write.
    """
    leading = _WORD.search(text)
    word = leading.group().lower() if leading else ""
    if word in ("select", "explain"):
        return "read"
    if word == "checkpoint":
        return "checkpoint"
    return "write"


def explain_statement(text: str, analyze: bool) -> str:
    """``EXPLAIN [ANALYZE] <text>`` — the statement every ``explain()``
    runs through ``sql()``; *text* already starting with EXPLAIN passes
    through unchanged."""
    leading = _WORD.search(text)
    if leading is not None and leading.group().lower() == "explain":
        return text
    return f"EXPLAIN {'ANALYZE ' if analyze else ''}{text}"


class Session:
    """One caller's scope over a shared :class:`Database`.

    A session carries sticky per-caller knobs — *parallelism*,
    *profile* — that per-statement keyword arguments still override,
    plus *snapshot_reads*: when enabled, every read statement runs
    against its own :meth:`Database.snapshot` pin, on either engine, so
    concurrent writers and ``CHECKPOINT``\\ s never tear an in-flight
    scan.  The network server opens one session per connection with
    ``snapshot_reads=True``; local callers get the same object from
    :meth:`Database.session`.

    Sessions are cheap: they hold no storage state beyond the knobs,
    and closing one only flips bookkeeping (the database stays open).
    """

    def __init__(
        self,
        database: "Database",
        *,
        parallelism: int | None = None,
        profile: bool = False,
        snapshot_reads: bool = False,
        label: str | None = None,
        _implicit: bool = False,
    ):
        self.database = database
        self.parallelism = parallelism
        self.profile = profile
        self.snapshot_reads = snapshot_reads
        self.label = label
        #: Statements executed through this session (all kinds).
        self.statements = 0
        self._implicit = _implicit
        self._closed = False
        if not _implicit:
            database._session_opened()

    # -- knob resolution ----------------------------------------------------

    def _effective_parallelism(self, override: int | None) -> int | None:
        if override is not None:
            return override
        if self.parallelism is not None:
            return self.parallelism
        return self.database.parallelism

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is closed")

    # -- statement execution ------------------------------------------------

    def sql(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        profile: bool | None = None,
        optimizer_options: OptimizerOptions | None = None,
    ) -> QueryResult:
        """Execute one statement with the session's knobs applied.

        Per-statement keywords override the session knobs, which
        override the database defaults.  ``profile=None`` means "use
        the session's profile setting".
        """
        return self._sql(
            text,
            self.snapshot_reads and statement_kind(text) == "read",
            parallelism=parallelism,
            profile=profile,
            optimizer_options=optimizer_options,
        )

    def _sql(
        self,
        text: str,
        on_snapshot: bool,
        *,
        parallelism: int | None = None,
        profile: bool | None = None,
        optimizer_options: OptimizerOptions | None = None,
    ) -> QueryResult:
        """:meth:`sql` for a caller that already classified *text*.

        *on_snapshot* is "a read, on a session with snapshot reads" —
        the server works that out to route the statement, so the
        classifier runs once per served statement.
        """
        self._check_open()
        self._count_session_statement()
        effective_profile = self.profile if profile is None else profile
        effective_parallelism = self._effective_parallelism(parallelism)
        if on_snapshot:
            with self.database.snapshot() as view:
                return view._sql_read(
                    text,
                    parallelism=effective_parallelism,
                    profile=effective_profile,
                    optimizer_options=optimizer_options,
                )
        return _execute_statement(
            self.database,
            text,
            optimizer_options=optimizer_options,
            parallelism=effective_parallelism,
            profile=effective_profile,
        )

    def explain(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        analyze: bool = False,
        optimizer_options: OptimizerOptions | None = None,
    ) -> str:
        """Render the plan of a query with the session's knobs applied:
        :meth:`sql` of :func:`explain_statement`, its ``plan`` column
        joined — so it pins a snapshot exactly when that statement
        would."""
        return self.sql(
            explain_statement(text, analyze),
            parallelism=parallelism,
            optimizer_options=optimizer_options,
        ).text()

    def _count_session_statement(self) -> None:
        self.statements += 1
        obs = self.database.obs
        obs.counter("session.statements").inc()
        if self.label:
            obs.counter(f"session.{self.label}.statements").inc()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the session (idempotent); the database stays open."""
        if not self._closed:
            self._closed = True
            if not self._implicit:
                self.database._session_closed()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.snapshot_reads:
            flags.append("snapshot_reads")
        if self._closed:
            flags.append("closed")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"Session(label={self.label!r}{suffix})"


def _execute_statement(
    database: "Database",
    text: str,
    *,
    optimizer_options: OptimizerOptions | None = None,
    parallelism: int | None = None,
    profile: bool = False,
) -> QueryResult:
    """Execute one SQL statement and return its result.

    DDL and DML statements return a 1×1 result describing the effect
    (e.g. rows inserted); queries return their result set.
    *parallelism* caps the degree of parallelism of the physical plan
    (``None`` resolves ``REPRO_THREADS`` / the CPU count, ``1`` forces
    serial execution).  *profile* instruments the execution and attaches
    a :class:`~repro.obs.profile.QueryProfile` to the result.
    """
    tokens = tokenize(text)
    if tokens[0].is_keyword("select"):
        _count_statement(database, "select")
        __, operator, cache_state = _plan_read(
            database, tokens, optimizer_options, parallelism
        )
        result = _collect_read(database, operator, cache_state, profile, text)
        _count_rows(database, result.row_count)
        return result
    if tokens[0].is_keyword("explain"):
        analyze = tokens[1].is_keyword("analyze")
        query = tokens[2 if analyze else 1 :]
        if not query[0].is_keyword("select"):
            parse_tokens(query)  # a syntax error outranks the wrong kind
            raise BindError("EXPLAIN supports SELECT statements only")
        _count_statement(database, "explain_analyze" if analyze else "explain")
        rendered, query_profile = _explain_read(
            database, query, text, optimizer_options, parallelism, analyze
        )
        result = QueryResult.from_lines("plan", rendered.splitlines())
        result.profile = query_profile
        return result
    statement = parse_tokens(tokens)
    if isinstance(statement, ast.SqlCreateTable):
        _count_statement(database, "ddl")
        schema = Schema(
            Field(column.name, DataType.from_name(column.type_name), column.nullable)
            for column in statement.columns
        )
        database.create_table(statement.name, schema, statement.partitions)
        return QueryResult.message(f"table {statement.name} created")
    if isinstance(statement, ast.SqlDropTable):
        _count_statement(database, "ddl")
        database.drop_table(statement.name)
        return QueryResult.message(f"table {statement.name} dropped")
    if isinstance(statement, ast.SqlCreatePatchIndex):
        _count_statement(database, "ddl")
        index = database.create_patch_index(
            statement.name,
            statement.table,
            statement.column,
            kind=statement.kind,
            mode=statement.mode,
            threshold=statement.threshold,
            scope=statement.scope,
            ascending=statement.ascending,
        )
        return QueryResult.message(index.describe())
    if isinstance(statement, ast.SqlDropPatchIndex):
        _count_statement(database, "ddl")
        database.drop_patch_index(statement.name)
        return QueryResult.message(f"patchindex {statement.name} dropped")
    if isinstance(statement, ast.SqlInsert):
        _count_statement(database, "insert")
        inserted = _run_insert(database, statement)
        return QueryResult.message(f"{inserted} rows inserted")
    if isinstance(statement, ast.SqlDelete):
        _count_statement(database, "delete")
        deleted = _run_delete(database, statement, optimizer_options, parallelism)
        return QueryResult.message(f"{deleted} rows deleted")
    if isinstance(statement, ast.SqlCheckpoint):
        _count_statement(database, "checkpoint")
        info = database.checkpoint()
        return QueryResult.message(
            f"checkpoint at lsn {info['lsn']}: {info['tables']} tables, "
            f"{info['segments']} segments "
            f"({info['segment_bytes']} bytes), "
            f"{info['wal_pruned']} wal records pruned"
        )
    raise BindError(f"unsupported statement type: {type(statement).__name__}")


# -- the read path -------------------------------------------------------------


def _plan_read(
    database: "Database",
    tokens: list[Token],
    optimizer_options: OptimizerOptions | None,
    parallelism: int | None,
) -> tuple[lp.LogicalPlan, Operator, str]:
    """Plan the SELECT in *tokens*: optimized logical plan, verified
    physical plan, and ``"hit"`` / ``"miss"`` for the plan cache.

    Whatever the cache says, the physical planner — scan-range
    derivation from this execution's literals, the parallel gate,
    ``verify_plan`` — runs on every call; it raises
    ``PlanInvariantError`` on a violation, so a plan returned from here
    has passed (EXPLAIN's ``verified: ok`` footer).
    """
    optimized, cache_state = _optimized_plan(database, tokens, optimizer_options)
    operator = PhysicalPlanner(parallelism=parallelism).plan(optimized)
    return optimized, operator, cache_state


def _optimized_plan(
    database: "Database",
    tokens: list[Token],
    optimizer_options: OptimizerOptions | None,
) -> tuple[lp.LogicalPlan, str]:
    """The optimized logical plan of the SELECT in *tokens*.

    Served from the catalog's plan cache when an entry for this
    statement shape is still current — its slotted literals re-bound to
    this execution's values — else built by parse → bind → optimize and
    cached: for any values when every lifted literal survived
    optimization as exactly one slotted ``Literal``, else for exactly
    these values.
    """
    catalog = database.catalog
    cache = catalog.plan_cache
    obs = database.obs
    shape, values, lifted = parameterize(tokens)
    keys = [(shape, optimizer_options, ())]
    if lifted:
        keys.append((shape, optimizer_options, values))
    for key in keys:
        entry = cache.get(key)
        if entry is None:
            continue
        if entry.is_current(catalog):
            obs.counter("plan.cache.hits").inc()
            if entry.parameterized:
                return bind_parameters(entry.plan, values), "hit"
            return entry.plan, "hit"
        cache.discard(key)
        obs.counter("plan.cache.invalidations").inc()
    # Versions are read before the state they guard and advance after
    # it changed, so a mutation racing this planning leaves an entry
    # that is already stale.
    ddl_version = catalog.ddl_version
    logical = Binder(catalog).bind_select(parse_select(tokens))
    versions = table_versions(logical)
    optimizer = Optimizer(catalog, optimizer_options)
    optimized = optimizer.optimize(logical)
    parameterized = sorted(literal_slots(optimized)) == list(lifted)
    cache.put(
        keys[0] if parameterized else keys[-1],
        CachedPlan(optimized, parameterized, ddl_version, versions),
    )
    obs.counter("plan.cache.misses").inc()
    if not parameterized:
        obs.counter("plan.cache.uncacheable").inc()
    for use_case in optimizer.refused:
        obs.counter(f"plan.rewrite_refused.{use_case}").inc()
    return optimized, "miss"


def _collect_read(
    database: "Database",
    operator: Operator,
    cache_state: str,
    profile: bool,
    query_text: str,
) -> QueryResult:
    if not profile:
        return collect(operator)
    result, query_profile = profile_collect(operator, query_text)
    query_profile.root.details["plan_cache"] = cache_state
    result.profile = query_profile
    _record_profile(database, query_profile)
    return result


def _explain_read(
    database: "Database",
    tokens: list[Token],
    text: str,
    optimizer_options: OptimizerOptions | None,
    parallelism: int | None,
    analyze: bool,
) -> tuple[str, QueryProfile | None]:
    """EXPLAIN text of the SELECT in *tokens*; with *analyze* the query
    is executed and the text is its profile, returned alongside."""
    optimized, operator, cache_state = _plan_read(
        database, tokens, optimizer_options, parallelism
    )
    if not analyze:
        return explain_both(optimized, operator, verified=True), None
    executed = _collect_read(database, operator, cache_state, True, text)
    query_profile = _require_profile(executed)
    return query_profile.to_text(), query_profile


# -- observability plumbing ----------------------------------------------------


def _require_profile(result: QueryResult) -> QueryProfile:
    """The profile a ``profile=True`` execution must have attached."""
    if result.profile is None:
        raise ExecutionError(
            "profiled execution returned a result without a QueryProfile"
        )
    return result.profile


def _count_statement(database: "Database", kind: str) -> None:
    database.obs.counter("statements").inc()
    database.obs.counter(f"statements.{kind}").inc()


def _count_rows(database: "Database", rows: int) -> None:
    database.obs.counter("query.rows_returned").inc(rows)


def _record_profile(database: "Database", profile: QueryProfile) -> None:
    """Roll one finished profile into the registry."""
    obs = database.obs
    obs.counter("query.profiled").inc()
    obs.histogram("query.seconds").observe(profile.total_seconds)
    for node in profile.find("PatchSelect"):
        obs.counter("patchselect.rows_in").inc(
            int(node.details.get("rows_in", 0))
        )
        obs.counter("patchselect.patch_hits").inc(
            int(node.details.get("patch_hits", 0))
        )
    for node in profile.root.walk():
        if "dop_used" not in node.details:
            continue
        obs.counter("parallel.morsels_total").inc(
            int(node.details.get("morsels_run", 0))
        )
        obs.counter("parallel.queue_wait_seconds").inc(
            float(node.details.get("queue_wait_s", 0.0))
        )
        obs.counter("parallel.busy_seconds").inc(
            float(node.details.get("busy_s", 0.0))
        )
        obs.gauge("parallel.last_dop_used").set(
            int(node.details.get("dop_used", 0))
        )


# -- DML ----------------------------------------------------------------------


def _run_insert(database: "Database", statement: ast.SqlInsert) -> int:
    table = database.table(statement.table)
    width = len(table.schema)
    if statement.columns is None:
        rows = [list(row) for row in statement.rows]
        for row in rows:
            if len(row) != width:
                raise BindError(
                    f"INSERT row has {len(row)} values, table has {width}"
                )
    else:
        positions = {
            name: table.schema.index_of(name) for name in statement.columns
        }
        rows = []
        for row in statement.rows:
            if len(row) != len(statement.columns):
                raise BindError("INSERT row width mismatch")
            full: list[object] = [None] * width
            for name, value in zip(statement.columns, row):
                full[positions[name]] = value
            rows.append(full)
    return table.insert_rows(rows)


def _run_delete(
    database: "Database",
    statement: ast.SqlDelete,
    optimizer_options: OptimizerOptions | None,
    parallelism: int | None = None,
) -> int:
    table = database.table(statement.table)
    if statement.where is None:
        doomed = np.arange(table.row_count, dtype=np.int64)
        return table.delete_rowids(doomed)
    # Evaluate the predicate through a tid-projecting SELECT.
    select = ast.SqlSelect(
        items=(
            ast.SqlSelectItem(ast.SqlColumn(TID_COLUMN), TID_COLUMN),
        ),
        from_table=ast.SqlNamedTable(statement.table),
        where=statement.where,
    )
    # An already-parsed SELECT has no statement text to key a cached plan on.
    optimized = Optimizer(database.catalog, optimizer_options).optimize(
        Binder(database.catalog).bind_select(select)
    )
    result = collect(PhysicalPlanner(parallelism=parallelism).plan(optimized))
    rowids = [value for value in result.column(TID_COLUMN).to_pylist()]
    return table.delete_rowids(np.asarray(rowids, dtype=np.int64))
