"""Profiling overhead: disabled must be (near) free, enabled must be cheap.

The observability layer promises that a query which does not ask for a
profile executes the same operator bytecode as before the layer existed
— instrumentation is attached per query, opt-in, as instance
attributes.  This benchmark checks that promise and records it to
``BENCH_profile.json``:

- *baseline*: parse → bind → optimize → plan → collect by hand, with
  no metrics registry in the loop (the pre-observability code path);
- *disabled*: ``Database.sql(query)`` — the public path with profiling
  off (statement counters fire, no operator instrumentation);
- *enabled*: ``Database.sql(query, profile=True)`` — full per-operator
  timing and PatchSelect counters.

The concurrency sanitizer rides the same harness on a *durable* engine
(its instrumented locks sit on the block-cache and snapshot paths,
which a memory engine never exercises):

- *sanitize off*: ``REPRO_SANITIZE`` unset — ``make_lock`` hands out
  plain ``threading.Lock`` objects, so the knob must be (near) free;
- *sanitize on*: the same workload against a database built under
  ``REPRO_SANITIZE=1`` — order-graph checks, held-time histograms and
  the resource ledger all active.

Acceptance: disabled profiling overhead vs the baseline stays within
5%; the sanitize-off path stays within 10% of the durable baseline.

Run:  PYTHONPATH=src python benchmarks/bench_profile_overhead.py

Knobs: ``REPRO_BENCH_PROFILE_ROWS`` (default 200_000),
``REPRO_BENCH_PROFILE_REPEATS`` (default 9, best-of).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.bench.harness import measure
from repro.exec.result import collect
from repro.plan.optimizer import Optimizer
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.column import ColumnVector
from repro.storage.database import Database
from repro.storage.schema import Field, Schema
from repro.types import DataType

ROWS = int(os.environ.get("REPRO_BENCH_PROFILE_ROWS", 200_000))
REPEATS = int(os.environ.get("REPRO_BENCH_PROFILE_REPEATS", 9))
DISABLED_BUDGET = 0.05  # acceptance: <= 5% overhead with profiling off
SANITIZE_OFF_BUDGET = 0.10  # acceptance: <= 10% with the knob off
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_profile.json"

QUERY = "SELECT COUNT(DISTINCT c) AS n FROM t WHERE c < {limit}"


def build_database(rows: int) -> Database:
    rng = np.random.default_rng(31)
    values = rng.permutation(rows).astype(np.int64)
    duplicates = max(1, rows // 1000)
    positions = rng.choice(rows, duplicates, replace=False)
    values[positions] = values[rng.integers(0, rows, duplicates)]
    database = Database(parallelism=1)  # serial: measure pure overhead
    table = database.create_table(
        "t", Schema([Field("c", DataType.INT64)]), partition_count=4
    )
    table.load_columns({"c": ColumnVector(DataType.INT64, values)})
    database.create_patch_index("pi", "t", "c", kind="unique")
    return database


def build_durable(rows: int, root: str) -> Database:
    rng = np.random.default_rng(31)
    values = rng.permutation(rows).astype(np.int64)
    database = Database(path=root, sync=False, parallelism=1)
    table = database.create_table(
        "t", Schema([Field("c", DataType.INT64)]), partition_count=4
    )
    table.load_columns({"c": ColumnVector(DataType.INT64, values)})
    database.sql("CHECKPOINT")  # segment-backed scans go through the cache
    return database


def measure_sanitizer(query: str, repeats: int) -> dict:
    """Durable-engine sql() with the sanitizer off vs on."""
    import shutil
    import tempfile

    from repro.check import sanitize

    roots = [tempfile.mkdtemp(prefix="bench_sanitize_")
             for _ in range(2)]
    saved = os.environ.pop(sanitize.ENV_FLAG, None)
    try:
        off_db = build_durable(ROWS, roots[0])
        os.environ[sanitize.ENV_FLAG] = "1"
        on_db = build_durable(ROWS, roots[1])
        del os.environ[sanitize.ENV_FLAG]

        def durable_baseline():
            statement = parse_statement(query)
            logical = Optimizer(off_db.catalog).optimize(
                Binder(off_db.catalog).bind_select(statement)
            )
            return collect(
                PhysicalPlanner(parallelism=1, database=off_db).plan(logical)
            )

        def sanitize_off():
            return off_db.sql(query)

        def sanitize_on():
            os.environ[sanitize.ENV_FLAG] = "1"
            try:
                return on_db.sql(query)
            finally:
                del os.environ[sanitize.ENV_FLAG]

        expected = durable_baseline().scalar()
        assert sanitize_off().scalar() == expected
        assert sanitize_on().scalar() == expected

        # Interleave the three thunks round-robin: the durable runs are
        # disk- and cache-sensitive, and consecutive blocks would fold
        # machine drift into the ratios.
        import gc
        import time

        thunks = [durable_baseline, sanitize_off, sanitize_on]
        best = [float("inf")] * len(thunks)
        for thunk in thunks:
            for _ in range(2):
                thunk()
        for _ in range(repeats):
            for index, thunk in enumerate(thunks):
                gc.collect()
                started = time.perf_counter()
                thunk()
                best[index] = min(best[index], time.perf_counter() - started)
        baseline_s, off_s, on_s = best
        leaks = sanitize.check_balances()
        off_db.close()
        on_db.close()
    finally:
        if saved is not None:
            os.environ[sanitize.ENV_FLAG] = saved
        else:
            os.environ.pop(sanitize.ENV_FLAG, None)
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "durable_baseline_s": baseline_s,
        "off_s": off_s,
        "on_s": on_s,
        "off_overhead": off_s / baseline_s - 1.0,
        "on_overhead": on_s / baseline_s - 1.0,
        "off_budget": SANITIZE_OFF_BUDGET,
        "balanced": not leaks,
    }


def main() -> int:
    query = QUERY.format(limit=ROWS // 2)
    database = build_database(ROWS)
    print(f"rows={ROWS}  repeats={REPEATS}\n{query}")

    def baseline():
        statement = parse_statement(query)
        logical = Optimizer(database.catalog).optimize(
            Binder(database.catalog).bind_select(statement)
        )
        return collect(PhysicalPlanner(parallelism=1).plan(logical))

    def disabled():
        return database.sql(query)

    def enabled():
        return database.sql(query, profile=True)

    expected = baseline().scalar()
    assert disabled().scalar() == expected
    assert enabled().scalar() == expected

    baseline_run = measure(baseline, repeats=REPEATS, warmup=2)
    disabled_run = measure(disabled, repeats=REPEATS, warmup=2)
    enabled_run = measure(enabled, repeats=REPEATS, warmup=2)

    disabled_overhead = disabled_run.seconds / baseline_run.seconds - 1.0
    enabled_overhead = enabled_run.seconds / baseline_run.seconds - 1.0
    within_budget = disabled_overhead <= DISABLED_BUDGET

    print(
        f"baseline          {baseline_run.milliseconds:9.2f} ms\n"
        f"profiling off     {disabled_run.milliseconds:9.2f} ms "
        f"({disabled_overhead:+.1%})\n"
        f"profiling on      {enabled_run.milliseconds:9.2f} ms "
        f"({enabled_overhead:+.1%})\n"
        f"disabled budget   {DISABLED_BUDGET:.0%} -> "
        f"{'OK' if within_budget else 'EXCEEDED'}"
    )

    sanitize_stats = measure_sanitizer(query, REPEATS)
    sanitize_ok = (
        sanitize_stats["off_overhead"] <= SANITIZE_OFF_BUDGET
        and sanitize_stats["balanced"]
    )
    print(
        f"sanitize off      {sanitize_stats['off_s'] * 1000:9.2f} ms "
        f"({sanitize_stats['off_overhead']:+.1%})\n"
        f"sanitize on       {sanitize_stats['on_s'] * 1000:9.2f} ms "
        f"({sanitize_stats['on_overhead']:+.1%})\n"
        f"sanitize budget   {SANITIZE_OFF_BUDGET:.0%} off -> "
        f"{'OK' if sanitize_ok else 'EXCEEDED'}"
    )

    payload = {
        "rows": ROWS,
        "repeats": REPEATS,
        "query": query,
        "baseline_s": baseline_run.seconds,
        "disabled_s": disabled_run.seconds,
        "enabled_s": enabled_run.seconds,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "disabled_budget": DISABLED_BUDGET,
        "within_budget": within_budget,
        "sanitize": sanitize_stats,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    return 0 if within_budget and sanitize_ok else 1


if __name__ == "__main__":
    sys.exit(main())
