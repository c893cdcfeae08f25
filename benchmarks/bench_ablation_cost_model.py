"""Ablation: where does each rewrite stop paying off? (paper §VII-B, §VIII)

Each PatchIndex rewrite wins up to some exception rate and loses beyond
it (the bends of Fig. 4 and 5).  The optimizer's gate is one constant
per rewrite, :data:`repro.core.patches.REWRITE_BREAKEVEN`: rewrite iff
``patch_count < rate * rows``.  This ablation is the source of those
constants.  For each use case and exception rate it times the plain
plan and the forced rewrite, alternated, and reports both medians, how
many runs the rewrite won, the plan the gate picks, and per series the
crossover rate: linear in the median time ratio between the last grid
rate the rewrite won at and the next one.

The join rewrite runs at two build sides, 5 % and 50 % of the probe
rows: a date-dimension-like table and a wide one.  Its constant is the
lower of the two crossovers.  A cell where the gate picks the plan that
was more than 10 % slower in at least four of the five runs is a miss.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from repro.bench.reporting import format_table
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.core.patches import REWRITE_BREAKEVEN, rewrite_pays_off
from repro.exec.operators.aggregate import AggregateSpec
from repro.exec.operators.sort import SortKey
from repro.exec.result import collect
from repro.gen.synthetic import sorted_with_exceptions, synthetic_table
from repro.plan import logical as lp
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

from conftest import BENCH_ROWS

RATES = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7]
RUNS = 5
#: Build-side rows of the join use case, as a share of the probe rows.
BUILD_SHARES = [0.05, 0.5]


def _catalog(index: PatchIndex, *tables: Table) -> Catalog:
    catalog = Catalog()
    for table in tables:
        catalog.add_table(table)
    catalog.add_index(index)
    return catalog


def _distinct_or_sort(use_case: str, rate: float):
    """(logical plan, catalog, patch count) for a distinct or sort cell."""
    kind = "unique" if use_case == "distinct" else "sorted"
    column = "u" if use_case == "distinct" else "s"
    table = synthetic_table(
        f"cm_{use_case}_{rate}",
        BENCH_ROWS,
        unique_exception_rate=rate if kind == "unique" else 0.0,
        sorted_exception_rate=rate if kind == "sorted" else 0.0,
        partition_count=4,
        seed=int(rate * 1000) + 71,
    )
    index = PatchIndex.create("pi", table, column, kind, mode=PatchIndexMode.BITMAP)
    index.detach()
    scan = lp.LogicalScan(table, (column,))
    if use_case == "distinct":
        logical = lp.LogicalAggregate(
            scan, (), (AggregateSpec("count_distinct", column, "n"),)
        )
    else:
        logical = lp.LogicalSort(scan, (SortKey(column),))
    return logical, _catalog(index, table), index.patch_count


def _join(rate: float, share: float):
    """(logical plan, catalog, patch count) for a join cell: a probe table
    whose key is nearly sorted (each dimension key repeated ~1/share
    times, *rate* of the rows displaced) joined with a sorted dimension
    of ``share`` × the probe rows, drained by ``COUNT(*)``."""
    n_build = max(1, int(BENCH_ROWS * share))
    spread = sorted_with_exceptions(BENCH_ROWS, rate, seed=int(rate * 1000) + 5)
    probe = Table(
        f"probe_{rate}_{share}",
        Schema([Field("k", DataType.INT64)]),
        4,
    )
    probe.load_columns(
        {"k": ColumnVector(DataType.INT64, spread.values * n_build // BENCH_ROWS)}
    )
    build = Table(f"dim_{share}", Schema([Field("d", DataType.INT64)]), 1)
    build.load_columns(
        {"d": ColumnVector(DataType.INT64, np.arange(n_build, dtype=np.int64))}
    )
    index = PatchIndex.create("pi", probe, "k", "sorted", mode=PatchIndexMode.BITMAP)
    index.detach()
    logical = lp.LogicalAggregate(
        lp.LogicalJoin(lp.LogicalScan(probe), lp.LogicalScan(build), "k", "d"),
        (),
        (AggregateSpec("count_star", None, "n"),),
    )
    return logical, _catalog(index, probe, build), index.patch_count


def _timed(operator) -> float:
    gc.collect()
    started = time.perf_counter()
    collect(operator)
    return time.perf_counter() - started


def _alternated(plain, patched) -> tuple[list[float], list[float]]:
    """RUNS paired timings, the order swapped every run, after a warm-up."""
    collect(plain)
    collect(patched)
    plain_times, patched_times = [], []
    for run in range(RUNS):
        if run % 2:
            patched_times.append(_timed(patched))
            plain_times.append(_timed(plain))
        else:
            plain_times.append(_timed(plain))
            patched_times.append(_timed(patched))
    return plain_times, patched_times


def _crossover(points: list[tuple[float, float]]) -> str:
    """The rate from which the rewrite loses for good: where the median
    ratio rewrite / plain reaches 1 between the last grid rate it won at
    and the next one (a lone losing cell below that is noise)."""
    wins = [i for i, (__, ratio) in enumerate(points) if ratio < 1.0]
    if not wins:
        return f"< {points[0][0]:g}"
    if wins[-1] == len(points) - 1:
        return f"> {points[-1][0]:g}"
    (low_rate, low_ratio), (rate, ratio) = points[wins[-1]], points[wins[-1] + 1]
    share = (1.0 - low_ratio) / (ratio - low_ratio)
    return f"{low_rate + share * (rate - low_rate):.2f}"


def test_rewrite_breakevens(benchmark, report):
    planner = PhysicalPlanner()
    forced = OptimizerOptions(always_rewrite=True)
    series = [("distinct", None), ("sort", None)] + [
        ("join", share) for share in BUILD_SHARES
    ]
    rows, crossovers, misses = [], [], []
    for use_case, share in series:
        points = []
        for rate in RATES:
            if use_case == "join":
                logical, catalog, patches = _join(rate, share)
            else:
                logical, catalog, patches = _distinct_or_sort(use_case, rate)
            plain = planner.plan(logical)
            patched = planner.plan(Optimizer(catalog, forced).optimize(logical))
            plain_times, patched_times = _alternated(plain, patched)
            ratio = statistics.median(patched_times) / statistics.median(plain_times)
            points.append((rate, ratio))
            gate = rewrite_pays_off(use_case, BENCH_ROWS, patches)
            picked, other = (
                (patched_times, plain_times) if gate else (plain_times, patched_times)
            )
            slower = sum(p > 1.1 * o for p, o in zip(picked, other))
            miss = slower >= 4
            rows.append(
                [
                    use_case,
                    "—" if share is None else f"{share:.0%}",
                    rate,
                    patches / BENCH_ROWS,
                    statistics.median(plain_times) * 1e3,
                    statistics.median(patched_times) * 1e3,
                    ratio,
                    f"{sum(p < q for p, q in zip(patched_times, plain_times))}/{RUNS}",
                    "rewrite" if gate else "plain",
                    "MISS" if miss else "",
                ]
            )
            if miss:
                misses.append(rows[-1])
        label = use_case if share is None else f"{use_case}, build {share:.0%}"
        crossovers.append(
            [label, _crossover(points), REWRITE_BREAKEVEN[use_case]]
        )
    report(
        format_table(
            f"Ablation §VIII: rewrite vs plain by exception rate ({BENCH_ROWS} "
            f"probe rows, {RUNS} alternated runs a cell, medians; MISS = the "
            "gate's plan > 10 % slower in >= 4 runs)",
            [
                "use case", "build", "rate", "patches / rows", "plain [ms]",
                "rewrite [ms]", "rewrite / plain", "rewrite won", "gate", "",
            ],
            rows,
        )
    )
    report(
        format_table(
            "Ablation §VIII: measured crossover vs REWRITE_BREAKEVEN",
            ["series", "crossover", "constant"],
            crossovers,
        )
    )
    # The gate may be wrong only near a crossover, where both plans cost
    # about the same.
    assert len(misses) <= len(rows) // 4, misses
    logical, catalog, __ = _distinct_or_sort("distinct", 0.05)
    patched = planner.plan(Optimizer(catalog, forced).optimize(logical))
    benchmark(lambda: collect(patched))
