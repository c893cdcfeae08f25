"""Ablation: the raw overhead of the PatchSelect operator.

The paper (§VIII) notes that using PatchIndexes "comes along with
overhead in query execution, mainly caused by additional operators in
the query plan and by copying subtrees", motivating its cost-model
future work.  This ablation quantifies exactly that overhead on this
engine — the per-row tax that puts each rewrite's breakeven
(:data:`repro.core.patches.REWRITE_BREAKEVEN`, measured end to end by
``bench_ablation_cost_model.py``) below 100 % exceptions:

- a bare scan vs a scan + exclude-PatchSelect with an *empty* patch set
  (pure operator overhead);
- the mask cost of the identifier vs the bitmap design at a low and a
  high exception rate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import measure
from repro.bench.reporting import format_table
from repro.core.constraints import ConstraintKind
from repro.core.patch_index import PatchIndex
from repro.core.patches import PatchSet
from repro.exec.operators import PatchSelect, PatchSelectMode, TableScan
from repro.exec.result import collect
from repro.gen.synthetic import synthetic_table

from conftest import BENCH_ROWS


def _index_with_rate(table, rate: float, design: str) -> PatchIndex:
    rng = np.random.default_rng(17)
    patch_sets = []
    for partition in table.partitions:
        count = int(partition.row_count * rate)
        rowids = np.sort(
            rng.choice(partition.row_count, size=count, replace=False)
        ).astype(np.int64)
        patch_sets.append(PatchSet.build(rowids, partition.row_count, design))
    index = PatchIndex(
        "pi",
        table,
        "u",
        ConstraintKind.UNIQUE,
        patch_sets,
        threshold=1.0,
    )
    index.detach()
    return index


@pytest.fixture(scope="module")
def table():
    return synthetic_table("overhead", BENCH_ROWS, partition_count=4, seed=51)


def test_patch_select_overhead(benchmark, table, report):
    bare = measure(lambda: collect(TableScan(table, columns=["u"])))
    rows = [["bare scan", bare.milliseconds, 1.0]]
    for design in ("identifier", "bitmap"):
        for rate in (0.0, 0.01, 0.5):
            index = _index_with_rate(table, rate, design)
            run = measure(
                lambda idx=index: collect(
                    PatchSelect(
                        TableScan(table, columns=["u"]),
                        idx,
                        PatchSelectMode.EXCLUDE_PATCHES,
                    )
                )
            )
            rows.append(
                [
                    f"scan + exclude ({design}, rate={rate:g})",
                    run.milliseconds,
                    run.seconds / bare.seconds,
                ]
            )
    report(
        format_table(
            f"Ablation §VIII: PatchSelect overhead over a bare scan "
            f"({BENCH_ROWS} rows)",
            ["plan", "runtime [ms]", "vs bare scan"],
            rows,
        )
    )
    # The overhead must stay bounded: a rewrite can only pay off below
    # some exception rate if the per-row tax of the select is modest.
    for row in rows[1:]:
        assert row[2] < 8.0, rows
    benchmark(lambda: collect(TableScan(table, columns=["u"])))


def test_designs_mask_cost_similarity(benchmark, table, report):
    """Figure 4/5 observed 'both designs perform similarly' — check the
    isolated mask computation agrees."""
    rows = []
    for rate in (0.001, 0.1, 0.5):
        timings = {}
        for design in ("identifier", "bitmap"):
            index = _index_with_rate(table, rate, design)
            run = measure(
                lambda idx=index: idx.mask_for_range(0, table.row_count)
            )
            timings[design] = run.milliseconds
        rows.append(
            [
                f"{rate:g}",
                timings["identifier"],
                timings["bitmap"],
            ]
        )
    report(
        format_table(
            "Ablation §V: full-table mask cost, identifier vs bitmap",
            ["rate", "identifier [ms]", "bitmap [ms]"],
            rows,
        )
    )
    index = _index_with_rate(table, 0.1, "bitmap")
    benchmark(lambda: index.mask_for_range(0, table.row_count))
