"""Figure 6 (paper §VII-B2): PatchIndex creation time vs exception rate.

Paper observations to reproduce:

- both physical designs behave near-identically (the creation cost is
  dominated by *computing* the exceptions, not inserting them);
- NSC creation is the sum of the longest-sorted-subsequence run, the
  exception construction and the insertion, with the LIS showing
  non-linear behaviour over the rate (here: a step per sorted *run*,
  so the cost rises with the rate until the runs are too short to
  batch, then flattens at the per-row loop's);
- NUC creation gets *faster* with more exceptions (more duplicates →
  fewer aggregation groups → cheaper grouping).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import measure
from repro.bench.reporting import format_series
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.gen.synthetic import synthetic_table

from conftest import CREATE_ROWS, SWEEP_RATES


def _table_for(kind: str, rate: float):
    return synthetic_table(
        f"fig6_{kind}_{rate}",
        CREATE_ROWS,
        unique_exception_rate=rate if kind == "unique" else 0.0,
        sorted_exception_rate=rate if kind == "sorted" else 0.0,
        partition_count=4,
        seed=int(rate * 1000) + 23,
    )


def _create(table, kind: str, mode: PatchIndexMode) -> float:
    column = "u" if kind == "unique" else "s"
    run = measure(
        lambda: PatchIndex.create(
            "pi", table, column, kind, mode=mode
        ).detach(),
        repeats=3,
        warmup=1,
    )
    return run.milliseconds


@pytest.fixture(scope="module")
def sweep(report):
    series = {
        "NUC identifier": [],
        "NUC bitmap": [],
        "NSC identifier": [],
        "NSC bitmap": [],
    }
    for rate in SWEEP_RATES:
        for kind in ("unique", "sorted"):
            table = _table_for(kind, rate)
            for mode in (PatchIndexMode.IDENTIFIER, PatchIndexMode.BITMAP):
                label = (
                    f"{'NUC' if kind == 'unique' else 'NSC'} "
                    f"{mode.value}"
                )
                series[label].append(_create(table, kind, mode))
    report(
        format_series(
            f"Figure 6: PatchIndex creation time vs exception rate "
            f"({CREATE_ROWS} rows; paper: designs similar, NUC decreasing, "
            "NSC dominated by the LIS)",
            "rate",
            SWEEP_RATES,
            series,
        )
    )
    return series


def test_fig6_sweep_and_shape(benchmark, sweep):
    table = _table_for("unique", 0.05)
    benchmark(
        lambda: PatchIndex.create(
            "pi", table, "u", "unique", mode=PatchIndexMode.BITMAP
        ).detach()
    )
    # Designs behave similarly for both constraint kinds.
    for kind in ("NUC", "NSC"):
        for ident, bitmap in zip(
            sweep[f"{kind} identifier"], sweep[f"{kind} bitmap"]
        ):
            assert 0.4 < ident / bitmap < 2.5, sweep
    # NUC creation never blows up with the rate (the paper reports a
    # decrease — fewer aggregation groups; at this scale the effect is
    # within noise, so assert the robust direction: the high-rate
    # median stays at or below the low-rate median with slack).
    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    nuc = sweep["NUC bitmap"]
    half = len(nuc) // 2
    assert median(nuc[half:]) < median(nuc[:half]) * 1.5, nuc
    # NSC creation rises with the rate: the LIS pays per sorted run, and
    # a nearly sorted column has few.
    nsc = sweep["NSC bitmap"]
    assert median(nsc[half:]) > 2 * median(nsc[:half]), nsc


@pytest.mark.parametrize("kind", ["unique", "sorted"])
def test_creation_benchmark(benchmark, kind):
    table = _table_for(kind, 0.05)
    column = "u" if kind == "unique" else "s"
    benchmark(
        lambda: PatchIndex.create(
            "pi", table, column, kind, mode=PatchIndexMode.BITMAP
        ).detach()
    )
