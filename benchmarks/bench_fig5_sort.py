"""Figure 5 (paper §VII-B1): sort-query runtime vs exception rate.

Paper setup: the synthetic table again, a full ORDER BY on the nearly
sorted column, with and without a PatchIndex (both designs).

Shape to reproduce:
- no-PI runtime *increases* with the rate (the sort kernel — timsort
  here, the engine's QuickSort pivoting in the paper — degrades with
  disorder);
- PI runtime grows with the rate (more patches to sort + merge), so the
  gain shrinks with increasing rates;
- both designs behave similarly.

Substrate deviation (documented in EXPERIMENTS.md): in the paper the
gain never goes negative; on this NumPy substrate the baseline sort is
so cheap per row that the patched pipeline's copy overhead exceeds the
savings above ≈15 % exceptions.  The PatchIndex wins in the realistic
low-rate regime, and the engine's sort breakeven
(``REWRITE_BREAKEVEN["sort"]``, measured by the §VIII ablation) gates
the rewrite beyond it (the sweep below bypasses the gate to expose the
raw curves, as the paper's figure does).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import measure
from repro.bench.reporting import format_series
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.exec.operators.sort import SortKey
from repro.exec.result import collect
from repro.plan import logical as lp
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.storage.catalog import Catalog
from repro.gen.synthetic import synthetic_table

from conftest import BENCH_ROWS, SWEEP_RATES


def _make_table(rate: float):
    return synthetic_table(
        f"fig5_{rate}",
        BENCH_ROWS,
        sorted_exception_rate=rate,
        partition_count=4,
        seed=int(rate * 1000) + 7,
    )


def _sort_plan(table, index: PatchIndex | None):
    catalog = Catalog()
    catalog.add_table(table)
    if index is not None:
        catalog.add_index(index)
    plan = lp.LogicalSort(lp.LogicalScan(table, ("s",)), (SortKey("s"),))
    options = OptimizerOptions(
        use_patch_indexes=index is not None, always_rewrite=index is not None
    )
    optimized = Optimizer(catalog, options).optimize(plan)
    return PhysicalPlanner().plan(optimized)


def _run_point(rate: float) -> dict[str, float]:
    table = _make_table(rate)
    ident = PatchIndex.create(
        "pi_i", table, "s", "sorted", mode=PatchIndexMode.IDENTIFIER
    )
    bitmap = PatchIndex.create(
        "pi_b", table, "s", "sorted", mode=PatchIndexMode.BITMAP
    )
    ident.detach()
    bitmap.detach()
    plans = {
        "no PI": _sort_plan(table, None),
        "PI identifier": _sort_plan(table, ident),
        "PI bitmap": _sort_plan(table, bitmap),
    }
    timings = {}
    reference = None
    for label, operator in plans.items():
        run = measure(lambda op=operator: collect(op))
        timings[label] = run.milliseconds
        values = run.result.column("s").to_pylist()
        if reference is None:
            reference = values
        else:
            assert values == reference, f"{label} produced a different order"
    return timings


@pytest.fixture(scope="module")
def sweep(report):
    series = {"no PI": [], "PI identifier": [], "PI bitmap": []}
    for rate in SWEEP_RATES:
        timings = _run_point(rate)
        for label in series:
            series[label].append(timings[label])
    report(
        format_series(
            f"Figure 5: full sort vs exception rate ({BENCH_ROWS} rows; "
            "paper: PI wins at all rates, gain shrinks with rate)",
            "rate",
            SWEEP_RATES,
            series,
        )
    )
    return series


def test_fig5_sweep_and_shape(benchmark, sweep):
    table = _make_table(0.05)
    index = PatchIndex.create("pi", table, "s", "sorted")
    index.detach()
    operator = _sort_plan(table, index)
    benchmark(lambda: collect(operator))
    no_pi = sweep["no PI"]
    ident = sweep["PI identifier"]
    # PI wins in the low-rate regime (the first half of the grid).
    low = len(SWEEP_RATES) // 2
    low_wins = sum(
        1 for base, patched in zip(no_pi[:low], ident[:low]) if patched < base
    )
    assert low_wins >= low - 1, (no_pi, ident)
    # At high rates the gap stays bounded (near parity, paper: shrinking
    # gain) — never a blow-up.
    for base, patched in zip(no_pi, ident):
        assert patched < 1.6 * base, (no_pi, ident)
    # Baseline grows with disorder: the last point is slower than the first.
    assert no_pi[-1] > no_pi[0]


@pytest.mark.parametrize("rate", [0.01, 0.4])
def test_fig5_no_patchindex(benchmark, rate):
    table = _make_table(rate)
    operator = _sort_plan(table, None)
    benchmark(lambda: collect(operator))


@pytest.mark.parametrize("rate", [0.01, 0.4])
def test_fig5_with_patchindex(benchmark, rate):
    table = _make_table(rate)
    index = PatchIndex.create("pi", table, "s", "sorted")
    index.detach()
    operator = _sort_plan(table, index)
    benchmark(lambda: collect(operator))
