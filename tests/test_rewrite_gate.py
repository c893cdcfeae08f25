"""The rewrite gate: one measured breakeven exception rate per rewrite
(paper §VII-B), ``patch_count < REWRITE_BREAKEVEN[use_case] * rows``,
shared by the optimizer and the advisor."""

import math

import pytest

from repro.core.patch_index import PatchIndex
from repro.core.patches import REWRITE_BREAKEVEN, rewrite_pays_off
from repro.exec.operators.sort import SortKey
from repro.plan import logical as lp
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

USE_CASES = ["distinct", "sort", "join"]


class TestBreakeven:
    def test_one_constant_per_rewrite(self):
        assert set(REWRITE_BREAKEVEN) == set(USE_CASES)
        # Distinct and sort are the crossovers the removed cost model
        # reduced to at every row count; join is measured.
        assert REWRITE_BREAKEVEN["distinct"] == 0.88
        assert REWRITE_BREAKEVEN["sort"] == 0.15
        assert 0.0 < REWRITE_BREAKEVEN["join"] < 1.0

    @pytest.mark.parametrize("rows", [1_000, 300_000])
    @pytest.mark.parametrize("use_case", USE_CASES)
    def test_boundary(self, use_case, rows):
        boundary = math.ceil(REWRITE_BREAKEVEN[use_case] * rows)
        assert rewrite_pays_off(use_case, rows, boundary - 1)
        assert not rewrite_pays_off(use_case, rows, boundary)

    @pytest.mark.parametrize("use_case", USE_CASES)
    def test_low_rates_rewrite(self, use_case):
        assert rewrite_pays_off(use_case, 1_000_000, 1_000)

    def test_zero_patches_always_rewrite(self):
        for use_case in USE_CASES:
            assert rewrite_pays_off(use_case, 1, 0)

    def test_all_patches_never_rewrite(self):
        for use_case in USE_CASES:
            assert not rewrite_pays_off(use_case, 1_000_000, 1_000_000)
            assert not rewrite_pays_off(use_case, 0, 0)

    def test_unknown_use_case_raises(self):
        with pytest.raises(KeyError):
            rewrite_pays_off("merge", 100, 1)


def sort_catalog(values):
    table = Table.from_pydict(
        "t", Schema([Field("c", DataType.INT64)]), {"c": values}
    )
    catalog = Catalog()
    catalog.add_table(table)
    catalog.add_index(PatchIndex.create("pi", table, "c", "sorted"))
    return catalog, lp.LogicalSort(lp.LogicalScan(table), (SortKey("c"),))


class TestRefusals:
    def test_a_refused_rewrite_is_recorded(self):
        # Every other value displaced: far above the sort breakeven.
        catalog, plan = sort_catalog([i if i % 2 else 100 - i for i in range(100)])
        optimizer = Optimizer(catalog)
        assert optimizer.optimize(plan) == plan
        assert optimizer.refused == ["sort"]

    def test_an_accepted_rewrite_records_nothing(self):
        catalog, plan = sort_catalog(list(range(99)) + [3])
        optimizer = Optimizer(catalog)
        assert optimizer.optimize(plan) != plan
        assert optimizer.refused == []

    def test_always_rewrite_bypasses_the_gate(self):
        catalog, plan = sort_catalog([i if i % 2 else 100 - i for i in range(100)])
        optimizer = Optimizer(catalog, OptimizerOptions(always_rewrite=True))
        assert optimizer.optimize(plan) != plan
        assert optimizer.refused == []
