"""Unit tests for the rewrite cost model, and for the parallel gate
that is deliberately not part of it."""

import numpy as np
import pytest

from repro.core.cost_model import CostEstimate, CostModel
from repro.exec.parallel import DEFAULT_MORSEL_SIZE
from repro.plan.optimizer import Optimizer
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


class TestEstimates:
    def test_distinct_low_rate_wins(self):
        model = CostModel()
        estimate = model.distinct(1_000_000, 1_000)
        assert estimate.use_patches
        assert estimate.speedup > 2

    def test_distinct_all_patches_loses(self):
        model = CostModel()
        estimate = model.distinct(1_000_000, 1_000_000)
        assert not estimate.use_patches

    def test_sort_low_rate_wins(self):
        model = CostModel()
        assert model.sort(1_000_000, 1_000).use_patches

    def test_sort_zero_patches(self):
        model = CostModel()
        estimate = model.sort(1_000_000, 0)
        assert estimate.use_patches
        assert estimate.patched_cost > 0  # scan overhead still counted

    def test_join_low_rate_wins(self):
        model = CostModel()
        assert model.join(1_000_000, 5_000, 73_000).use_patches

    def test_estimate_dispatch(self):
        model = CostModel()
        assert model.estimate("distinct", 100, 1).use_case == "distinct"
        assert model.estimate("sort", 100, 1).use_case == "sort"
        assert model.estimate("join", 100, 1, 10).use_case == "join"
        with pytest.raises(ValueError):
            model.estimate("merge", 100, 1)

    def test_should_rewrite_matches_estimate(self):
        model = CostModel()
        assert model.should_rewrite("distinct", 10_000, 10) == model.distinct(
            10_000, 10
        ).use_patches


class TestBreakeven:
    def test_breakeven_is_monotone_boundary(self):
        model = CostModel()
        n = 1_000_000
        rate = model.breakeven_rate("distinct", n)
        assert 0.0 < rate <= 1.0
        if rate < 1.0:
            below = int(n * rate * 0.9)
            above = int(n * min(1.0, rate * 1.1))
            assert model.should_rewrite("distinct", n, below)
            if above > int(n * rate):
                assert not model.should_rewrite("distinct", n, above)

    def test_breakeven_sort(self):
        model = CostModel()
        rate = model.breakeven_rate("sort", 1_000_000)
        assert rate > 0.0


def plans_parallel(
    rows, partitions, parallelism, morsel_size=DEFAULT_MORSEL_SIZE, block_size=None
):
    """Whether ``COUNT(*)`` over an INT64 table of *rows* rows in
    *partitions* partitions plans a parallel operator."""
    kwargs = {} if block_size is None else {"block_size": block_size}
    table = Table("t", Schema([Field("x", DataType.INT64)]), partitions, **kwargs)
    table.load_columns({"x": ColumnVector(DataType.INT64, np.arange(rows))})
    catalog = Catalog()
    catalog.add_table(table)
    logical = Optimizer(catalog).optimize(
        Binder(catalog).bind_select(parse_statement("SELECT COUNT(*) AS n FROM t"))
    )
    planner = PhysicalPlanner(parallelism=parallelism, morsel_size=morsel_size)
    return "dop=" in planner.plan(logical).explain()


class TestParallelGate:
    """Pin the fan-out decisions of the morsel thread pool.

    The cost model has no say in them: a scan pipeline goes parallel
    iff dop > 1, it splits into at least two morsels, and it covers more
    than ``morsel_size`` rows (2^18 by default).
    """

    def test_bench_table_plans_parallel_thread(self):
        # A 10M-row scan over 8 partitions in 40 morsels, at 1/64 scale:
        # the rule compares rows with the morsel size, so it scales.
        rows, size = 10_000_000 // 64, DEFAULT_MORSEL_SIZE // 64
        assert plans_parallel(rows, 8, 2, morsel_size=size)
        assert plans_parallel(rows, 8, 4, morsel_size=size)

    def test_small_input_stays_serial(self):
        assert not plans_parallel(200_000, 8, 2)
        assert not plans_parallel(10_000, 8, 4)

    def test_thread_breakeven(self):
        assert plans_parallel(300_000, 8, 2)
        assert not plans_parallel(240_000, 8, 2)
        # The breakeven is the morsel size itself, not a row past it.
        assert not plans_parallel(DEFAULT_MORSEL_SIZE, 8, 2)
        assert plans_parallel(DEFAULT_MORSEL_SIZE + 1, 8, 2)

    def test_degenerate_shapes_stay_serial(self):
        rows, size = 10_000_000 // 64, DEFAULT_MORSEL_SIZE // 64
        assert not plans_parallel(rows, 8, 1, morsel_size=size)
        # One 40-row block is one morsel, however small the morsel size.
        assert not plans_parallel(40, 1, 4, morsel_size=16, block_size=64)

    def test_dop_is_not_an_input(self):
        for parallelism in (2, 4, 8):
            assert plans_parallel(300_000, 8, parallelism)
            assert not plans_parallel(240_000, 8, parallelism)


class TestCostEstimate:
    def test_speedup(self):
        estimate = CostEstimate("distinct", 10.0, 2.0)
        assert estimate.speedup == 5.0
        assert estimate.use_patches

    def test_zero_patched_cost(self):
        estimate = CostEstimate("distinct", 10.0, 0.0)
        assert estimate.speedup == float("inf")
