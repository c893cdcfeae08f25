"""Unit tests for the rewrite cost model."""

import pytest

from repro.core.cost_model import CostEstimate, CostModel


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


class TestParallelGate:
    """Pin the fan-out decisions of the morsel thread pool.

    A 10M-row scan (8 partitions, 2^18 morsel size -> 40 morsels) must
    plan parallel even at dop=2, and small inputs must stay serial.
    """

    def test_bench_table_plans_parallel_thread(self):
        model = CostModel()
        assert model.should_parallelize(10_000_000, 2, 40)
        assert model.should_parallelize(10_000_000, 4, 40)

    def test_small_input_stays_serial(self):
        model = CostModel()
        assert not model.should_parallelize(200_000, 2, 8)
        assert not model.should_parallelize(10_000, 4, 8)

    def test_thread_breakeven(self):
        model = CostModel()
        assert model.should_parallelize(300_000, 2, 8)
        assert not model.should_parallelize(240_000, 2, 8)

    def test_degenerate_shapes_stay_serial(self):
        model = CostModel()
        assert not model.should_parallelize(10_000_000, 1, 40)
        assert not model.should_parallelize(10_000_000, 4, 1)

    def test_parallel_cost_is_startup_plus_dispatch_plus_share(self):
        model = CostModel()
        estimate = model.parallel_scan(1_000_000, 4, 16)
        assert estimate.plain_cost == model.scan_weight * 1_000_000
        assert estimate.patched_cost == (
            model.scan_weight * 1_000_000 / 4
            + model.morsel_dispatch_weight * 16
            + model.parallel_startup_weight
        )


class TestCostEstimate:
    def test_speedup(self):
        estimate = CostEstimate("distinct", 10.0, 2.0)
        assert estimate.speedup == 5.0
        assert estimate.use_patches

    def test_zero_patched_cost(self):
        estimate = CostEstimate("distinct", 10.0, 0.0)
        assert estimate.speedup == float("inf")
