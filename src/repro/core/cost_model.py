"""Cost model for PatchIndex-aware query rewrites (paper §VIII outlook).

Using a PatchIndex adds overhead — extra selection operators and copied
plan subtrees — so the paper plans "to create a cost model covering
additional costs of the PatchIndex usage and integrate it into query
optimization".  This module implements that: simple analytic per-row
cost formulas for the three rewrite use cases, with tunable constants
that default to values calibrated on this engine's operators.

The model answers one question per use case: *given* ``n`` input rows of
which ``p`` are patches, is the patched plan cheaper than the plain
plan?  The optimizer consults :meth:`CostModel.should_rewrite`; passing
``always_rewrite=True`` to the optimizer bypasses the model (used by the
benchmarks that sweep exception rates across the whole range).

All constants are unit-free relative weights; only ratios matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostEstimate:
    """Plain vs patched cost for one rewrite decision."""

    use_case: str
    plain_cost: float
    patched_cost: float

    @property
    def use_patches(self) -> bool:
        return self.patched_cost < self.plain_cost

    @property
    def speedup(self) -> float:
        if self.patched_cost == 0:
            return math.inf
        return self.plain_cost / self.patched_cost


@dataclass(frozen=True)
class CostModel:
    """Analytic cost formulas for the three PatchIndex use cases.

    Attributes
    ----------
    hash_agg_weight:
        Cost per row of hash-based (distinct) aggregation.
    sort_weight:
        Cost per comparison of the sort operator (multiplied by
        ``n log2 n``).
    hash_build_weight / hash_probe_weight:
        Per-row cost of hash-join build and probe.
    merge_weight:
        Per-row cost of merge-based operators (MergeJoin, MergeUnion).
    patch_select_weight:
        Per-row overhead of a PatchSelect operator on a scan; applied
        twice (both plan branches rescan the input).
    union_weight:
        Per-row cost of recombining the two branches.
    """

    hash_agg_weight: float = 1.0
    sort_weight: float = 0.25
    hash_build_weight: float = 1.5
    hash_probe_weight: float = 1.0
    merge_weight: float = 0.35
    patch_select_weight: float = 0.05
    union_weight: float = 0.02
    #: Per-exception extra sort work relative to the linear pass — the
    #: engine's run-adaptive (timsort) kernel costs ~O(n) on presorted
    #: data plus this factor per out-of-order element.
    exception_sort_factor: float = 4.0
    #: Per-row overhead of the whole patched sort pipeline (two scans
    #: with PatchSelect plus the MergeUnion) relative to the baseline
    #: sort's linear pass; calibrated on this engine (breakeven ≈ 15 %).
    sort_overhead_weight: float = 0.85

    # -- use cases -----------------------------------------------------

    def distinct(self, n: int, p: int) -> CostEstimate:
        """Distinct aggregation over ``n`` rows with ``p`` patches (§VI-B1)."""
        plain = self.hash_agg_weight * n
        patched = (
            2 * self.patch_select_weight * n  # both branches rescan
            + self.hash_agg_weight * p  # distinct only on the patches
            + self.union_weight * n  # recombine
        )
        return CostEstimate("distinct", plain, patched)

    def sort(self, n: int, p: int) -> CostEstimate:
        """Full sort over ``n`` rows with ``p`` patches (§VI-B2).

        Both plans pay the superlinear work for the ``p`` out-of-order
        values (the baseline inside its run-adaptive full sort, the
        patched plan in its explicit patch sort), so the decision turns
        on the linear terms: one sort pass over ``n`` versus the patched
        pipeline's scan/select/merge overhead.
        """
        exceptions = self.exception_sort_factor * p * _log2(p)
        plain = self.sort_weight * (n + exceptions)
        patched = self.sort_weight * (
            self.sort_overhead_weight * n + exceptions + p
        )
        return CostEstimate("sort", plain, patched)

    def join(self, n_probe: int, p: int, n_build: int) -> CostEstimate:
        """Join with the PatchIndex on the probe side (§VI-B3).

        The plain plan is one HashJoin; the patched plan MergeJoins the
        sorted subsequence and HashJoins only the patches.
        """
        plain = (
            self.hash_build_weight * n_build + self.hash_probe_weight * n_probe
        )
        patched = (
            2 * self.patch_select_weight * n_probe
            + self.merge_weight * (n_probe - p + n_build)  # MergeJoin
            + self.hash_build_weight * min(n_build, p)  # smaller build side
            + self.hash_probe_weight * max(n_build, p)
            + self.union_weight * n_probe
        )
        return CostEstimate("join", plain, patched)

    # -- decision surface -------------------------------------------------

    def should_rewrite(
        self,
        use_case: str,
        n: int,
        p: int,
        n_build: int | None = None,
    ) -> bool:
        """True when the patched plan is estimated cheaper."""
        return self.estimate(use_case, n, p, n_build).use_patches

    def estimate(
        self,
        use_case: str,
        n: int,
        p: int,
        n_build: int | None = None,
    ) -> CostEstimate:
        if use_case == "distinct":
            return self.distinct(n, p)
        if use_case == "sort":
            return self.sort(n, p)
        if use_case == "join":
            return self.join(n, p, n_build if n_build is not None else n)
        raise ValueError(f"unknown use case: {use_case!r}")

    def breakeven_rate(self, use_case: str, n: int, n_build: int | None = None) -> float:
        """Largest exception rate at which the rewrite still pays off.

        Computed by bisection on ``p/n``; returns 0.0 when the rewrite
        never pays off and 1.0 when it always does.
        """
        if not self.should_rewrite(use_case, n, 0, n_build):
            return 0.0
        if self.should_rewrite(use_case, n, n, n_build):
            return 1.0
        lo, hi = 0.0, 1.0
        for __ in range(40):
            mid = (lo + hi) / 2
            if self.should_rewrite(use_case, n, int(mid * n), n_build):
                lo = mid
            else:
                hi = mid
        return lo


def _log2(value: int) -> float:
    """log2 clamped for tiny inputs so ``p = 0`` costs nothing extra."""
    return math.log2(value) if value > 1 else 1.0
