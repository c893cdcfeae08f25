"""Property and unit tests for the longest sorted subsequence algorithm."""

import bisect
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lis import (
    longest_sorted_subsequence,
    longest_sorted_subsequence_indices,
    longest_sorted_subsequence_length,
)


def brute_force_length(values, ascending=True, strict=False) -> int:
    """O(n^2) DP reference for the LIS length."""
    n = len(values)
    if n == 0:
        return 0
    best = [1] * n
    for i in range(n):
        for j in range(i):
            if _ok(values[j], values[i], ascending, strict):
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def _ok(a, b, ascending, strict) -> bool:
    if ascending:
        return a < b if strict else a <= b
    return a > b if strict else a >= b


def check_subsequence(values, indices, ascending=True, strict=False):
    """The returned indices must be ascending and select a sorted run."""
    assert list(indices) == sorted(set(int(i) for i in indices))
    selected = [values[int(i)] for i in indices]
    for left, right in zip(selected[:-1], selected[1:]):
        assert _ok(left, right, ascending, strict)


class TestSmallCases:
    def test_empty(self):
        assert len(longest_sorted_subsequence_indices(np.array([], dtype=np.int64))) == 0

    def test_single(self):
        indices = longest_sorted_subsequence_indices(np.array([5], dtype=np.int64))
        assert indices.tolist() == [0]

    def test_already_sorted(self):
        values = np.arange(10, dtype=np.int64)
        assert longest_sorted_subsequence_indices(values).tolist() == list(range(10))

    def test_reverse_sorted(self):
        values = np.arange(10, dtype=np.int64)[::-1].copy()
        assert longest_sorted_subsequence_length(values) == 1

    def test_mixed_disorder(self):
        # 1,3,3,6,7 (or 1,3,4,6,7 / 1,3,3,6,6) is a longest run: length 5.
        values = np.array([1, 3, 4, 3, 2, 6, 7, 6], dtype=np.int64)
        assert longest_sorted_subsequence_length(values) == 5

    def test_duplicates_nonstrict(self):
        values = np.array([2, 2, 2], dtype=np.int64)
        assert longest_sorted_subsequence_length(values) == 3

    def test_duplicates_strict(self):
        values = np.array([2, 2, 2], dtype=np.int64)
        assert longest_sorted_subsequence_length(values, strict=True) == 1

    def test_descending(self):
        values = np.array([5, 6, 4, 3, 7, 2], dtype=np.int64)
        indices = longest_sorted_subsequence_indices(values, ascending=False)
        check_subsequence(values, indices, ascending=False)
        assert len(indices) == 4  # 5, 4, 3, 2 (or 6, 4, 3, 2)

    def test_strings(self):
        values = np.array(["b", "a", "c", "c", "b", "d"], dtype=object)
        indices = longest_sorted_subsequence_indices(values)
        check_subsequence(values, indices)
        assert len(indices) == 4  # a c c d  (or b c c d)

    def test_strings_descending(self):
        values = np.array(["b", "c", "a"], dtype=object)
        indices = longest_sorted_subsequence_indices(values, ascending=False)
        check_subsequence(values, indices, ascending=False)
        assert len(indices) == 2

    def test_floats(self):
        values = np.array([0.5, 0.1, 0.2, 0.9], dtype=np.float64)
        assert longest_sorted_subsequence_length(values) == 3


class TestProperties:
    @given(st.lists(st.integers(-50, 50), max_size=60), st.booleans(), st.booleans())
    @settings(max_examples=200)
    def test_matches_brute_force_and_is_valid(self, items, ascending, strict):
        values = np.array(items, dtype=np.int64)
        indices = longest_sorted_subsequence_indices(
            values, ascending=ascending, strict=strict
        )
        check_subsequence(items, indices, ascending, strict)
        assert len(indices) == brute_force_length(items, ascending, strict)

    @given(st.lists(st.text(alphabet="abc", max_size=3), max_size=40))
    def test_object_dtype_matches_brute_force(self, items):
        values = np.empty(len(items), dtype=object)
        for position, item in enumerate(items):
            values[position] = item
        indices = longest_sorted_subsequence_indices(values)
        check_subsequence(items, indices)
        assert len(indices) == brute_force_length(items)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
    def test_sorted_input_is_fixed_point(self, items):
        items.sort()
        values = np.array(items, dtype=np.int64)
        assert longest_sorted_subsequence_length(values) == len(items)


# -- the per-row loop, kept as the oracle --------------------------------------
#
# ``core/lis.py`` as it stood before the kernel walked runs: one
# ``searchsorted`` and one Python step per row, one more per kept row to
# reconstruct.  The run-at-a-time kernel claims to return *these*
# positions, not merely a subsequence of the same length.


def reference_lis_numeric(values: np.ndarray, strict: bool) -> np.ndarray:
    n = len(values)
    tails = np.empty(n, dtype=values.dtype)
    tail_positions = np.empty(n, dtype=np.int64)
    predecessors = np.full(n, -1, dtype=np.int64)
    length = 0
    side = "left" if strict else "right"
    for position in range(n):
        value = values[position]
        slot = int(np.searchsorted(tails[:length], value, side=side))
        tails[slot] = value
        tail_positions[slot] = position
        if slot > 0:
            predecessors[position] = tail_positions[slot - 1]
        if slot == length:
            length += 1
    return reference_reconstruct(
        predecessors, int(tail_positions[length - 1]), length
    )


def reference_reconstruct(predecessors, last_position, length) -> np.ndarray:
    out = np.empty(length, dtype=np.int64)
    position = last_position
    for slot in range(length - 1, -1, -1):
        out[slot] = position
        position = predecessors[position]
    return out


def reference_positions(values: np.ndarray, ascending=True, strict=False):
    """The per-row loop's answer.  Its descending transform was ``-v``
    (``~v`` for booleans), exact wherever ``-v`` does not wrap — every
    input below except the ones ``TestOrderReversal`` is about."""
    if len(values) == 0:
        return np.empty(0, dtype=np.int64)
    if not ascending:
        values = ~values if values.dtype == np.bool_ else -values
    return reference_lis_numeric(values, strict)


def reference_lis_object(values, ascending=True, strict=False) -> np.ndarray:
    """The per-row loop by Python comparisons, which ran for strings
    until they were coded; a descending order compares the other way
    round."""
    sign = 1 if ascending else -1
    order = functools.cmp_to_key(lambda a, b: sign * ((a > b) - (a < b)))
    locate = bisect.bisect_left if strict else bisect.bisect_right
    tails: list = []
    tail_positions: list[int] = []
    predecessors = np.full(len(values), -1, dtype=np.int64)
    for position, value in enumerate(values):
        probe = order(value)
        slot = locate(tails, probe)
        tails[slot : slot + 1] = [probe]
        tail_positions[slot : slot + 1] = [position]
        if slot > 0:
            predecessors[position] = tail_positions[slot - 1]
    if not tails:
        return np.empty(0, dtype=np.int64)
    return reference_reconstruct(predecessors, tail_positions[-1], len(tails))


def assert_same_positions(values, ascending=True, strict=False):
    got = longest_sorted_subsequence_indices(
        values, ascending=ascending, strict=strict
    )
    expected = reference_positions(values, ascending, strict)
    assert got.dtype == np.int64
    assert got.tolist() == expected.tolist()


def near_sorted(n: int, rate: float, seed: int) -> np.ndarray:
    """0..n-1 with ``rate * n`` positions overwritten by random values."""
    rng = np.random.default_rng(seed)
    values = np.arange(n, dtype=np.int64)
    where = rng.choice(n, int(n * rate), replace=False)
    values[where] = rng.integers(0, n, len(where))
    return values


#: Concatenated arithmetic runs ``start, start + step, …``: long sorted
#: stretches, plateaus (step 0) and single elements, which a list of
#: independent integers almost never draws.
runs_of_values = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 14), st.integers(0, 3)),
    max_size=12,
).map(
    lambda runs: np.array(
        [start + step * i for start, count, step in runs for i in range(count)],
        dtype=np.int64,
    )
)

PROFILES = {
    "sorted": np.arange(500, dtype=np.int64),
    "reverse_sorted": np.arange(500, dtype=np.int64)[::-1].copy(),
    "all_equal": np.full(500, 7, dtype=np.int64),
    "zigzag_runs_of_2": np.arange(500, dtype=np.int64) - 3 * (np.arange(500) % 2),
    "plateaus": np.arange(500, dtype=np.int64) // 7,
    "sawtooth_runs_of_5": np.arange(500, dtype=np.int64) % 5
    + np.arange(500, dtype=np.int64) // 5 * 3,
    "one_percent_exceptions_20k": near_sorted(20_000, 0.01, seed=3),
    "ten_percent_exceptions": near_sorted(4_000, 0.10, seed=4),
    "random": np.random.default_rng(5).integers(0, 1_000, 3_000),
}


class TestSamePositionsAsPerRowLoop:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_run_length_profiles(self, profile, ascending, strict):
        assert_same_positions(PROFILES[profile], ascending, strict)

    @given(st.lists(st.integers(-50, 50), max_size=120), st.booleans(), st.booleans())
    @settings(max_examples=200)
    def test_int64(self, items, ascending, strict):
        assert_same_positions(np.array(items, dtype=np.int64), ascending, strict)

    @given(runs_of_values, st.booleans(), st.booleans())
    @settings(max_examples=200)
    def test_int64_drawn_as_runs(self, values, ascending, strict):
        assert_same_positions(values, ascending, strict)

    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=80),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_float64_with_nan_and_inf(self, items, ascending, strict):
        assert_same_positions(np.array(items, dtype=np.float64), ascending, strict)

    @given(
        st.lists(st.text(alphabet="abc", max_size=3), max_size=80),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_strings_on_their_codes(self, items, ascending, strict):
        values = np.empty(len(items), dtype=object)
        values[:] = items
        got = longest_sorted_subsequence_indices(values, ascending, strict)
        expected = reference_lis_object(items, ascending, strict)
        assert got.tolist() == expected.tolist()

    @given(st.lists(st.booleans(), max_size=80), st.booleans(), st.booleans())
    def test_bool(self, items, ascending, strict):
        assert_same_positions(np.array(items, dtype=np.bool_), ascending, strict)

    @pytest.mark.parametrize("cut_over", [1, 2, 10**9])
    @given(values=runs_of_values, strict=st.booleans())
    @settings(max_examples=100)
    def test_any_cut_over_gives_the_same_positions(self, cut_over, values, strict):
        # The cut-over is a speed choice: batching every run, even of one
        # element, or none must not change a single position.
        from repro.core import lis

        original = lis.BATCH_MIN_RUN
        lis.BATCH_MIN_RUN = cut_over
        try:
            assert_same_positions(values, strict=strict)
        finally:
            lis.BATCH_MIN_RUN = original

    def test_nan_always_ends_a_run(self):
        # A NaN compares False both ways: with "next < prev" as the
        # boundary it would sit inside a run and reach the batched step,
        # which assumes ordered input.
        rng = np.random.default_rng(11)
        values = np.arange(2_000, dtype=np.float64)
        values[rng.choice(2_000, 60, replace=False)] = np.nan
        values[rng.choice(2_000, 20, replace=False)] = rng.random(20) * 2_000
        for ascending in (True, False):
            for strict in (False, True):
                assert_same_positions(values, ascending, strict)
        runs = longest_sorted_subsequence(values).runs
        assert runs >= 2 * int(np.isnan(values).sum())


class TestOrderReversal:
    """Descending is ascending over an order-reversing transform; ``-v``
    is not one at ``INT64_MIN`` (it wraps to itself) nor for unsigned."""

    def test_int64_min_descending(self):
        lowest = np.iinfo(np.int64).min
        values = np.array([5, lowest, 3, 1], dtype=np.int64)
        indices = longest_sorted_subsequence_indices(values, ascending=False)
        check_subsequence(values.tolist(), indices, ascending=False)
        assert indices.tolist() == [0, 2, 3]

    def test_int64_extremes_descending_strict(self):
        info = np.iinfo(np.int64)
        values = np.array([info.min, info.max, 0, info.min + 1, info.min], dtype=np.int64)
        indices = longest_sorted_subsequence_indices(
            values, ascending=False, strict=True
        )
        assert indices.tolist() == [1, 2, 3, 4]

    def test_uint64_above_float_precision(self):
        values = np.array([2**63 + 2, 2**63 + 1, 2**63], dtype=np.uint64)
        indices = longest_sorted_subsequence_indices(
            values, ascending=False, strict=True
        )
        assert indices.tolist() == [0, 1, 2]

    @given(
        st.lists(
            st.sampled_from(
                [np.iinfo(np.int64).min, np.iinfo(np.int64).min + 1, -1, 0, 1,
                 np.iinfo(np.int64).max - 1, np.iinfo(np.int64).max]
            ),
            max_size=30,
        ),
        st.booleans(),
    )
    def test_extremes_match_brute_force(self, items, strict):
        values = np.array(items, dtype=np.int64)
        indices = longest_sorted_subsequence_indices(
            values, ascending=False, strict=strict
        )
        check_subsequence(items, indices, ascending=False, strict=strict)
        assert len(indices) == brute_force_length(items, False, strict)


class TestStepCounts:
    def test_sorted_input_is_one_batched_run(self):
        found = longest_sorted_subsequence(np.arange(1_000, dtype=np.int64))
        assert (found.runs, found.scalar_steps) == (1, 0)

    def test_reverse_sorted_input_is_all_scalar(self):
        found = longest_sorted_subsequence(np.arange(1_000, dtype=np.int64)[::-1])
        assert (found.runs, found.scalar_steps) == (1_000, 1_000)

    def test_short_runs_between_long_ones_are_scalar(self):
        # long run, two runs of one, long run
        values = np.array(list(range(20)) + [9, 8] + list(range(5, 25)))
        found = longest_sorted_subsequence(values)
        assert (found.runs, found.scalar_steps) == (4, 2)

    def test_strings_are_not_cut_into_runs(self):
        # Strings run on their dense codes, cut into runs like numbers.
        values = np.array(["a", "b", "a"], dtype=object)
        found = longest_sorted_subsequence(values)
        assert (found.runs, found.scalar_steps) == (2, 3)

    def test_empty(self):
        found = longest_sorted_subsequence(np.empty(0, dtype=np.int64))
        assert (len(found.positions), found.runs, found.scalar_steps) == (0, 0, 0)
