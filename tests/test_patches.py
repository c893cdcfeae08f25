"""Unit and property tests for the two patch-set designs.

The identifier-based and bitmap-based designs must be observationally
identical; memory accounting must match the paper's numbers (64 bit per
identifier, 1 bit per tuple, crossover at 1/64).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.patches import (
    CROSSOVER_RATE,
    BitmapPatches,
    IdentifierPatches,
    PatchSet,
)
from repro.errors import StorageError


def both_designs(rowids, row_count):
    rowids = np.asarray(rowids, dtype=np.int64)
    return (
        IdentifierPatches(rowids, row_count),
        BitmapPatches.from_rowids(rowids, row_count),
    )


patch_sets = st.integers(0, 200).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, max(0, n - 1)), max_size=n, unique=True).map(sorted),
    )
)


class TestConstruction:
    def test_build_dispatch(self):
        rowids = np.array([1, 5], dtype=np.int64)
        assert PatchSet.build(rowids, 10, "identifier").design == "identifier"
        assert PatchSet.build(rowids, 10, "bitmap").design == "bitmap"
        with pytest.raises(StorageError):
            PatchSet.build(rowids, 10, "btree")

    def test_unsorted_rowids_rejected(self):
        with pytest.raises(StorageError):
            IdentifierPatches(np.array([5, 1], dtype=np.int64), 10)

    def test_duplicate_rowids_rejected(self):
        with pytest.raises(StorageError):
            IdentifierPatches(np.array([3, 3], dtype=np.int64), 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(StorageError):
            IdentifierPatches(np.array([10], dtype=np.int64), 10)
        with pytest.raises(StorageError):
            BitmapPatches.from_rowids(np.array([-1], dtype=np.int64), 10)

    def test_empty(self):
        for patches in both_designs([], 10):
            assert patches.patch_count() == 0
            assert patches.exception_rate() == 0.0
            assert not patches.mask_for_range(0, 10).any()


class TestObservationalEquivalence:
    @given(patch_sets)
    @settings(max_examples=150)
    def test_designs_agree(self, case):
        row_count, rowids = case
        ident, bitmap = both_designs(rowids, row_count)
        assert ident.patch_count() == bitmap.patch_count() == len(rowids)
        assert ident.rowids().tolist() == bitmap.rowids().tolist() == rowids
        full_ident = ident.mask_for_range(0, row_count)
        full_bitmap = bitmap.mask_for_range(0, row_count)
        assert full_ident.tolist() == full_bitmap.tolist()
        for rowid in range(row_count):
            expected = rowid in set(rowids)
            assert ident.contains(rowid) == expected
            assert bitmap.contains(rowid) == expected

    @given(patch_sets, st.data())
    @settings(max_examples=100)
    def test_subrange_masks_agree(self, case, data):
        row_count, rowids = case
        start = data.draw(st.integers(0, row_count))
        stop = data.draw(st.integers(start, row_count))
        ident, bitmap = both_designs(rowids, row_count)
        expected = [start + i in set(rowids) for i in range(stop - start)]
        assert ident.mask_for_range(start, stop).tolist() == expected
        assert bitmap.mask_for_range(start, stop).tolist() == expected

    def test_mask_out_of_bounds(self):
        for patches in both_designs([1], 4):
            with pytest.raises(StorageError):
                patches.mask_for_range(0, 5)


class TestMemoryAccounting:
    def test_identifier_is_8_bytes_per_patch(self):
        patches = IdentifierPatches(np.arange(100, dtype=np.int64), 1000)
        assert patches.memory_usage_bytes() == 800

    def test_bitmap_is_row_count_bits(self):
        patches = BitmapPatches.from_rowids(np.array([0], dtype=np.int64), 1000)
        assert patches.memory_usage_bytes() == 125  # 1000 bits
        # Independent of the patch count.
        dense = BitmapPatches.from_rowids(
            np.arange(999, dtype=np.int64), 1000
        )
        assert dense.memory_usage_bytes() == 125

    def test_crossover_rate(self):
        # 1 bit vs 64 bit per element (paper §V).
        assert CROSSOVER_RATE == pytest.approx(1 / 64)
        n = 64_000
        at_crossover = int(n * CROSSOVER_RATE)
        ident = IdentifierPatches(
            np.arange(at_crossover, dtype=np.int64), n
        )
        bitmap = BitmapPatches.from_rowids(
            np.arange(at_crossover, dtype=np.int64), n
        )
        assert ident.memory_usage_bytes() == bitmap.memory_usage_bytes()


class TestMaintenanceMutations:
    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_extend(self, design):
        patches = PatchSet.build(np.array([2], dtype=np.int64), 5, design)
        patches.extend(8, np.array([6, 7], dtype=np.int64))
        assert patches.row_count == 8
        assert patches.rowids().tolist() == [2, 6, 7]

    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_extend_rejects_old_rowids(self, design):
        patches = PatchSet.build(np.array([2], dtype=np.int64), 5, design)
        with pytest.raises(StorageError):
            patches.extend(8, np.array([3], dtype=np.int64))

    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_add(self, design):
        patches = PatchSet.build(np.array([2], dtype=np.int64), 5, design)
        patches.add(np.array([0, 2, 4], dtype=np.int64))
        assert patches.rowids().tolist() == [0, 2, 4]

    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_extend_add_remove(self, design):
        patches = PatchSet.build(np.array([1], dtype=np.int64), 4, design)
        patches.extend(7, np.array([5, 6], dtype=np.int64))
        assert patches.row_count == 7
        assert patches.rowids().tolist() == [1, 5, 6]
        patches.add(np.array([3], dtype=np.int64))
        patches.remove(np.array([1, 6], dtype=np.int64))
        assert patches.rowids().tolist() == [3, 5]
        assert patches.patch_count() == 2

    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_remap_after_delete(self, design):
        # rows 0..9, patches {1, 4, 8}; delete rows {0, 4, 7}
        patches = PatchSet.build(np.array([1, 4, 8], dtype=np.int64), 10, design)
        patches.remap_after_delete(np.array([0, 4, 7], dtype=np.int64))
        # survivors: 1,2,3,5,6,8,9 -> new ids 0..6; patch 1->0, 8->5
        assert patches.row_count == 7
        assert patches.rowids().tolist() == [0, 5]

    @pytest.mark.parametrize("design", ["identifier", "bitmap"])
    def test_remap_renumbers_survivors(self, design):
        patches = PatchSet.build(np.array([1, 4, 5], dtype=np.int64), 6, design)
        # Deleting rowids 1 and 3 drops patch 1 and shifts 4,5 -> 2,3.
        patches.remap_after_delete(np.array([1, 3], dtype=np.int64))
        assert patches.row_count == 4
        assert patches.rowids().tolist() == [2, 3]

    @given(patch_sets, st.data())
    @settings(max_examples=100)
    def test_remap_property(self, case, data):
        row_count, rowids = case
        deleted = data.draw(
            st.lists(
                st.integers(0, max(0, row_count - 1)),
                max_size=row_count,
                unique=True,
            ).map(sorted)
        )
        if row_count == 0:
            return
        expected_survivors = [r for r in range(row_count) if r not in set(deleted)]
        renumber = {old: new for new, old in enumerate(expected_survivors)}
        expected = [renumber[r] for r in rowids if r in renumber]
        for design in ("identifier", "bitmap"):
            patches = PatchSet.build(np.asarray(rowids, dtype=np.int64), row_count, design)
            patches.remap_after_delete(np.asarray(deleted, dtype=np.int64))
            assert patches.rowids().tolist() == expected
            assert patches.row_count == row_count - len(deleted)


class TestDunder:
    def test_len_and_contains(self):
        patches = IdentifierPatches(np.array([3], dtype=np.int64), 5)
        assert len(patches) == 1
        assert 3 in patches
        assert 2 not in patches
        assert "x" not in patches


class TestBitmapPatchCountCache:
    """patch_count() must stay correct across every mutation — the
    cached popcount must never go stale."""

    def test_from_rowids_seeds_cache(self):
        patches = BitmapPatches.from_rowids(
            np.array([1, 5, 9], dtype=np.int64), 16
        )
        assert patches._patch_count == 3
        assert patches.patch_count() == 3

    def test_lazy_recount_after_add(self):
        patches = BitmapPatches.from_rowids(
            np.array([1, 5], dtype=np.int64), 16
        )
        patches.add(np.array([3, 5, 5], dtype=np.int64))  # 5 re-marked
        assert patches._patch_count is None  # invalidated, not guessed
        assert patches.patch_count() == 3  # {1, 3, 5}
        assert patches._patch_count == 3  # recount now cached

    def test_extend_without_new_patches_keeps_cache(self):
        patches = BitmapPatches.from_rowids(
            np.array([0, 7], dtype=np.int64), 8
        )
        assert patches.patch_count() == 2
        patches.extend(24, np.array([], dtype=np.int64))
        # Zero-padded growth cannot change the popcount.
        assert patches._patch_count == 2
        assert patches.patch_count() == 2

    def test_extend_with_new_patches_recounts(self):
        patches = BitmapPatches.from_rowids(
            np.array([0, 7], dtype=np.int64), 8
        )
        patches.extend(16, np.array([9, 12], dtype=np.int64))
        assert patches.patch_count() == 4

    def test_remap_after_delete_updates_cache(self):
        patches = BitmapPatches.from_rowids(
            np.array([1, 4, 8], dtype=np.int64), 10
        )
        patches.remap_after_delete(np.array([4], dtype=np.int64))
        assert patches._patch_count == 2
        assert patches.patch_count() == 2
        assert patches.rowids().tolist() == [1, 7]

    def test_cached_count_matches_identifier_design(self):
        rowids = np.array([2, 3, 11, 30], dtype=np.int64)
        identifier, bitmap = both_designs(rowids, 40)
        for design in (identifier, bitmap):
            design.add(np.array([5], dtype=np.int64))
            design.extend(48, np.array([41], dtype=np.int64))
            design.remap_after_delete(np.array([3, 45], dtype=np.int64))
        assert bitmap.patch_count() == identifier.patch_count()
        assert bitmap.rowids().tolist() == identifier.rowids().tolist()


class TestIdentifierExtendFastPath:
    def test_sorted_append_skips_sort(self, monkeypatch):
        patches = IdentifierPatches(np.array([1, 3], dtype=np.int64), 8)

        def fail_sort(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("np.sort called on presorted input")

        monkeypatch.setattr(np, "sort", fail_sort)
        patches.extend(16, np.array([9, 12, 15], dtype=np.int64))
        assert patches.rowids().tolist() == [1, 3, 9, 12, 15]
        assert patches.row_count == 16

    def test_unsorted_append_still_sorted(self):
        patches = IdentifierPatches(np.array([1, 3], dtype=np.int64), 8)
        patches.extend(16, np.array([15, 9, 12], dtype=np.int64))
        assert patches.rowids().tolist() == [1, 3, 9, 12, 15]

    def test_duplicate_appended_rowids_rejected(self):
        patches = IdentifierPatches(np.array([1], dtype=np.int64), 8)
        with pytest.raises(StorageError):
            patches.extend(16, np.array([9, 9], dtype=np.int64))

    def test_empty_extend_only_grows_row_count(self):
        patches = IdentifierPatches(np.array([1], dtype=np.int64), 8)
        patches.extend(20, np.array([], dtype=np.int64))
        assert patches.row_count == 20
        assert patches.rowids().tolist() == [1]
