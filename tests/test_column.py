"""Unit and property tests for ColumnVector."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError, TypeMismatchError
from repro.storage.column import ColumnVector
from repro.types import DataType

int_or_none = st.one_of(st.none(), st.integers(-(2**31), 2**31))


class TestConstruction:
    def test_from_pylist_no_nulls(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2, 3])
        assert len(vector) == 3
        assert not vector.has_nulls
        assert vector.to_pylist() == [1, 2, 3]

    def test_from_pylist_with_nulls(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [1, None, 3])
        assert vector.has_nulls
        assert vector.null_count() == 1
        assert vector.to_pylist() == [1, None, 3]

    def test_all_valid_mask_normalized_to_none(self):
        vector = ColumnVector(
            DataType.INT64,
            np.array([1, 2], dtype=np.int64),
            np.array([True, True]),
        )
        assert vector.validity is None

    def test_dtype_mismatch_raises(self):
        with pytest.raises(TypeMismatchError):
            ColumnVector(DataType.INT64, np.array([1.0, 2.0]))

    def test_validity_length_mismatch_raises(self):
        with pytest.raises(StorageError):
            ColumnVector(
                DataType.INT64,
                np.array([1, 2], dtype=np.int64),
                np.array([True]),
            )

    def test_string_column(self):
        vector = ColumnVector.from_pylist(DataType.STRING, ["x", None, "z"])
        assert vector.to_pylist() == ["x", None, "z"]

    def test_empty(self):
        vector = ColumnVector.empty(DataType.FLOAT64)
        assert len(vector) == 0
        assert vector.to_pylist() == []


class TestTransforms:
    def test_slice(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [1, None, 3, 4])
        assert vector.slice(1, 3).to_pylist() == [None, 3]

    def test_take(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [10, 20, 30])
        taken = vector.take(np.array([2, 0]))
        assert taken.to_pylist() == [30, 10]

    def test_filter(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2, 3, 4])
        kept = vector.filter(np.array([True, False, True, False]))
        assert kept.to_pylist() == [1, 3]

    def test_filter_bad_mask_type(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [1])
        with pytest.raises(TypeMismatchError):
            vector.filter(np.array([1]))

    def test_filter_length_mismatch(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [1, 2])
        with pytest.raises(StorageError):
            vector.filter(np.array([True]))

    def test_concat(self):
        left = ColumnVector.from_pylist(DataType.INT64, [1, None])
        right = ColumnVector.from_pylist(DataType.INT64, [3])
        merged = ColumnVector.concat([left, right])
        assert merged.to_pylist() == [1, None, 3]

    def test_concat_type_mismatch(self):
        left = ColumnVector.from_pylist(DataType.INT64, [1])
        right = ColumnVector.from_pylist(DataType.STRING, ["x"])
        with pytest.raises(TypeMismatchError):
            ColumnVector.concat([left, right])

    def test_concat_empty_list_raises(self):
        with pytest.raises(StorageError):
            ColumnVector.concat([])


class TestNullHandling:
    def test_is_valid(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [5, None])
        assert vector.is_valid(0)
        assert not vector.is_valid(1)

    def test_validity_or_all_true(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [5, 6])
        assert vector.validity_or_all_true().all()


class TestProperties:
    @given(st.lists(int_or_none, max_size=60))
    def test_roundtrip(self, items):
        vector = ColumnVector.from_pylist(DataType.INT64, items)
        assert vector.to_pylist() == items

    @given(st.lists(int_or_none, max_size=60), st.data())
    def test_slice_matches_pylist(self, items, data):
        vector = ColumnVector.from_pylist(DataType.INT64, items)
        start = data.draw(st.integers(0, len(items)))
        stop = data.draw(st.integers(start, len(items)))
        assert vector.slice(start, stop).to_pylist() == items[start:stop]

    @given(st.lists(int_or_none, min_size=1, max_size=60), st.data())
    def test_take_matches_pylist(self, items, data):
        vector = ColumnVector.from_pylist(DataType.INT64, items)
        indices = data.draw(
            st.lists(st.integers(0, len(items) - 1), max_size=30)
        )
        taken = vector.take(np.array(indices, dtype=np.int64))
        assert taken.to_pylist() == [items[i] for i in indices]

    @given(st.lists(st.booleans(), max_size=60))
    def test_filter_matches_pylist(self, mask):
        items = list(range(len(mask)))
        vector = ColumnVector.from_pylist(DataType.INT64, items)
        kept = vector.filter(np.array(mask, dtype=np.bool_))
        assert kept.to_pylist() == [i for i, keep in zip(items, mask) if keep]
