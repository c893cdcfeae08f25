"""Unit and property tests for ColumnVector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError, TypeMismatchError
from repro.storage.column import ColumnVector
from repro.types import DataType
from repro.types.datatypes import coerce_scalar, numpy_dtype

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


def coerced_per_item(dtype, items):
    """``from_pylist`` as it was: ``coerce_scalar`` on every item, NULLs
    filled with zero, then one array."""
    coerced = [coerce_scalar(item, dtype) for item in items]
    fill = 0.0 if dtype == DataType.FLOAT64 else 0
    values = np.array(
        [fill if item is None else item for item in coerced], dtype=numpy_dtype(dtype)
    )
    return values, np.array([item is not None for item in coerced], dtype=np.bool_)


def outcome(build):
    try:
        return build()
    except TypeMismatchError as error:
        return type(error), str(error)


class TestNumericFromPylist:
    """INT64 and FLOAT64 convert in one ``np.array`` call after a type
    check on every item; what that check does not pass goes through
    ``coerce_scalar`` and behaves as before."""

    @pytest.mark.parametrize(
        "item, message",
        [(True, "expected INT64, got True"), (1.5, "expected INT64, got 1.5"),
         ("1", "expected INT64, got '1'")],
    )
    def test_int64_rejects_bool_float_and_str(self, item, message):
        for items in ([item], [1, item], [None, 2, item]):
            with pytest.raises(TypeMismatchError, match=message):
                ColumnVector.from_pylist(DataType.INT64, items)

    @pytest.mark.parametrize("item", [False, "2.5"])
    def test_float64_rejects_bool_and_str(self, item):
        with pytest.raises(TypeMismatchError, match="expected FLOAT64"):
            ColumnVector.from_pylist(DataType.FLOAT64, [1.0, 2, item])

    def test_null_sets_validity_and_fills_zero(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [None, 7, None])
        assert vector.validity.tolist() == [False, True, False]
        assert vector.values.tolist() == [0, 7, 0]
        vector = ColumnVector.from_pylist(DataType.FLOAT64, [None, 2, 0.5])
        assert vector.validity.tolist() == [False, True, True]
        assert vector.values.tolist() == [0.0, 2.0, 0.5]
        assert ColumnVector.from_pylist(DataType.INT64, [None]).to_pylist() == [None]

    def test_int64_bounds(self):
        edges = [2**63 - 1, -(2**63), 0]
        assert ColumnVector.from_pylist(DataType.INT64, edges).to_pylist() == edges
        for beyond in (2**63, -(2**63) - 1, 2**80):
            message = f"out of range for INT64: {beyond}"
            with pytest.raises(TypeMismatchError, match=message):
                ColumnVector.from_pylist(DataType.INT64, [1, beyond])
            with pytest.raises(TypeMismatchError, match=message):
                ColumnVector.from_pylist(DataType.INT64, [None, beyond])

    def test_float64_takes_ints_as_float_does(self):
        items = [2**53 + 1, -(2**63) - 1, 2**70 + 12345, 3]
        vector = ColumnVector.from_pylist(DataType.FLOAT64, items)
        assert vector.values.tolist() == [float(item) for item in items]
        for items in ([2**1024], [None, 2**1024]):
            with pytest.raises(TypeMismatchError, match="out of range for FLOAT64"):
                ColumnVector.from_pylist(DataType.FLOAT64, items)

    def test_numpy_scalars_still_accepted(self):
        vector = ColumnVector.from_pylist(DataType.INT64, [np.int64(4), 5, None])
        assert vector.to_pylist() == [4, 5, None]
        vector = ColumnVector.from_pylist(DataType.FLOAT64, [np.float32(0.5), 1])
        assert vector.to_pylist() == [0.5, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([DataType.INT64, DataType.FLOAT64]),
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-(2**64), 2**64),
                st.floats(allow_nan=False),
                st.booleans(),
                st.sampled_from(["x", np.int64(3), np.float64(2.5)]),
            ),
            max_size=8,
        ),
    )
    def test_matches_coerce_per_item(self, dtype, items):
        def built():
            vector = ColumnVector.from_pylist(dtype, items)
            return vector.values, vector.validity_or_all_true()

        expected = outcome(lambda: coerced_per_item(dtype, items))
        actual = outcome(built)
        if isinstance(expected[0], np.ndarray):
            assert actual[0].dtype == expected[0].dtype
            assert actual[0].tolist() == expected[0].tolist()
            assert actual[1].tolist() == expected[1].tolist()
        else:
            assert actual == expected


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
