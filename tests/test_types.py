"""Unit tests for the logical type system."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.types import (
    DataType,
    coerce_scalar,
    common_type,
    infer_datatype,
    is_numeric,
    is_orderable,
    numpy_dtype,
    python_type,
)
from repro.types.datatypes import date_to_days, days_to_date


class TestDataTypeNames:
    def test_from_name_aliases(self):
        assert DataType.from_name("BIGINT") == DataType.INT64
        assert DataType.from_name("integer") == DataType.INT64
        assert DataType.from_name("varchar") == DataType.STRING
        assert DataType.from_name("DOUBLE") == DataType.FLOAT64
        assert DataType.from_name("Boolean") == DataType.BOOL
        assert DataType.from_name("date") == DataType.DATE

    def test_from_name_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            DataType.from_name("blob")

    def test_numpy_mapping(self):
        assert numpy_dtype(DataType.INT64) == np.dtype(np.int64)
        assert numpy_dtype(DataType.DATE) == np.dtype(np.int64)
        assert numpy_dtype(DataType.STRING) == np.dtype(object)
        assert numpy_dtype(DataType.BOOL) == np.dtype(np.bool_)

    def test_python_mapping(self):
        assert python_type(DataType.INT64) is int
        assert python_type(DataType.DATE) is dt.date


class TestPredicatesOnTypes:
    def test_numeric(self):
        assert is_numeric(DataType.INT64)
        assert is_numeric(DataType.FLOAT64)
        assert not is_numeric(DataType.STRING)

    def test_orderable_everything(self):
        assert all(is_orderable(dtype) for dtype in DataType)

    def test_common_type(self):
        assert common_type(DataType.INT64, DataType.FLOAT64) == DataType.FLOAT64
        assert common_type(DataType.STRING, DataType.STRING) == DataType.STRING

    def test_common_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            common_type(DataType.STRING, DataType.INT64)


class TestInference:
    def test_infer_basic(self):
        assert infer_datatype(1) == DataType.INT64
        assert infer_datatype(1.5) == DataType.FLOAT64
        assert infer_datatype("x") == DataType.STRING
        assert infer_datatype(True) == DataType.BOOL
        assert infer_datatype(dt.date(2020, 1, 1)) == DataType.DATE

    def test_bool_is_not_int(self):
        assert infer_datatype(True) == DataType.BOOL

    def test_infer_unknown_raises(self):
        with pytest.raises(TypeMismatchError):
            infer_datatype(object())


class TestCoercion:
    def test_none_passes_through(self):
        for dtype in DataType:
            assert coerce_scalar(None, dtype) is None

    def test_int(self):
        assert coerce_scalar(5, DataType.INT64) == 5
        with pytest.raises(TypeMismatchError):
            coerce_scalar("5", DataType.INT64)
        with pytest.raises(TypeMismatchError):
            coerce_scalar(True, DataType.INT64)

    def test_int64_and_date_day_numbers_out_of_range(self):
        for dtype in (DataType.INT64, DataType.DATE):
            assert coerce_scalar(2**63 - 1, dtype) == 2**63 - 1
            assert coerce_scalar(-(2**63), dtype) == -(2**63)
            for beyond in (2**63, -(2**63) - 1):
                with pytest.raises(TypeMismatchError, match="out of range"):
                    coerce_scalar(beyond, dtype)

    def test_float_accepts_int(self):
        assert coerce_scalar(5, DataType.FLOAT64) == 5.0
        assert isinstance(coerce_scalar(5, DataType.FLOAT64), float)

    def test_date_roundtrip(self):
        day = dt.date(2001, 9, 9)
        days = coerce_scalar(day, DataType.DATE)
        assert isinstance(days, int)
        assert days_to_date(days) == day

    def test_date_epoch(self):
        assert date_to_days(dt.date(1970, 1, 1)) == 0
        assert days_to_date(0) == dt.date(1970, 1, 1)

    def test_date_rejects_datetime(self):
        with pytest.raises(TypeMismatchError):
            coerce_scalar(dt.datetime(2020, 1, 1, 12, 0), DataType.DATE)

    def test_string(self):
        assert coerce_scalar("x", DataType.STRING) == "x"
        with pytest.raises(TypeMismatchError):
            coerce_scalar(5, DataType.STRING)

    def test_bool(self):
        assert coerce_scalar(True, DataType.BOOL) is True
        with pytest.raises(TypeMismatchError):
            coerce_scalar(1, DataType.BOOL)
