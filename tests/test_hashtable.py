"""Unit and property tests for the vectorized int64 hash table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.exec.hashtable import Int64HashTable


class TestBasics:
    def test_insert_and_lookup(self):
        table = Int64HashTable(4)
        table.insert_unique(
            np.array([10, 20, 30], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
        )
        assert len(table) == 3
        assert table.lookup(np.array([20, 99, 10], dtype=np.int64)).tolist() == [
            2,
            -1,
            1,
        ]

    def test_contains(self):
        table = Int64HashTable(2)
        table.insert_unique(
            np.array([5], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        assert table.contains(np.array([5, 6], dtype=np.int64)).tolist() == [
            True,
            False,
        ]

    def test_duplicates_raise(self):
        table = Int64HashTable(4)
        with pytest.raises(ExecutionError):
            table.insert_unique(
                np.array([1, 1], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )

    def test_duplicate_against_existing_raises(self):
        table = Int64HashTable(4)
        table.insert_unique(np.array([7], dtype=np.int64), np.array([0], dtype=np.int64))
        with pytest.raises(ExecutionError):
            table.insert_unique(
                np.array([7], dtype=np.int64), np.array([1], dtype=np.int64)
            )

    def test_negative_and_zero_keys(self):
        table = Int64HashTable(4)
        table.insert_unique(
            np.array([0, -1, -(2**62)], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
        )
        assert table.lookup(
            np.array([0, -1, -(2**62), 2**62], dtype=np.int64)
        ).tolist() == [1, 2, 3, -1]

    def test_growth(self):
        table = Int64HashTable(2)
        keys = np.arange(1000, dtype=np.int64)
        table.insert_unique(keys, keys * 7)
        assert len(table) == 1000
        assert (table.lookup(keys) == keys * 7).all()

    def test_empty_lookup(self):
        table = Int64HashTable(0)
        assert table.lookup(np.array([], dtype=np.int64)).tolist() == []

    def test_length_mismatch(self):
        table = Int64HashTable(2)
        with pytest.raises(ExecutionError):
            table.insert_unique(
                np.array([1], dtype=np.int64), np.array([], dtype=np.int64)
            )


class TestProperties:
    @given(
        st.lists(st.integers(-(2**60), 2**60), max_size=300, unique=True),
        st.lists(st.integers(-(2**60), 2**60), max_size=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_python_dict(self, keys, probes):
        table = Int64HashTable(len(keys))
        key_array = np.array(keys, dtype=np.int64)
        value_array = np.arange(len(keys), dtype=np.int64)
        table.insert_unique(key_array, value_array)
        reference = {key: position for position, key in enumerate(keys)}
        probe_array = np.array(probes, dtype=np.int64)
        got = table.lookup(probe_array)
        expected = [reference.get(probe, -1) for probe in probes]
        assert got.tolist() == expected
