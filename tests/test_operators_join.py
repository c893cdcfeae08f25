"""Unit and property tests for HashJoin and MergeJoin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import ExecutionError, PlanError
from repro.exec.operators.hash_join import HashJoin
from repro.exec.operators.merge_join import MergeJoin
from repro.exec.operators.scan import TableScan
from repro.exec.result import collect
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def probe_table(keys, name="p", dtype=DataType.INT64):
    return Table.from_pydict(
        name,
        Schema([Field("pk", dtype), Field("ptag", DataType.INT64)]),
        {"pk": keys, "ptag": list(range(len(keys)))},
        partition_count=2 if len(keys) > 3 else 1,
    )


def build_table(keys, name="b", dtype=DataType.INT64):
    return Table.from_pydict(
        name,
        Schema([Field("bk", dtype), Field("btag", DataType.INT64)]),
        {"bk": keys, "btag": list(range(len(keys)))},
    )


def pairs(result):
    """(probe tag, build tag) per output row, in emission order."""
    return list(
        zip(result.column("ptag").to_pylist(), result.column("btag").to_pylist())
    )


def _joinable(key) -> bool:
    """NULL and NaN keys never match."""
    return key is not None and key == key


def reference_join(probe_keys, build_keys, left_outer=False):
    """Probe order, then build order within one probe row."""
    build_map: dict = {}
    for position, key in enumerate(build_keys):
        if _joinable(key):
            build_map.setdefault(key, []).append(position)
    out = []
    for position, key in enumerate(probe_keys):
        matches = build_map.get(key, []) if _joinable(key) else []
        if matches:
            for match in matches:
                out.append((key, position, build_keys[match], match))
        elif left_outer:
            out.append((key, position, None, None))
    return out


class TestHashJoinInner:
    def test_unique_build(self):
        probe = probe_table([1, 2, None, 2, 9])
        build = build_table([1, 2, 3])
        result = collect(HashJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        rows = sorted(
            zip(result.column("pk").to_pylist(), result.column("btag").to_pylist())
        )
        assert rows == [(1, 0), (2, 1), (2, 1)]

    def test_duplicate_build_keys_stay_vectorized(self):
        probe = probe_table([5, 6, 5])
        build = build_table([6, 5, 5, 6, 6])
        join = HashJoin(TableScan(probe), TableScan(build), "pk", "bk")
        result = collect(join)
        # Probe order, then build order within one probe row.
        assert pairs(result) == [(0, 1), (0, 2), (1, 0), (1, 3), (1, 4), (2, 1), (2, 2)]
        assert join._int_table is not None and join._dict_table is None

    def test_string_keys(self):
        schema = Schema([Field("k", DataType.STRING)])
        probe = Table.from_pydict("p", schema, {"k": ["a", "b", "a"]})
        build = Table.from_pydict(
            "b",
            Schema([Field("bk", DataType.STRING), Field("tag", DataType.INT64)]),
            {"bk": ["a", "c"], "tag": [10, 11]},
        )
        result = collect(HashJoin(TableScan(probe), TableScan(build), "k", "bk"))
        assert result.column("tag").to_pylist() == [10, 10]

    def test_column_collision_rejected(self):
        left = probe_table([1])
        right = probe_table([1], name="p2")
        with pytest.raises(PlanError):
            HashJoin(TableScan(left), TableScan(right), "pk", "pk")

    def test_empty_build(self):
        probe = probe_table([1, 2])
        build = build_table([])
        result = collect(HashJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert result.row_count == 0

    def test_bad_join_type(self):
        with pytest.raises(PlanError):
            HashJoin(
                TableScan(probe_table([1])),
                TableScan(build_table([1])),
                "pk",
                "bk",
                join_type="full",
            )


class TestHashJoinLeftOuter:
    def test_unmatched_rows_padded_with_null(self):
        probe = probe_table([1, 4, 2])
        build = build_table([1, 2])
        result = collect(
            HashJoin(
                TableScan(probe), TableScan(build), "pk", "bk", "left_outer"
            )
        )
        rows = sorted(
            zip(result.column("pk").to_pylist(), result.column("bk").to_pylist()),
            key=str,
        )
        assert rows == [(1, 1), (2, 2), (4, None)]

    def test_null_probe_key_kept(self):
        probe = probe_table([None, 1])
        build = build_table([1])
        result = collect(
            HashJoin(
                TableScan(probe), TableScan(build), "pk", "bk", "left_outer"
            )
        )
        assert result.row_count == 2

    def test_empty_build_all_padded(self):
        probe = probe_table([1, 2])
        build = build_table([])
        result = collect(
            HashJoin(
                TableScan(probe), TableScan(build), "pk", "bk", "left_outer"
            )
        )
        assert result.column("bk").to_pylist() == [None, None]

    def test_output_schema_nullable(self):
        probe = probe_table([1])
        build = build_table([1])
        join = HashJoin(
            TableScan(probe), TableScan(build), "pk", "bk", "left_outer"
        )
        assert join.schema.field("bk").nullable


class TestFloatKeys:
    """FLOAT64 keys join on value: never truncated to an integer,
    ``-0.0`` matches ``0.0`` and NaN matches nothing."""

    def test_sql_join_on_doubles_does_not_truncate(self):
        db = repro.connect()
        db.sql("CREATE TABLE a (x DOUBLE, id BIGINT)")
        db.sql("INSERT INTO a VALUES (1.5, 1), (2.25, 2), (-0.5, 3)")
        db.sql("CREATE TABLE b (y DOUBLE, w BIGINT)")
        db.sql("INSERT INTO b VALUES (1.7, 10), (2.0, 20), (0.4, 30)")
        query = "SELECT a.id, b.w FROM a JOIN b ON a.x = b.y"
        assert db.sql(query).to_pylist() == []
        db.sql("INSERT INTO b VALUES (2.25, 40)")
        assert db.sql(query).to_pylist() == [(2, 40)]

    def test_inner(self):
        probe = probe_table(
            [1.5, -0.0, math.nan, 2.0, None, 0.0], dtype=DataType.FLOAT64
        )
        build = build_table(
            [1.7, 0.0, math.nan, 2.0, 1.0, -0.0], dtype=DataType.FLOAT64
        )
        result = collect(HashJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert pairs(result) == [(1, 1), (1, 5), (3, 3), (5, 1), (5, 5)]

    def test_left_outer(self):
        probe = probe_table([1.5, 2.0, math.nan, -0.0], dtype=DataType.FLOAT64)
        build = build_table([1.0, 2.0, math.nan, 0.0], dtype=DataType.FLOAT64)
        result = collect(
            HashJoin(TableScan(probe), TableScan(build), "pk", "bk", "left_outer")
        )
        assert pairs(result) == [(0, None), (1, 1), (2, None), (3, 3)]

    def test_float_probe_against_integer_build(self):
        probe = probe_table([1.5, 2.0, 3.0], dtype=DataType.FLOAT64)
        build = build_table([1, 2, 2, 3])
        result = collect(HashJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert pairs(result) == [(1, 1), (1, 2), (2, 3)]


class TestMergeJoin:
    def test_sorted_inputs(self):
        probe = probe_table([1, 2, 2, 5])
        build = build_table([1, 2, 4, 5])
        result = collect(
            MergeJoin(
                TableScan(probe), TableScan(build), "pk", "bk", check_sorted=True
            )
        )
        assert result.column("pk").to_pylist() == [1, 2, 2, 5]

    def test_duplicates_both_sides(self):
        probe = probe_table([2, 2])
        build = build_table([2, 2, 2])
        result = collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert result.row_count == 6

    def test_unsorted_right_detected(self):
        probe = probe_table([1])
        build = build_table([5, 1])
        with pytest.raises(ExecutionError):
            collect(
                MergeJoin(
                    TableScan(probe), TableScan(build), "pk", "bk", check_sorted=True
                )
            )

    def test_unsorted_left_detected(self):
        probe = probe_table([5, 1])
        build = build_table([1, 5])
        with pytest.raises(ExecutionError):
            collect(
                MergeJoin(
                    TableScan(probe), TableScan(build), "pk", "bk", check_sorted=True
                )
            )

    def test_null_keys_never_match(self):
        probe = probe_table([1, None, 2])
        build = build_table([None, 1, 2])
        # Right side drops its NULL; left NULLs produce no match.
        result = collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert sorted(result.column("pk").to_pylist()) == [1, 2]

    def test_preserves_left_order(self):
        probe = probe_table([1, 3, 7, 9])
        build = build_table([1, 3, 7, 9])
        result = collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert result.column("pk").to_pylist() == [1, 3, 7, 9]


class TestJoinEquivalenceProperties:
    """Join output order is part of the contract: HashJoin emits probe
    order, then build order within one probe row; MergeJoin emits left
    order.  Probe batches of 5-7 rows make runs of equal keys span
    batches."""

    keys = st.lists(st.one_of(st.none(), st.integers(0, 15)), max_size=40)
    float_keys = st.lists(
        st.one_of(
            st.none(),
            st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 2.25, math.inf, math.nan]),
        ),
        max_size=40,
    )
    batch_sizes = st.integers(5, 7)

    @given(keys, keys, batch_sizes)
    @settings(max_examples=80, deadline=None)
    def test_hash_join_matches_reference(self, probe_keys, build_keys, batch_size):
        result = collect(
            HashJoin(
                TableScan(probe_table(probe_keys), batch_size=batch_size),
                TableScan(build_table(build_keys)),
                "pk",
                "bk",
            )
        )
        assert pairs(result) == [
            (p, b) for __, p, __, b in reference_join(probe_keys, build_keys)
        ]

    @given(keys, keys, batch_sizes, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_merge_join_matches_hash_join(
        self, probe_keys, build_keys, batch_size, unique_right
    ):
        check_merge_matches_hash(
            probe_keys, build_keys, batch_size, unique_right, DataType.INT64
        )

    @given(float_keys, float_keys, batch_sizes, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_merge_join_matches_hash_join_on_floats(
        self, probe_keys, build_keys, batch_size, unique_right
    ):
        check_merge_matches_hash(
            probe_keys, build_keys, batch_size, unique_right, DataType.FLOAT64
        )

    @given(keys, keys, batch_sizes)
    @settings(max_examples=60, deadline=None)
    def test_left_outer_matches_reference(self, probe_keys, build_keys, batch_size):
        result = collect(
            HashJoin(
                TableScan(probe_table(probe_keys), batch_size=batch_size),
                TableScan(build_table(build_keys)),
                "pk",
                "bk",
                "left_outer",
            )
        )
        assert pairs(result) == [
            (p, b)
            for __, p, __, b in reference_join(
                probe_keys, build_keys, left_outer=True
            )
        ]


def sorted_keeping_nulls(keys):
    """*keys* with the non-NULL values sorted (NaN last) and each NULL
    where it was: a valid merge-join input, since NULLs never join."""
    values = iter(np.sort(np.array([key for key in keys if key is not None])).tolist())
    return [None if key is None else next(values) for key in keys]


def check_merge_matches_hash(probe_keys, build_keys, batch_size, unique_right, dtype):
    """Both joins over the same key-sorted inputs emit the reference's
    pairs in the reference's order."""
    if unique_right:
        build_keys = list(dict.fromkeys(build_keys))
    left_keys = sorted_keeping_nulls(probe_keys)
    right_keys = sorted_keeping_nulls(build_keys)
    left = probe_table(left_keys, dtype=dtype)
    right = build_table(right_keys, dtype=dtype)
    expected = [(p, b) for __, p, __, b in reference_join(left_keys, right_keys)]
    merge = MergeJoin(
        TableScan(left, batch_size=batch_size),
        TableScan(right),
        "pk",
        "bk",
        # NaN sorts last but fails the ``<=`` guard; floats run unguarded.
        check_sorted=dtype == DataType.INT64,
    )
    assert pairs(collect(merge)) == expected
    hashed = HashJoin(
        TableScan(left, batch_size=batch_size), TableScan(right), "pk", "bk"
    )
    assert pairs(collect(hashed)) == expected
