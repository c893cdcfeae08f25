"""Unit and property tests for HashJoin and MergeJoin."""

import datetime
import math

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import ExecutionError, PlanError, TypeMismatchError
from repro.exec.operators.hash_join import HashJoin
from repro.exec.operators.merge_join import MergeJoin
from repro.exec.operators.scan import TableScan
from repro.exec.result import QueryResult, collect
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
        join.open()
        batch = join.drain()
        directory = join._directory
        join.close()
        assert join._directory is None  # close releases the build side
        result = QueryResult(join.schema, batch.columns)
        # Probe order, then build order within one probe row.
        assert pairs(result) == [(0, 1), (0, 2), (1, 0), (1, 3), (1, 4), (2, 1), (2, 2)]
        assert directory.heads.tolist() == [5, 6]
        assert directory.counts.tolist() == [2, 3]
        assert not directory.unique

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
        # 2**53 + 1 is no float: float64 rounds it onto 2.0**53.
        probe = probe_table([1.5, 2.0, 3.0, 2.0**53], dtype=DataType.FLOAT64)
        build = build_table([1, 2, 2, 3, 2**53 + 1])
        for join in (HashJoin, MergeJoin):
            result = collect(join(TableScan(probe), TableScan(build), "pk", "bk"))
            assert pairs(result) == [(1, 1), (1, 2), (2, 3)]


class TestMergeJoin:
    def test_sorted_inputs(self):
        probe = probe_table([1, 2, 2, 5])
        build = build_table([1, 2, 4, 5])
        result = collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))
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
            collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))

    def test_unsorted_left_detected(self):
        probe = probe_table([5, 1])
        build = build_table([1, 5])
        with pytest.raises(ExecutionError):
            collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))

    def test_unsorted_string_left_detected(self):
        probe = probe_table(["b", "a"], dtype=DataType.STRING)
        build = build_table(["a", "b"], dtype=DataType.STRING)
        with pytest.raises(ExecutionError, match="left input is not sorted"):
            collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))

    def test_nan_and_null_keys_are_not_order_checked(self):
        probe = probe_table([1.0, math.nan, None, 2.0], dtype=DataType.FLOAT64)
        build = build_table([math.nan, 1.0, None, 2.0], dtype=DataType.FLOAT64)
        result = collect(MergeJoin(TableScan(probe), TableScan(build), "pk", "bk"))
        assert pairs(result) == [(0, 1), (3, 3)]

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


class TestKeyTypes:
    """Join keys follow the rule ``=`` uses: the same type, or INT64 with
    FLOAT64 (which widen)."""

    @pytest.fixture
    def db(self):
        db = repro.connect()
        db.sql("CREATE TABLE a (i BIGINT, x DOUBLE, s VARCHAR, d DATE, b BOOLEAN)")
        db.sql("INSERT INTO a VALUES (1, 1.0, '1', DATE '1970-01-02', true)")
        db.sql("CREATE TABLE c (j BIGINT, y DOUBLE)")
        db.sql("INSERT INTO c VALUES (1, 1.0), (2, 1.5)")
        # Equal in float64, unequal as numbers: they must not join.
        db.sql("INSERT INTO a (i) VALUES (9007199254740993)")
        db.sql("INSERT INTO c VALUES (3, 9007199254740992.0)")
        return db

    @pytest.mark.parametrize("column", ["s", "d", "b"])
    def test_mismatched_keys_raise_at_bind(self, db, column):
        # Each of these once ran: STRING matched nothing, DATE matched on
        # day numbers and BOOL on 0/1.
        with pytest.raises(TypeMismatchError):
            db.sql(f"SELECT a.i FROM a JOIN c ON a.{column} = c.j")

    def test_integer_joins_double(self, db):
        query = "SELECT a.i, c.j FROM a JOIN c ON a.i = c.y"
        assert db.sql(query).to_pylist() == [(1, 1)]
        assert db.sql(query + " WHERE a.i = c.y").to_pylist() == [(1, 1)]

    def test_operators_refuse_mismatched_keys(self):
        probe = probe_table(["a"], dtype=DataType.STRING)
        build = build_table([1])
        for join in (HashJoin, MergeJoin):
            with pytest.raises(TypeMismatchError):
                join(TableScan(probe), TableScan(build), "pk", "bk")


def nullable(values):
    return st.one_of(st.none(), values)


#: (probe type, build type, key values) for every key-type pair a join
#: accepts.
KEY_KINDS = {
    "int": (DataType.INT64, DataType.INT64, st.integers(0, 15)),
    "float": (
        DataType.FLOAT64,
        DataType.FLOAT64,
        st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 2.25, math.inf, math.nan]),
    ),
    # "" is also what a NULL slot stores: it must match "" and NULL never.
    "string": (
        DataType.STRING,
        DataType.STRING,
        st.sampled_from(["", "a", "ab", "b", "ba", "c", "\u00e9"]),
    ),
    "date": (
        DataType.DATE,
        DataType.DATE,
        st.dates(datetime.date(1969, 12, 25), datetime.date(1970, 1, 5)),
    ),
    "int_float": (
        DataType.INT64,
        DataType.FLOAT64,
        st.sampled_from([-0.0, 0.0, 1.0, 1.5, 2.0, 3.0, math.nan]),
    ),
}


PROBE_SAMPLES = {
    "int": [3, 0, 3],
    "float": [0.0, math.nan, -0.0],
    "string": ["", "a", ""],
    "date": [datetime.date(1970, 1, 1)],
    "int_float": [1, 0],
}


def key_lists(kind):
    """Probe and build key lists; builds are sometimes all NULL."""
    probe_type, build_type, values = KEY_KINDS[kind]
    # INT64 probes a FLOAT64 build with integers.
    probe_values = values if probe_type == build_type else st.integers(-1, 3)
    build_lists = st.one_of(
        st.lists(nullable(values), max_size=40),
        st.lists(st.none(), max_size=5),
    )
    return st.lists(nullable(probe_values), max_size=40), build_lists


class TestJoinEquivalenceProperties:
    """Join output order is part of the contract: HashJoin emits probe
    order, then build order within one probe row; MergeJoin emits left
    order.  Probe batches of 5-7 rows make runs of equal keys span
    batches."""

    keys = st.lists(st.one_of(st.none(), st.integers(0, 15)), max_size=40)
    float_keys = st.lists(nullable(KEY_KINDS["float"][2]), max_size=40)
    batch_sizes = st.integers(5, 7)

    @given(keys, keys, batch_sizes)
    @settings(max_examples=80, deadline=None)
    def test_hash_join_matches_reference(self, probe_keys, build_keys, batch_size):
        check_hash_joins(probe_keys, build_keys, batch_size, "int", ("inner",))

    @given(keys, keys, batch_sizes, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_merge_join_matches_hash_join(
        self, probe_keys, build_keys, batch_size, unique_right
    ):
        check_merge_matches_hash(
            probe_keys, build_keys, batch_size, unique_right, "int"
        )

    @given(float_keys, float_keys, batch_sizes, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_merge_join_matches_hash_join_on_floats(
        self, probe_keys, build_keys, batch_size, unique_right
    ):
        check_merge_matches_hash(
            probe_keys, build_keys, batch_size, unique_right, "float"
        )

    @given(keys, keys, batch_sizes)
    @settings(max_examples=60, deadline=None)
    def test_left_outer_matches_reference(self, probe_keys, build_keys, batch_size):
        check_hash_joins(probe_keys, build_keys, batch_size, "int", ("left_outer",))

    @pytest.mark.parametrize("kind", ["float", "string", "date", "int_float"])
    @given(data=st.data(), batch_size=batch_sizes, unique_right=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_every_key_type_matches_reference(
        self, kind, data, batch_size, unique_right
    ):
        probe_lists, build_lists = key_lists(kind)
        probe_keys = data.draw(probe_lists)
        build_keys = data.draw(build_lists)
        check_hash_joins(probe_keys, build_keys, batch_size, kind)
        check_merge_matches_hash(
            probe_keys, build_keys, batch_size, unique_right, kind
        )

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    @pytest.mark.parametrize("build_keys", [[], [None, None, None]])
    def test_empty_and_all_null_build(self, kind, build_keys):
        probe_keys = [None, *PROBE_SAMPLES[kind]]
        check_hash_joins(probe_keys, build_keys, 5, kind)
        check_merge_matches_hash(probe_keys, build_keys, 5, False, kind)


def tables(probe_keys, build_keys, kind):
    probe_type, build_type, __ = KEY_KINDS[kind]
    return (
        probe_table(probe_keys, dtype=probe_type),
        build_table(build_keys, dtype=build_type),
    )


def check_hash_joins(
    probe_keys, build_keys, batch_size, kind, join_types=("inner", "left_outer")
):
    """HashJoin emits the reference's pairs in the reference's order."""
    probe, build = tables(probe_keys, build_keys, kind)
    for join_type in join_types:
        result = collect(
            HashJoin(
                TableScan(probe, batch_size=batch_size),
                TableScan(build),
                "pk",
                "bk",
                join_type,
            )
        )
        assert pairs(result) == [
            (p, b)
            for __, p, __, b in reference_join(
                probe_keys, build_keys, left_outer=join_type == "left_outer"
            )
        ]


def sorted_keeping_nulls(keys):
    """*keys* with the non-NULL values sorted (NaN last) and each NULL
    where it was: a valid merge-join input, since NULLs never join."""
    values = iter(sorted(
        (key for key in keys if key is not None),
        key=lambda key: (key != key, key if key == key else 0),
    ))
    return [None if key is None else next(values) for key in keys]


def check_merge_matches_hash(probe_keys, build_keys, batch_size, unique_right, kind):
    """Both joins over the same key-sorted inputs emit the reference's
    pairs in the reference's order."""
    if unique_right:
        build_keys = list(dict.fromkeys(build_keys))
    left_keys = sorted_keeping_nulls(probe_keys)
    right_keys = sorted_keeping_nulls(build_keys)
    left, right = tables(left_keys, right_keys, kind)
    expected = [(p, b) for __, p, __, b in reference_join(left_keys, right_keys)]
    merge = MergeJoin(
        TableScan(left, batch_size=batch_size), TableScan(right), "pk", "bk"
    )
    assert pairs(collect(merge)) == expected
    hashed = HashJoin(
        TableScan(left, batch_size=batch_size), TableScan(right), "pk", "bk"
    )
    assert pairs(collect(hashed)) == expected
