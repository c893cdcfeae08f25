"""Tests for incremental PatchIndex maintenance (paper §VIII outlook).

The invariant under every mutation sequence: the maintained patch set
still satisfies the formal constraint conditions (correctness), even
though it may exceed the minimal set (conservatism is allowed and
measured).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.constraints import check_nsc, check_nuc
from repro.core.maintenance import IndexMaintainer, MaintenanceStats
from repro.core.patch_index import PatchIndex, PatchIndexMode
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(values, partition_count=1):
    return Table.from_pydict(
        "t",
        Schema([Field("c", DataType.INT64)]),
        {"c": values},
        partition_count=partition_count,
    )


def assert_valid(index: PatchIndex):
    """NUC validity is global; NSC validity follows the index scope
    (global, or partition-local per the paper's §VI-A2)."""
    if index.kind == "unique":
        column = index.table.read_column(index.column_name)
        rowids = index.rowids()
        assert check_nuc(column, rowids), (
            f"NUC violated: values={column.to_pylist()}, patches={rowids.tolist()}"
        )
        return
    if index.scope == "global":
        column = index.table.read_column(index.column_name)
        rowids = index.rowids()
        assert check_nsc(
            column, rowids, ascending=index.ascending, strict=index.strict
        ), (
            f"global NSC violated: values={column.to_pylist()}, "
            f"patches={rowids.tolist()}"
        )
        return
    for partition in index.table.partitions:
        column = partition.column(index.column_name)
        local = index.partition_patches(partition.partition_id).rowids()
        assert check_nsc(
            column, local, ascending=index.ascending, strict=index.strict
        ), (
            f"NSC violated in partition {partition.partition_id}: "
            f"values={column.to_pylist()}, patches={local.tolist()}"
        )


class TestNucAppend:
    def test_fresh_value_stays_kept(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[4]])
        assert index.patch_count == 0
        assert_valid(index)

    def test_duplicate_of_kept_demotes_both(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[2]])
        # Both the old row (rowid 1) and the new row (rowid 3) are patches.
        assert index.rowids().tolist() == [1, 3]
        assert_valid(index)

    def test_duplicate_of_patch_value(self):
        table = make_table([5, 5, 1])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[5]])
        assert index.rowids().tolist() == [0, 1, 3]
        assert_valid(index)

    def test_null_insert_is_patch(self):
        table = make_table([1, 2])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[None]])
        assert index.rowids().tolist() == [2]
        assert_valid(index)

    def test_stats_track_demotions(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[2], [9]])
        assert index._maintainer is not None
        assert index._maintainer.stats.kept_rows_demoted == 1
        assert index._maintainer.stats.rows_appended == 2


class TestStats:
    def test_append_and_update_accounting(self):
        table = make_table([1, 2, 3, 4, 5, 6])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[7], [8], [None], [None]])  # two NULL patches
        table.update_rowid(6, "c", 9)  # stays kept
        table.update_rowid(8, "c", 10)  # a fresh value: promoted back out
        stats = index.maintenance_stats()
        assert (stats.appends_handled, stats.updates_handled) == (1, 2)
        assert stats.rows_appended == 4
        assert (stats.patches_added, stats.patches_removed) == (2, 1)
        assert index.rowids().tolist() == [9]

    def test_stats_payload_round_trip(self):
        stats = MaintenanceStats(appends_handled=3, patches_added=5)
        restored = MaintenanceStats.from_payload(stats.to_payload())
        assert restored.appends_handled == 3
        assert restored.patches_added == 5

    def test_changes_land_in_the_owning_partition(self):
        table = make_table([1, 2, 3, 4, 5, 6], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "unique")
        table.update_rowid(4, "c", 2)  # partition 1, local row 1, twin in 0
        assert index.partition_patches(0).rowids().tolist() == [1]
        assert index.partition_patches(1).rowids().tolist() == [1]


class TestNscAppend:
    def test_extending_value_stays_kept(self):
        table = make_table([1, 5, 9])
        index = PatchIndex.create("pi", table, "c", "sorted")
        table.insert_rows([[9], [12]])
        assert index.patch_count == 0
        assert_valid(index)

    def test_out_of_order_value_is_patch(self):
        table = make_table([1, 5, 9])
        index = PatchIndex.create("pi", table, "c", "sorted")
        table.insert_rows([[3]])
        assert index.rowids().tolist() == [3]
        assert_valid(index)

    def test_null_is_patch(self):
        table = make_table([1, 5])
        index = PatchIndex.create("pi", table, "c", "sorted")
        table.insert_rows([[None], [7]])
        assert index.rowids().tolist() == [2]
        assert_valid(index)

    def test_tail_tracking_after_mixed_appends(self):
        table = make_table([10])
        index = PatchIndex.create("pi", table, "c", "sorted")
        table.insert_rows([[5], [11], [11], [4]])
        # 5 breaks order; 11, 11 extend; 4 breaks again.
        assert index.rowids().tolist() == [1, 4]
        assert_valid(index)


class TestDelete:
    def test_delete_remaps_nuc(self):
        table = make_table([1, 3, 3, 7])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.delete_rowids([0])
        assert index.rowids().tolist() == [0, 1]
        assert_valid(index)

    def test_delete_patch_rows(self):
        table = make_table([1, 3, 3, 7])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.delete_rowids([1, 2])
        # Conservative: no promotion needed, patch set simply shrinks.
        assert index.patch_count == 0
        assert_valid(index)

    def test_delete_then_insert_rebuilds_state(self):
        table = make_table([1, 2, 3, 4])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.delete_rowids([1])
        table.insert_rows([[3]])  # duplicates kept value 3 (now rowid 1)
        assert_valid(index)
        assert index.patch_count == 2

    def test_delete_remaps_nsc(self):
        table = make_table([1, 9, 2, 3])
        index = PatchIndex.create("pi", table, "c", "sorted")
        assert index.rowids().tolist() == [1]
        table.delete_rowids([0])
        assert index.rowids().tolist() == [0]
        assert_valid(index)


class TestUpdate:
    def test_update_indexed_column_demotes(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.update_rowid(0, "c", 3)  # now duplicates kept value 3
        assert set(index.rowids().tolist()) == {0, 2}
        assert_valid(index)

    def test_update_nsc_marks_patch(self):
        table = make_table([1, 5, 9])
        index = PatchIndex.create("pi", table, "c", "sorted")
        table.update_rowid(1, "c", 100)
        assert 1 in index.rowids().tolist()
        assert_valid(index)

    def test_update_other_column_ignored(self):
        table = Table.from_pydict(
            "t",
            Schema([Field("c", DataType.INT64), Field("d", DataType.INT64)]),
            {"c": [1, 2], "d": [0, 0]},
        )
        index = PatchIndex.create("pi", table, "c", "unique")
        table.update_rowid(0, "d", 99)
        assert index.patch_count == 0

    def test_update_to_null(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.update_rowid(1, "c", None)
        assert 1 in index.rowids().tolist()
        assert_valid(index)

    def test_update_nsc_tail_then_append(self):
        table = make_table([1, 5, 9])
        index = PatchIndex.create("pi", table, "c", "sorted")
        table.update_rowid(2, "c", 0)  # the tail row becomes a patch
        table.insert_rows([[6]])  # 6 >= 5 (new tail): kept
        assert index.rowids().tolist() == [2]
        assert_valid(index)


mutations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.one_of(st.none(), st.integers(0, 8))),
        st.tuples(st.just("delete"), st.integers(0, 20)),
        st.tuples(
            st.just("update"),
            st.tuples(st.integers(0, 20), st.one_of(st.none(), st.integers(0, 8))),
        ),
    ),
    max_size=12,
)


class TestPropertyBased:
    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 8)), min_size=1, max_size=15),
        mutations,
        st.sampled_from(["unique", "sorted"]),
        st.integers(1, 3),
        st.sampled_from(["global", "partition"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_constraint_holds_under_any_mutation_sequence(
        self, initial, operations, kind, partitions, scope
    ):
        table = make_table(initial, partition_count=partitions)
        index = PatchIndex.create("pi", table, "c", kind, scope=scope)
        for operation, argument in operations:
            if operation == "insert":
                table.insert_rows([[argument]])
            elif operation == "delete":
                if table.row_count:
                    table.delete_rowids([argument % table.row_count])
            else:
                rowid, value = argument
                if table.row_count:
                    table.update_rowid(rowid % table.row_count, "c", value)
            assert_valid(index)


class TestStatelessClassifier:
    """The maintainer decides from the data at the moment of the mutation."""

    def test_maintainer_holds_nothing_but_its_stats(self):
        table = make_table([1, 2, 2, None], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[2], [5]])
        table.delete_rowids([0])
        table.update_rowid(1, "c", 5)
        assert set(vars(index._maintainer)) == {"index", "stats"}
        assert not hasattr(index._maintainer.stats, "invalidations")

    def test_in_batch_duplicates_of_a_fresh_value_are_both_patches(self):
        table = make_table([1, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[8], [9], [8]])
        assert index.rowids().tolist() == [3, 5]
        assert index.maintenance_stats().kept_rows_demoted == 0
        assert_valid(index)

    def test_null_fill_value_is_not_a_held_value(self):
        # NULL slots store 0 physically; an inserted 0 collides with nothing.
        table = make_table([None, 4, None])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.insert_rows([[0]])
        assert index.rowids().tolist() == [0, 2]
        table.update_rowid(1, "c", 0)  # now it does collide, with rowid 3
        assert index.rowids().tolist() == [0, 1, 2, 3]
        assert_valid(index)

    def test_update_to_a_fresh_value_keeps_or_promotes_the_row(self):
        table = make_table([1, 2, 2, 3])
        index = PatchIndex.create("pi", table, "c", "unique")
        table.update_rowid(0, "c", 7)  # kept stays kept: it is not its own twin
        assert index.rowids().tolist() == [1, 2]
        table.update_rowid(0, "c", 7)  # a no-op update neither
        assert index.rowids().tolist() == [1, 2]
        table.update_rowid(1, "c", 8)  # a patch whose value nobody holds
        assert index.rowids().tolist() == [2]
        assert index.maintenance_stats().patches_removed == 1
        assert_valid(index)

    def test_update_is_the_first_mutation_a_fresh_index_sees(self):
        # The table already holds the new value when the index hears of it.
        table = make_table([1, 2, 3], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "unique")
        table.update_rowid(0, "c", 3)
        assert index.rowids().tolist() == [0, 2]
        assert index.maintenance_stats().kept_rows_demoted == 1
        assert_valid(index)

    def test_global_tail_is_found_in_an_earlier_partition(self):
        table = make_table([1, 5, None, None], partition_count=2)
        index = PatchIndex.create("pi", table, "c", "sorted", scope="global")
        assert index.partition_patches(1).rowids().tolist() == [0, 1]
        table.insert_rows([[3], [5], [6]])  # 3 < 5: only 5 and 6 extend
        assert index.rowids().tolist() == [2, 3, 4]
        assert_valid(index)

    def test_delete_needs_no_rebuild_before_the_next_insert(self):
        table = make_table([1, 5, 9, 9, 12])
        unique = PatchIndex.create("pu", table, "c", "unique")
        ordered = PatchIndex.create("ps", table, "c", "sorted")
        table.delete_rowids([4])
        table.insert_rows([[5], [10]])
        assert unique.rowids().tolist() == [1, 2, 3, 4]
        assert ordered.rowids().tolist() == [4]
        assert_valid(unique)
        assert_valid(ordered)

    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=14),
        st.lists(st.one_of(st.none(), st.integers(0, 9)), min_size=1, max_size=8),
        st.integers(1, 3),
        st.sampled_from([PatchIndexMode.IDENTIFIER, PatchIndexMode.BITMAP]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_nuc_growth_is_the_brute_force_rule(
        self, initial, batch, partitions, mode, as_load
    ):
        """A new row is a patch iff NULL or its value occurs in any other
        row; an old kept row is demoted iff a new row holds its value."""
        table = make_table(initial, partition_count=partitions)
        index = PatchIndex.create("pi", table, "c", "unique", mode=mode)
        patched = {
            (pid, local)
            for pid in range(partitions)
            for local in index.partition_patches(pid).rowids().tolist()
        }
        old_rows = [p.row_count for p in table.partitions]
        if as_load:
            table.load_columns({"c": ColumnVector.from_pylist(DataType.INT64, batch)})
        else:
            table.insert_rows([[value] for value in batch])
        cells = [p.column("c").to_pylist() for p in table.partitions]
        held = Counter(v for column in cells for v in column if v is not None)
        new_values = {
            v for pid, column in enumerate(cells) for v in column[old_rows[pid]:]
        }
        expected = set(patched)
        for pid, column in enumerate(cells):
            for local, value in enumerate(column):
                if local >= old_rows[pid]:
                    if value is None or held[value] > 1:
                        expected.add((pid, local))
                elif value is not None and value in new_values:
                    expected.add((pid, local))
        assert {
            (pid, local)
            for pid in range(partitions)
            for local in index.partition_patches(pid).rowids().tolist()
        } == expected
        assert_valid(index)

    @given(
        st.one_of(st.none(), st.integers(0, 9)),
        st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=12),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_vectorized_extension_is_the_greedy_loop(
        self, last, values, ascending, strict
    ):
        table = make_table([0])
        index = PatchIndex.create(
            "pi", table, "c", "sorted", ascending=ascending, strict=strict
        )
        kept = IndexMaintainer(index)._extends(
            last, ColumnVector.from_pylist(DataType.INT64, values)
        )
        expected, tail = [], last
        for value in values:
            if value is None:
                extends = False
            elif tail is None:
                extends = True
            elif ascending:
                extends = tail < value if strict else tail <= value
            else:
                extends = tail > value if strict else tail >= value
            expected.append(extends)
            tail = value if extends else tail
        assert kept.tolist() == expected
