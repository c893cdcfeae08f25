"""Unit tests for the binder: name resolution, aggregation normalization."""

import random

import pytest

from repro import Database
from repro.errors import BindError
from repro.plan import logical as lp
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.schema import Field, Schema
from repro.types import DataType


@pytest.fixture
def db() -> Database:
    db = Database()
    db.sql("CREATE TABLE t (a BIGINT, b VARCHAR(10), c DOUBLE)")
    db.sql("CREATE TABLE u (a BIGINT, d BIGINT)")
    db.sql("INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', 1.5)")
    db.sql("INSERT INTO u VALUES (1, 10), (3, 30)")
    return db


def bind(db, sql):
    return Binder(db.catalog).bind_select(parse_statement(sql))


class TestResolution:
    def test_simple_columns(self, db):
        plan = bind(db, "SELECT a, b FROM t")
        assert plan.schema.names == ("a", "b")

    def test_select_star(self, db):
        plan = bind(db, "SELECT * FROM t")
        assert plan.schema.names == ("a", "b", "c")

    def test_unknown_column(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT nope FROM t")

    def test_unknown_table(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            bind(db, "SELECT a FROM missing")

    def test_qualified_resolution(self, db):
        plan = bind(db, "SELECT t.a, u.d FROM t JOIN u ON t.a = u.a")
        # Standard SQL: the output name of a qualified reference is bare.
        assert plan.schema.names == ("a", "d")

    def test_ambiguous_column_in_join(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT a FROM t JOIN u ON t.a = u.a")

    def test_alias_binding(self, db):
        plan = bind(db, "SELECT x.a FROM t AS x")
        assert plan.schema.names == ("a",)

    def test_wrong_qualifier(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT z.a FROM t AS x")

    def test_join_keys_either_order(self, db):
        # ON u.a = t.a (reversed) resolves too.
        plan = bind(db, "SELECT t.b FROM t JOIN u ON u.a = t.a")
        assert plan.schema.names == ("b",)

    def test_select_without_from_rejected(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT 1")


class TestTid:
    def test_tid_reference_enables_virtual_column(self, db):
        plan = bind(db, "SELECT tid FROM t")
        assert plan.schema.names == ("tid",)

    def test_qualified_tid(self, db):
        plan = bind(db, "SELECT t.tid FROM t WHERE t.a > 1")
        assert plan.schema.names == ("tid",)

    def test_no_tid_no_virtual_column(self, db):
        plan = bind(db, "SELECT a FROM t")

        def has_tid_scan(node):
            if isinstance(node, lp.LogicalScan) and node.with_tid:
                return True
            return any(has_tid_scan(child) for child in node.children())

        assert not has_tid_scan(plan)


class TestAggregation:
    def test_count_star(self, db):
        plan = bind(db, "SELECT COUNT(*) AS n FROM t")
        assert plan.schema.names == ("n",)

    def test_group_by_and_having(self, db):
        plan = bind(
            db, "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 0"
        )
        assert plan.schema.names == ("b", "n")

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT a, COUNT(*) FROM t GROUP BY b")

    def test_shared_aggregate_between_select_and_having(self, db):
        plan = bind(
            db,
            "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1",
        )
        # One aggregate call collected, referenced twice.
        def find_aggregate(node):
            if isinstance(node, lp.LogicalAggregate):
                return node
            for child in node.children():
                found = find_aggregate(child)
                if found is not None:
                    return found
            return None

        aggregate = find_aggregate(plan)
        assert len(aggregate.aggregates) == 1

    def test_aggregate_expression_arithmetic(self, db):
        plan = bind(db, "SELECT SUM(a) / COUNT(*) AS ratio FROM t")
        assert plan.schema.names == ("ratio",)

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT a FROM t WHERE COUNT(*) > 1")

    def test_sum_distinct_rejected(self, db):
        with pytest.raises(BindError):
            bind(db, "SELECT SUM(DISTINCT a) FROM t")

    def test_default_output_names(self, db):
        plan = bind(db, "SELECT COUNT(*), COUNT(DISTINCT a) FROM t")
        assert plan.schema.names == ("count(*)", "count(distinct a)")


class TestOrderBy:
    def test_by_output_alias(self, db):
        plan = bind(db, "SELECT a AS x FROM t ORDER BY x")
        assert isinstance(plan, lp.LogicalSort)

    def test_by_source_column_in_output(self, db):
        plan = bind(db, "SELECT a, b FROM t ORDER BY b DESC")
        assert isinstance(plan, lp.LogicalSort)
        assert not plan.keys[0].ascending

    def test_missing_from_output_rejected(self, db):
        # Only a plain SELECT can carry a key it does not project.
        for text in (
            "SELECT DISTINCT a FROM t ORDER BY c",
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY c",
        ):
            with pytest.raises(BindError, match="not in the output"):
                bind(db, text)
        with pytest.raises(BindError, match="unknown column"):
            bind(db, "SELECT a FROM t ORDER BY z")

    def test_a_key_the_list_does_not_project_is_hidden(self, db):
        plan = bind(db, "SELECT a FROM t ORDER BY c DESC LIMIT 1")
        assert isinstance(plan, lp.LogicalProject)
        assert plan.schema.names == ("a",)
        limit = plan.child
        assert isinstance(limit, lp.LogicalLimit)
        sort = limit.child
        assert isinstance(sort, lp.LogicalSort)
        assert sort.keys[0].column == "__order_0"
        assert sort.child.schema.names == ("a", "__order_0")

    def test_a_hidden_name_never_shadows_an_output(self, db):
        plan = bind(db, "SELECT a AS __order_0 FROM t ORDER BY c")
        assert plan.schema.names == ("__order_0",)
        assert plan.child.keys[0].column == "___order_0"

    def test_qualified_order_by_star_join(self, db):
        plan = bind(db, "SELECT * FROM t JOIN u ON t.a = u.a ORDER BY d")
        assert isinstance(plan, lp.LogicalSort)
        assert plan.keys[0].column == "u.d"


class TestOrderByHiddenKeys:
    """ORDER BY a column the SELECT list leaves out, against ``sorted``."""

    ROWS = 400

    @pytest.fixture(scope="class")
    def rows(self):
        rng = random.Random(7)
        return [
            (
                k,
                None if rng.random() < 0.1 else rng.randrange(6),
                rng.choice("xyz"),
                w,
            )
            for k, w in zip(
                rng.sample(range(10 * self.ROWS), self.ROWS),
                rng.sample(range(self.ROWS), self.ROWS),
            )
        ]

    @pytest.fixture(scope="class")
    def big(self, rows):
        db = Database()
        schema = Schema(
            [
                Field("k", DataType.INT64),
                Field("v", DataType.INT64),
                Field("s", DataType.STRING),
                Field("w", DataType.INT64),
            ]
        )
        db.create_table_from_pydict(
            "big",
            schema,
            {name: [row[i] for row in rows] for i, name in enumerate("kvsw")},
            partition_count=2,
        )
        return db

    @staticmethod
    def ordered(rows, *keys):
        """*rows* stably sorted by ``(column, ascending)`` keys, NULLs
        last ascending and first descending, as the Sort places them."""
        for column, ascending in reversed(keys):
            rows = sorted(
                rows,
                key=lambda row: (row[column] is None, row[column] or 0),
                reverse=not ascending,
            )
        return rows

    def check(self, big, rows, order, keys, limit=None):
        text = f"SELECT k FROM big WHERE k >= 1000 ORDER BY {order}"
        expected = self.ordered([row for row in rows if row[0] >= 1000], *keys)
        if limit is not None:
            text += f" LIMIT {limit[0]} OFFSET {limit[1]}"
            expected = expected[limit[1] : limit[1] + limit[0]]
        result = big.sql(text)
        assert result.schema.names == ("k",)
        assert result.to_pylist() == [(row[0],) for row in expected]
        if limit is not None:
            assert "TopN(" in big.explain(text)

    @pytest.mark.parametrize("order, keys", [("v", [(1, True)]), ("v DESC", [(1, False)])])
    def test_ties_keep_the_scan_order(self, big, rows, order, keys):
        self.check(big, rows, order, keys)

    # TopN breaks ties arbitrarily, so these orders are total: unique
    # ``w`` takes its single-key path, the others its full sort.
    @pytest.mark.parametrize("limit", [None, (7, 0), (5, 3)])
    @pytest.mark.parametrize(
        "order, keys",
        [
            ("w", [(3, True)]),
            ("w DESC", [(3, False)]),
            ("v DESC, k", [(1, False), (0, True)]),
            ("s, v, w", [(2, True), (1, True), (3, True)]),
        ],
    )
    def test_matches_sorted(self, big, rows, order, keys, limit):
        self.check(big, rows, order, keys, limit)


class TestDerivedTables:
    def test_subquery_binds_in_own_scope(self, db):
        plan = bind(
            db,
            "SELECT sub.a FROM (SELECT a FROM t WHERE a > 1) AS sub",
        )
        assert plan.schema.names == ("a",)

    def test_join_with_subquery(self, db):
        plan = bind(
            db,
            "SELECT t.a FROM t JOIN (SELECT a FROM u) AS s ON t.a = s.a",
        )
        assert plan.schema.names == ("a",)
