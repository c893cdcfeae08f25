"""End-to-end SQL tests: full statements through parse/bind/optimize/execute."""

import datetime as dt

import pytest

from repro import Database
from repro.core.discovery import discover_nuc_patches
from repro.errors import BindError, TypeMismatchError
from repro.plan.optimizer import OptimizerOptions
from repro.sql.parser import scan_insert


@pytest.fixture
def db() -> Database:
    db = Database()
    db.sql("CREATE TABLE tab (c BIGINT, v VARCHAR(10), f DOUBLE) PARTITIONS 2")
    db.sql(
        "INSERT INTO tab VALUES "
        "(1,'a',0.1), (3,'b',0.2), (4,'c',0.3), (3,'d',0.4), "
        "(2,'e',0.5), (6,'f',0.6), (7,'g',0.7), (6,'h',0.8), (NULL,'i',0.9)"
    )
    return db


class TestBasicQueries:
    def test_select_star(self, db):
        result = db.sql("SELECT * FROM tab")
        assert result.row_count == 9
        assert result.column_names == ("c", "v", "f")

    def test_where(self, db):
        result = db.sql("SELECT v FROM tab WHERE c > 3 AND c < 7")
        assert sorted(result.column("v").to_pylist()) == ["c", "f", "h"]

    def test_order_by_limit(self, db):
        result = db.sql("SELECT c FROM tab ORDER BY c DESC LIMIT 3")
        assert result.column("c").to_pylist() == [None, 7, 6]

    def test_aggregates(self, db):
        result = db.sql(
            "SELECT COUNT(*) AS n, COUNT(c) AS nc, SUM(c) AS s, "
            "MIN(c) AS mn, MAX(c) AS mx, AVG(c) AS av FROM tab"
        )
        assert result.to_pylist() == [(9, 8, 32, 1, 7, 4.0)]

    def test_group_by_having(self, db):
        result = db.sql(
            "SELECT c, COUNT(*) AS n FROM tab GROUP BY c "
            "HAVING COUNT(*) > 1 ORDER BY c"
        )
        assert result.to_pylist() == [(3, 2), (6, 2)]

    def test_distinct(self, db):
        result = db.sql("SELECT DISTINCT c FROM tab WHERE c IS NOT NULL")
        assert sorted(result.column("c").to_pylist()) == [1, 2, 3, 4, 6, 7]

    def test_arithmetic_projection(self, db):
        result = db.sql("SELECT c * 2 + 1 AS x FROM tab WHERE c = 4")
        assert result.column("x").to_pylist() == [9]

    def test_is_null(self, db):
        result = db.sql("SELECT v FROM tab WHERE c IS NULL")
        assert result.column("v").to_pylist() == ["i"]


class TestJoins:
    @pytest.fixture
    def joined_db(self, db):
        db.sql("CREATE TABLE dim (k BIGINT, name VARCHAR(10))")
        db.sql(
            "INSERT INTO dim VALUES (1,'one'), (2,'two'), (3,'three'), "
            "(6,'six'), (7,'seven')"
        )
        return db

    def test_inner_join(self, joined_db):
        result = joined_db.sql(
            "SELECT tab.v, dim.name FROM tab JOIN dim ON tab.c = dim.k "
            "ORDER BY name"
        )
        assert result.row_count == 7  # 1,3,3,2,6,7,6

    def test_left_outer_join(self, joined_db):
        result = joined_db.sql(
            "SELECT tab.c, dim.name FROM tab LEFT OUTER JOIN dim "
            "ON tab.c = dim.k"
        )
        assert result.row_count == 9
        names = result.column("name").to_pylist()
        assert names.count(None) == 2  # c=4 and c=NULL

    def test_derived_table_join(self, joined_db):
        result = joined_db.sql(
            "SELECT t.c FROM tab t JOIN "
            "(SELECT k FROM dim WHERE k > 2) AS big ON t.c = big.k"
        )
        assert sorted(result.column("c").to_pylist()) == [3, 3, 6, 6, 7]


class TestPaperDiscoveryQuery:
    def test_matches_engine_discovery(self, db):
        query = """
        select tab.tid from tab
        left outer join
                (select c from tab
                group by c
                having count(*) > 1)
                as temp
        on tab.c = temp.c
        where temp.c is not null
        or tab.c is null
        """
        tids = sorted(db.sql(query).column("tid").to_pylist())
        engine = discover_nuc_patches(db.table("tab").read_column("c")).tolist()
        assert tids == engine


class TestPatchIndexDdl:
    def test_create_and_use(self, db):
        db.sql("CREATE PATCHINDEX pi ON tab(c) TYPE UNIQUE")
        assert db.catalog.has_index("pi")
        result = db.sql("SELECT COUNT(DISTINCT c) AS n FROM tab")
        assert result.scalar() == 6
        plan = db.explain("SELECT COUNT(DISTINCT c) AS n FROM tab")
        assert "PatchSelect" in plan

    def test_rewrite_preserves_results(self, db):
        baseline = db.sql("SELECT DISTINCT c FROM tab")
        db.sql("CREATE PATCHINDEX pi ON tab(c) TYPE UNIQUE")
        rewritten = db.sql("SELECT DISTINCT c FROM tab")
        assert sorted(baseline.column("c").to_pylist(), key=str) == sorted(
            rewritten.column("c").to_pylist(), key=str
        )

    def test_sorted_index_and_order_by(self, db):
        db.sql("CREATE PATCHINDEX ps ON tab(c) TYPE SORTED")
        result = db.sql("SELECT c FROM tab ORDER BY c")
        assert result.column("c").to_pylist() == [1, 2, 3, 3, 4, 6, 6, 7, None]

    def test_threshold_rejection(self, db):
        from repro.errors import ThresholdExceededError

        with pytest.raises(ThresholdExceededError):
            db.sql("CREATE PATCHINDEX pi ON tab(c) TYPE UNIQUE THRESHOLD 0.1")

    def test_drop(self, db):
        db.sql("CREATE PATCHINDEX pi ON tab(c) TYPE UNIQUE")
        db.sql("DROP PATCHINDEX pi")
        assert not db.catalog.has_index("pi")
        assert "PatchSelect" not in db.explain("SELECT DISTINCT c FROM tab")


class TestDml:
    def test_insert_returns_count(self, db):
        result = db.sql("INSERT INTO tab VALUES (10, 'j', 1.0)")
        assert "1 rows inserted" in result.scalar()

    def test_insert_with_column_list(self, db):
        db.sql("INSERT INTO tab (v, c) VALUES ('k', 11)")
        result = db.sql("SELECT f FROM tab WHERE c = 11")
        assert result.column("f").to_pylist() == [None]

    @pytest.mark.parametrize("comment", ["", "-- token path\n"])
    def test_out_of_range_int64_literal_is_a_type_mismatch(self, db, comment):
        text = f"INSERT INTO tab VALUES ({comment}9223372036854775808, 'x', 1.0)"
        # The comment sends the statement past the VALUES scanner to the
        # token parser; both must reject the literal the same way.
        assert (scan_insert(text) is None) == bool(comment)
        before = db.sql("SELECT COUNT(*) AS n FROM tab").scalar()
        with pytest.raises(TypeMismatchError, match="out of range for INT64"):
            db.sql(text)
        with pytest.raises(TypeMismatchError, match="out of range for INT64"):
            db.sql(f"INSERT INTO tab (c) VALUES ({comment}1), (-9223372036854775809)")
        assert db.sql("SELECT COUNT(*) AS n FROM tab").scalar() == before

    @pytest.mark.parametrize("comment", ["", "-- token path\n"])
    def test_repeated_insert_column_is_a_bind_error(self, db, comment):
        text = f"INSERT INTO tab (c, v, c) VALUES ({comment}1, 'x', 2)"
        assert (scan_insert(text) is None) == bool(comment)
        before = db.sql("SELECT COUNT(*) AS n FROM tab").scalar()
        with pytest.raises(BindError, match="'c' appears twice"):
            db.sql(text)
        assert db.sql("SELECT COUNT(*) AS n FROM tab").scalar() == before

    def test_delete_where(self, db):
        db.sql("DELETE FROM tab WHERE c = 3")
        assert db.sql("SELECT COUNT(*) AS n FROM tab").scalar() == 7

    def test_delete_all(self, db):
        db.sql("DELETE FROM tab")
        assert db.sql("SELECT COUNT(*) AS n FROM tab").scalar() == 0

    def test_dml_maintains_indexes(self, db):
        db.sql("CREATE PATCHINDEX pi ON tab(c) TYPE UNIQUE")
        before = db.sql("SELECT COUNT(DISTINCT c) AS n FROM tab").scalar()
        db.sql("INSERT INTO tab VALUES (1, 'dup', 0.0)")  # duplicates c=1
        after = db.sql("SELECT COUNT(DISTINCT c) AS n FROM tab").scalar()
        assert before == after == 6

    def test_date_columns(self):
        db = Database()
        db.sql("CREATE TABLE ev (d DATE, n BIGINT)")
        db.sql(
            "INSERT INTO ev VALUES (DATE '2020-01-01', 1), (DATE '2020-06-01', 2)"
        )
        result = db.sql("SELECT n FROM ev WHERE d > DATE '2020-03-01'")
        assert result.column("n").to_pylist() == [2]
        first = db.sql("SELECT d FROM ev ORDER BY d LIMIT 1")
        assert first.scalar() == dt.date(2020, 1, 1)


class TestExplain:
    def test_explain_statement(self, db):
        result = db.sql("EXPLAIN SELECT c FROM tab WHERE c > 1")
        assert result.column_names == ("plan",)
        assert "logical plan" in result.text()

    def test_explain_shows_rewrite(self):
        # A low exception rate, so the cost model accepts the rewrite.
        db = Database()
        db.sql("CREATE TABLE big (c BIGINT)")
        rows = ", ".join(f"({i})" for i in range(500))
        db.sql(f"INSERT INTO big VALUES {rows}")
        db.sql("INSERT INTO big VALUES (3)")  # one late arrival
        db.sql("CREATE PATCHINDEX pi ON big(c) TYPE SORTED")
        text = db.explain("SELECT c FROM big ORDER BY c")
        assert "MergeUnion" in text
        assert "exclude_patches" in text
        assert "use_patches" in text

    def test_explain_cost_model_gates_high_rates(self, db):
        # tab's column c is 44% disordered: the sort rewrite does not pay.
        db.sql("CREATE PATCHINDEX pi ON tab(c) TYPE SORTED")
        query = "SELECT c FROM tab ORDER BY c"
        forced = OptimizerOptions(always_rewrite=True)
        assert "MergeUnion" in db.explain(query, optimizer_options=forced)
        assert refused_sorts(db) == 0
        assert "MergeUnion" not in db.explain(query)
        assert refused_sorts(db) == 1
        db.explain(query)  # a plan-cache hit does not count again
        assert refused_sorts(db) == 1


def refused_sorts(db) -> int:
    return db.metrics().export()["counters"].get("plan.rewrite_refused.sort", 0)
