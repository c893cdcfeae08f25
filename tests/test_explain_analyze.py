"""EXPLAIN ANALYZE and query profiles: actuals and details."""

import pytest

from repro import Database, QueryProfile


@pytest.fixture
def db() -> Database:
    """Five rows, two of which are NUC patches on c (3 and the second 6)."""
    db = Database()
    db.sql("CREATE TABLE t (c BIGINT, v BIGINT)")
    db.sql("INSERT INTO t VALUES (1, 10), (3, 20), (3, 30), (6, 40), (6, 50)")
    db.sql("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
    return db


@pytest.fixture
def sorted_db() -> Database:
    """Nearly sorted 500-row column: the sort rewrite passes the cost
    model, so its plan carries *both* PatchSelect modes (MergeUnion of
    an exclude_patches scan and a use_patches sort)."""
    db = Database()
    db.sql("CREATE TABLE big (c BIGINT)")
    rows = ", ".join(f"({i})" for i in range(500))
    db.sql(f"INSERT INTO big VALUES {rows}")
    db.sql("INSERT INTO big VALUES (3)")
    db.sql("CREATE PATCHINDEX ps ON big(c) TYPE SORTED")
    return db


class TestExplainAnalyzeStatement:
    def test_returns_plan_rows_with_actuals(self, db):
        result = db.sql("EXPLAIN ANALYZE SELECT c FROM t WHERE c > 1")
        assert result.column_names == ("plan",)
        text = result.text()
        assert "== query profile ==" in text
        assert "actual rows=" in text
        assert "time=" in text
        assert isinstance(result.profile, QueryProfile)

    def test_actual_vs_estimated_cardinalities(self, db):
        text = db.sql("EXPLAIN ANALYZE SELECT c FROM t").text()
        # The scan sees all five rows, and the planner estimated them.
        assert "est~5" in text
        assert "actual rows=5" in text

    def test_exclude_patches_details(self, db):
        result = db.sql("EXPLAIN ANALYZE SELECT DISTINCT c FROM t")
        text = result.text()
        assert "mode=exclude_patches" in text
        assert "index=pi" in text
        assert "design=" in text
        nodes = result.profile.find("PatchSelect")
        assert nodes
        exclude = [
            n for n in nodes if n.details["mode"] == "exclude_patches"
        ][0]
        # Four patch tuples (both 3s and both 6s) out of 5 rows in.
        assert exclude.details["rows_in"] == 5
        assert exclude.details["patch_hits"] == 4
        assert exclude.rows == 1

    def test_patch_count_details(self, db):
        query = "SELECT COUNT(DISTINCT c) AS n FROM t"
        plain = db.explain(query)
        assert (
            "PatchCount(mode=exclude_patches, index=pi, table=t, "
            "covered=5, patches=4)" in plain
        )
        result = db.sql("EXPLAIN ANALYZE " + query)
        [count] = result.profile.find("PatchCount")
        assert count.details["mode"] == "exclude_patches"
        assert count.details["index"] == "pi"
        assert count.details["design"] == "bitmap"  # 4 of 5 rows
        assert count.details["covered_rows"] == 5
        assert count.details["patches"] == 4
        assert count.rows == 1
        # The use branch gathers only the four patches.
        [use] = result.profile.find("PatchSelect")
        assert use.details["mode"] == "use_patches"
        assert use.details["rows_in"] == use.details["patch_hits"] == 4
        [scan] = result.profile.find("TableScan")
        assert scan.rows == 4
        assert db.sql(query).scalar() == 3

    def test_both_modes_in_sort_rewrite(self, sorted_db):
        result = sorted_db.sql("EXPLAIN ANALYZE SELECT c FROM big ORDER BY c")
        text = result.text()
        assert "mode=exclude_patches" in text
        assert "mode=use_patches" in text
        assert "patch_hits=" in text
        modes = {
            node.details["mode"]
            for node in result.profile.find("PatchSelect")
        }
        assert modes == {"exclude_patches", "use_patches"}
        # Both branches partition the same scan: rows out sum to the table.
        assert (
            sum(n.rows for n in result.profile.find("PatchSelect")) == 501
        )

    def test_explain_without_analyze_has_no_actuals(self, db):
        result = db.sql("EXPLAIN SELECT c FROM t")
        assert "actual rows=" not in result.text()
        assert result.profile is None

    def test_explain_method_analyze_keyword(self, db):
        text = db.explain("SELECT c FROM t WHERE c > 3", analyze=True)
        assert "== query profile ==" in text
        assert "actual rows=2" in text


class TestProfileFlag:
    def test_profile_attaches_query_profile(self, db):
        result = db.sql("SELECT c FROM t WHERE c > 1", profile=True)
        assert isinstance(result.profile, QueryProfile)
        assert result.profile.total_seconds > 0
        scans = result.profile.find("TableScan")
        assert scans and scans[0].details["table"] == "t"
        assert scans[0].details["table_rows"] == 5

    def test_profile_off_by_default(self, db):
        assert db.sql("SELECT c FROM t").profile is None

    def test_profiled_results_match_unprofiled(self, sorted_db):
        query = "SELECT c FROM big ORDER BY c"
        plain = sorted_db.sql(query)
        profiled = sorted_db.sql(query, profile=True)
        assert plain.to_pylist() == profiled.to_pylist()
