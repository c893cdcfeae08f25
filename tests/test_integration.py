"""Integration tests: full workflows across all subsystems.

These mirror how a downstream user would drive the library: load
realistic data, run the self-managing advisor, verify that queries get
faster plans with identical results, mutate the data, and recover after
a crash.
"""

import numpy as np
import pytest

from repro import Database
from repro.core.advisor import ConstraintAdvisor
from repro.gen.synthetic import synthetic_table
from repro.gen.tpcds import TpcdsGenerator, load_tpcds
from repro.plan.optimizer import OptimizerOptions


class TestAdvisorToQueryPipeline:
    def test_full_self_management_cycle(self):
        db = Database()
        table = synthetic_table(
            "data", 5000, 0.02, 0.02, partition_count=2, seed=11
        )
        db.catalog.add_table(table)
        # Log retroactively so recovery tests elsewhere stay simple.
        baseline_distinct = db.sql("SELECT COUNT(DISTINCT u) AS n FROM data")
        baseline_sort = db.sql("SELECT s FROM data ORDER BY s")

        advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.05)
        created = advisor.run()
        assert created  # something was proposed and created

        rewritten_distinct = db.sql("SELECT COUNT(DISTINCT u) AS n FROM data")
        rewritten_sort = db.sql("SELECT s FROM data ORDER BY s")
        assert rewritten_distinct.scalar() == baseline_distinct.scalar()
        assert (
            rewritten_sort.column("s").to_pylist()
            == baseline_sort.column("s").to_pylist()
        )
        assert "PatchSelect" in db.explain("SELECT COUNT(DISTINCT u) AS n FROM data")


class TestTpcdsWorkload:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        load_tpcds(db, catalog_sales_rows=20_000, customer_rows=5_000, n_days=730)
        db.sql(
            "CREATE PATCHINDEX pi_sold ON catalog_sales(cs_sold_date_sk) TYPE SORTED"
        )
        db.sql(
            "CREATE PATCHINDEX pi_email ON customer(c_email_address) TYPE UNIQUE"
        )
        return db

    def test_join_rewrite_correctness(self, db):
        query = (
            "SELECT COUNT(*) AS n, SUM(cs.cs_quantity) AS q "
            "FROM catalog_sales cs JOIN date_dim d "
            "ON cs.cs_sold_date_sk = d.d_date_sk"
        )
        with_index = db.sql(query)
        without_index = db.sql(
            query, optimizer_options=OptimizerOptions(use_patch_indexes=False)
        )
        assert with_index.to_pylist() == without_index.to_pylist()
        assert "MergeJoin" in db.explain(query)

    def test_count_distinct_rewrite_correctness(self, db):
        query = "SELECT COUNT(DISTINCT c_email_address) AS n FROM customer"
        baseline = db.sql(
            query, optimizer_options=OptimizerOptions(use_patch_indexes=False)
        )
        assert db.sql(query).scalar() == baseline.scalar()

    def test_filtered_join_with_scan_ranges(self, db):
        query = (
            "SELECT COUNT(*) AS n FROM catalog_sales cs "
            "JOIN date_dim d ON cs.cs_sold_date_sk = d.d_date_sk "
            "WHERE d.d_year = 1998"
        )
        result = db.sql(query)
        assert result.scalar() > 0


class TestMutationsWithLiveIndexes:
    def test_insert_update_delete_with_all_rewrites(self):
        db = Database()
        db.sql("CREATE TABLE t (k BIGINT, s BIGINT) PARTITIONS 2")
        rows = ", ".join(f"({i}, {i})" for i in range(100))
        db.sql(f"INSERT INTO t VALUES {rows}")
        db.sql("CREATE PATCHINDEX pk ON t(k) TYPE UNIQUE")
        db.sql("CREATE PATCHINDEX ps ON t(s) TYPE SORTED")

        db.sql("INSERT INTO t VALUES (50, 200), (200, 0)")  # dup k=50; s=0 unsorted
        db.sql("DELETE FROM t WHERE k = 10")
        db.table("t").update_rowid(5, "k", 6)  # duplicate k=6

        count_distinct = db.sql("SELECT COUNT(DISTINCT k) AS n FROM t").scalar()
        ordered = db.sql("SELECT s FROM t ORDER BY s").column("s").to_pylist()

        # Reference: recompute without any indexes.
        keys = db.sql("SELECT k FROM t").column("k").to_pylist()
        sorts = db.sql("SELECT s FROM t").column("s").to_pylist()
        assert count_distinct == len(set(key for key in keys if key is not None))
        assert ordered == sorted(sorts)


class TestCrashRecovery:
    def test_wal_recovery_end_to_end(self, tmp_path):
        path = tmp_path / "data"
        generator = TpcdsGenerator(seed=9)

        db = Database(path=path, sync=False)
        customer = db.create_table(
            "customer", generator.customer_schema(), partition_count=2
        )
        customer.load_columns(generator.customer(2000))
        db.sql("CREATE PATCHINDEX pi ON customer(c_email_address) TYPE UNIQUE")
        expected = db.sql(
            "SELECT COUNT(DISTINCT c_email_address) AS n FROM customer"
        ).scalar()
        original = db.catalog.index("pi")
        original_rowids = original.rowids().tolist()
        original_design = original.design
        db.close()

        # "Crash" before the first checkpoint: the WAL holds the data and
        # the index definition, never its patches, so the reopen replays
        # the data and re-discovers the index from it (paper §V).
        recovered = Database(path=path, sync=False)
        gauges = recovered.metrics().export()["gauges"]
        assert gauges["recovery.indexes_rebuilt"] == 1
        assert gauges["recovery.indexes_restored"] == 0
        index = recovered.catalog.index("pi")
        assert index.rowids().tolist() == original_rowids
        assert index.design == original_design
        got = recovered.sql(
            "SELECT COUNT(DISTINCT c_email_address) AS n FROM customer"
        ).scalar()
        assert got == expected


class TestMultipleIndexesPerTable:
    def test_paper_key_claim_multiple_sort_keys(self):
        """The paper's §VI-A1 claim: because the physical layout is
        untouched, one table can have several (approximate) sort keys."""
        db = Database()
        db.sql("CREATE TABLE m (a BIGINT, b BIGINT, c BIGINT)")
        n = 500
        rng = np.random.default_rng(13)
        a = np.arange(n)
        a[rng.choice(n, 5, replace=False)] = rng.integers(0, n, 5)
        b = np.arange(n) * 2
        b[rng.choice(n, 5, replace=False)] = rng.integers(0, 2 * n, 5)
        rows = ", ".join(
            f"({int(x)}, {int(y)}, {int(rng.integers(0, 10))})"
            for x, y in zip(a, b)
        )
        db.sql(f"INSERT INTO m VALUES {rows}")
        db.sql("CREATE PATCHINDEX ia ON m(a) TYPE SORTED")
        db.sql("CREATE PATCHINDEX ib ON m(b) TYPE SORTED")
        # Both sort rewrites fire on the same physical table.
        assert "MergeUnion" in db.explain("SELECT a FROM m ORDER BY a")
        assert "MergeUnion" in db.explain("SELECT b FROM m ORDER BY b")
        got_a = db.sql("SELECT a FROM m ORDER BY a").column("a").to_pylist()
        got_b = db.sql("SELECT b FROM m ORDER BY b").column("b").to_pylist()
        assert got_a == sorted(a.tolist())
        assert got_b == sorted(b.tolist())
