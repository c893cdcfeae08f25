"""Metrics layer: instruments, registry, export, database integration."""

import json
import threading

import pytest

from repro import Database
from repro.obs import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_thread_safe_under_contention(self):
        counter = Counter("c")

        def bump():
            for __ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == 6.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0

    def test_empty_summary_has_no_infinities(self):
        assert Histogram("h").summary() == {"count": 0, "sum": 0.0}

    def test_bucket_counts(self):
        histogram = Histogram("h", buckets=(1.0, 4.0))
        for value in (0.5, 2.0, 100.0):
            histogram.observe(value)
        assert histogram.summary()["buckets"] == {"le_1": 1, "le_4": 1}
        # The overflow observation lives in the implicit +inf bucket.
        assert histogram.bucket_counts[-1] == 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_export_shape(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc(3)
        registry.gauge("ratio").set(0.5)
        registry.histogram("lat").observe(0.1)
        snapshot = registry.export()
        assert snapshot["counters"] == {"queries": 3}
        assert snapshot["gauges"] == {"ratio": 0.5}
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc()
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["queries"] == 1

    def test_to_text_prometheus_flavour(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc(2)
        registry.gauge("ratio").set(0.25)
        registry.histogram("lat").observe(1.5)
        lines = registry.to_text().splitlines()
        assert "queries_total 2" in lines
        assert "ratio 0.25" in lines
        assert "lat_count 1" in lines
        assert "lat_sum 1.5" in lines


@pytest.fixture
def db() -> Database:
    db = Database()
    db.sql("CREATE TABLE t (c BIGINT)")
    db.sql("INSERT INTO t VALUES (1), (2), (3), (3), (4)")
    return db


class TestDatabaseMetrics:
    def test_statement_counters(self, db):
        db.sql("SELECT c FROM t")
        counters = db.metrics().export()["counters"]
        assert counters["statements"] >= 3  # DDL + insert + select
        assert counters["statements.select"] == 1
        assert counters["statements.ddl"] == 1
        assert counters["statements.insert"] == 1
        assert counters["query.rows_returned"] == 5

    def test_an_insert_the_values_scan_declines_is_counted(self):
        db = Database()
        db.sql("CREATE TABLE t (k BIGINT, u BIGINT, s BIGINT, v BIGINT)")
        db.sql("CREATE TABLE e (k BIGINT, d DATE)")

        def fallbacks():
            counters = db.metrics().export()["counters"]
            return counters.get("fallback.insert_values_parse", 0)

        values = ", ".join(f"({k}, {k + 800}, {k}, {k % 997})" for k in range(100))
        db.sql(f"INSERT INTO t VALUES {values}")  # mixed_ingest's shape
        db.sql("SELECT COUNT(*) AS n FROM t WHERE k = 3")
        assert fallbacks() == 0
        db.sql("INSERT INTO e VALUES (1, DATE '2020-01-02')")
        assert fallbacks() == 1
        db.sql("INSERT INTO t VALUES (1, 2, 3, 4 -- one\n)")
        assert fallbacks() == 2
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 101

    def test_maintenance_counters(self, db):
        db.sql("INSERT INTO t VALUES (9)")
        db.sql("DELETE FROM t WHERE c = 2")
        counters = db.metrics().export()["counters"]
        assert counters["maintenance.appends"] == 2
        assert counters["maintenance.rows_appended"] == 6
        assert counters["maintenance.deletes"] == 1

    def test_patchindex_health_gauges(self, db):
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
        gauges = db.metrics().export()["gauges"]
        # Both occurrences of the duplicate 3 are patches (paper §IV-A).
        assert gauges["patchindex.pi.patch_count"] == 2
        assert gauges["patchindex.pi.patch_ratio"] == pytest.approx(0.4)
        # 40% exceptions vs the paper's 1/64 identifier/bitmap crossover.
        assert gauges["patchindex.pi.ratio_vs_crossover"] == pytest.approx(
            0.4 * 64
        )
        assert gauges["patchindex.pi.rebuilds"] == 0

    def test_profiled_query_metrics(self, db):
        db.sql("SELECT c FROM t WHERE c > 1", profile=True)
        exported = db.metrics().export()
        assert exported["counters"]["query.profiled"] == 1
        assert exported["histograms"]["query.seconds"]["count"] == 1

    def test_unprofiled_query_records_no_profile_metrics(self, db):
        db.sql("SELECT c FROM t")
        counters = db.metrics().export()["counters"]
        assert "query.profiled" not in counters

    def test_registries_are_per_database(self, db):
        other = Database()
        other.sql("CREATE TABLE u (x BIGINT)")
        assert "statements.select" not in other.metrics().export()["counters"]
