"""Unit tests for the self-management advisor."""

import numpy as np

from repro import Database
from repro.core.advisor import ConstraintAdvisor
from repro.core.constraints import ConstraintKind
from repro.core.discovery import discover_table_nsc
from repro.gen.synthetic import sorted_with_exceptions
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType


def make_db(n=2000, seed=3, path=None) -> Database:
    """A table with a clean NUC candidate, a clean NSC candidate and a
    hopeless column (in a durable directory at *path*, if given)."""
    rng = np.random.default_rng(seed)
    unique = rng.permutation(n).astype(np.int64)
    unique[:10] = 0  # ten duplicates -> 0.5% exceptions
    nearly_sorted = np.arange(n, dtype=np.int64)
    nearly_sorted[rng.choice(n, 20, replace=False)] = rng.integers(0, n, 20)
    noise = rng.integers(0, 3, n).astype(np.int64)  # 3 values: hopeless
    db = Database(path=path, sync=False)
    schema = Schema(
        [
            Field("u", DataType.INT64),
            Field("s", DataType.INT64),
            Field("noise", DataType.INT64),
        ]
    )
    table = db.create_table("data", schema, partition_count=2)
    table.load_columns(
        {
            "u": ColumnVector(DataType.INT64, unique),
            "s": ColumnVector(DataType.INT64, nearly_sorted),
            "noise": ColumnVector(DataType.INT64, noise),
        }
    )
    return db


class TestAnalysis:
    def test_finds_both_constraint_kinds(self):
        db = make_db()
        advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.05)
        proposals = advisor.analyze_table("data")
        found = {(p.column_name, p.kind) for p in proposals}
        assert ("u", ConstraintKind.UNIQUE) in found
        assert ("s", ConstraintKind.SORTED) in found
        assert all(p.column_name != "noise" for p in proposals)

    def test_proposals_ranked_by_rate(self):
        db = make_db()
        advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.05)
        proposals = advisor.analyze_all()
        assert len(proposals) >= 2
        rates = [p.exception_rate for p in proposals]
        assert rates == sorted(rates)

    def test_proposal_metadata(self):
        db = make_db()
        advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.05)
        proposals = advisor.analyze_table("data", columns=["u"])
        (proposal,) = [p for p in proposals if p.kind == ConstraintKind.UNIQUE]
        assert proposal.recommended_design == "identifier"  # 0.5% < 1/64
        assert "data.u" in proposal.describe()
        assert proposal.index_name == "pidx_data_u_nuc"

    def test_empty_table_no_proposals(self):
        db = Database()
        db.create_table("empty", Schema([Field("x", DataType.INT64)]))
        advisor = ConstraintAdvisor(db)
        assert advisor.analyze_table("empty") == []


def disordered_db(rate: float, n: int = 20_000) -> Database:
    """One ascending column with *rate* of its rows overwritten."""
    db = Database()
    table = db.create_table("d", Schema([Field("s", DataType.INT64)]))
    table.load_columns({"s": sorted_with_exceptions(n, rate, seed=9)})
    return db


def nsc_proposals(db: Database, **thresholds) -> list:
    return [
        p
        for p in ConstraintAdvisor(db, **thresholds).analyze_table("d")
        if p.kind == ConstraintKind.SORTED
    ]


class TestBreakevenGate:
    """The advisor proposes an index only where the optimizer's rewrite
    gate would use it."""

    def test_a_five_percent_nsc_is_proposed_at_default_thresholds(self):
        (proposal,) = nsc_proposals(disordered_db(0.05))
        assert 0.04 < proposal.exception_rate < 0.06

    def test_an_nsc_above_the_sort_breakeven_is_not_proposed(self):
        db = disordered_db(0.2)
        assert nsc_proposals(db, nsc_threshold=0.3) == []
        # The threshold alone would have let it through.
        assert 0.15 < discover_table_nsc(db.table("d"), "s").exception_rate <= 0.3


class TestSamplingPrefilter:
    def test_sampling_prunes_hopeless_columns(self):
        db = make_db(n=5000)
        advisor = ConstraintAdvisor(
            db, nuc_threshold=0.05, nsc_threshold=0.05, sample_rows=500
        )
        proposals = advisor.analyze_table("data")
        assert all(p.column_name != "noise" for p in proposals)
        # Good candidates still pass the sample filter.
        assert {p.column_name for p in proposals} == {"u", "s"}

    def test_sampling_disabled(self):
        db = make_db()
        advisor = ConstraintAdvisor(
            db, nuc_threshold=0.05, nsc_threshold=0.05, sample_rows=None
        )
        assert {p.column_name for p in advisor.analyze_table("data")} == {"u", "s"}


class TestApply:
    def test_apply_creates_indexes_via_ddl(self, tmp_path):
        db = make_db(path=tmp_path / "db")
        advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.05)
        created = advisor.run()
        # The nearly sorted column is also nearly unique (its few random
        # overwrites rarely collide), so it may earn both index kinds.
        assert {"pidx_data_u_nuc", "pidx_data_s_nsc"} <= set(created)
        assert db.catalog.find_index("data", "u", "unique") is not None
        assert db.catalog.find_index("data", "s", "sorted") is not None
        # Creation was WAL-logged like user DDL.
        kinds = [record.kind for record in db.wal.records()]
        assert kinds.count("create_index") == len(created)

    def test_apply_skips_existing(self):
        db = make_db()
        advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.05)
        advisor.run()
        assert advisor.run() == []
