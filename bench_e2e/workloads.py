"""The five workloads: data, statements and expected answers from a seed.

Each workload stresses a different layer of the served path (see
``README.md``).  Statement *counts* are fixed by ``--seconds`` and the
``rate`` measured at the seed commit, never by a timer, so cache hits,
WAL bytes and patch counts repeat exactly for a seed; a faster engine
finishes the same statements sooner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracle
import repro
from repro.gen.synthetic import sorted_with_exceptions, unique_with_exceptions

ROUNDS = 6

_BOTH_INDEXES = (("pi_u", "u", "UNIQUE"), ("pi_s", "s", "SORTED"))


@dataclass(frozen=True)
class Statement:
    """One request: which socket sends it, its text, the reply it must get."""

    socket: str  # "R" or "W"; one thread drives both, in sequence
    sql: str
    expected: oracle.Columns | None  # None: only the acknowledgement is checked
    kind: str = "read"  # "read" | "read_after_write" | "write"


def _load(database, name: str, columns: dict[str, np.ndarray], partitions: int):
    table = database.create_table(
        name,
        repro.Schema(repro.Field(column, repro.DataType.INT64) for column in columns),
        partition_count=partitions,
    )
    table.load_columns(
        {
            column: repro.ColumnVector(repro.DataType.INT64, values)
            for column, values in columns.items()
        }
    )


class Workload:
    """Base: one table ``t`` (plus extras), built from ``(seed, rows)``."""

    name = ""
    #: Units (statements, or cycles for ``mixed_ingest``) the seed commit
    #: completes per second on the reference box; sets round lengths.
    rate = 1.0
    base_rows = 0
    indexes: tuple[tuple[str, str, str], ...] = ()
    server_env: dict[str, str] = {}

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.rows = max(2_000, int(self.base_rows * scale))
        self.tables: dict[str, dict[str, np.ndarray]] = {}

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def units_per_round(self, seconds: float) -> int:
        return max(3, round(self.rate * seconds / ROUNDS))

    def generate(self) -> None:
        """Fill ``self.tables`` (and reset any model) from the seed."""
        raise NotImplementedError

    def build(self, database, span) -> None:
        """Load the generated tables and create the PatchIndexes; *span*
        is ``Tracer.span`` on a traced run, ``nullcontext`` otherwise."""
        with span("storage.load"):
            for name, columns in self.tables.items():
                _load(database, name, columns, 4 if name == "t" else 1)
        for index, column, kind in self.indexes:
            with span(f"core.discovery.{kind.lower()}"):
                database.sql(
                    f"CREATE PATCHINDEX {index} ON t({column}) TYPE {kind}"
                )

    def warmup(self) -> list[Statement]:
        """The fixed script a set-up must answer before it counts as done."""
        return self.round(-1, 3) + [self.check()]

    def round(self, index: int, units: int) -> list[Statement]:
        raise NotImplementedError

    def check(self) -> Statement:
        """Row count and per-column checksum: the post-crash check query."""
        columns = tuple(self.tables["t"].values())
        sums = ", ".join(f"SUM({name}) AS s_{name}" for name in self.tables["t"])
        return Statement(
            "R", f"SELECT COUNT(*) AS n, {sums} FROM t", oracle.checksum(columns)
        )

    def live_rows(self) -> int:
        """Rows of ``t`` after every acknowledged write."""
        return len(self.tables["t"]["k"])

    def user_bytes(self) -> int:
        """Live rows x columns x 8 over every table."""
        dimension = sum(
            len(columns["dk"]) * len(columns) * 8
            for name, columns in self.tables.items()
            if name != "t"
        )
        return self.live_rows() * len(self.tables["t"]) * 8 + dimension

    def _t(self, seed_offset: int, names: str) -> dict[str, np.ndarray]:
        """Columns of ``t``: k ascending key, u nearly unique, s nearly
        sorted (1 % exceptions each, as in the paper's §VII sweep), v payload."""
        makers = {
            "k": lambda: np.arange(self.rows, dtype=np.int64),
            "u": lambda: unique_with_exceptions(
                self.rows, 0.01, seed=self.seed * 7 + seed_offset
            ).values,
            "s": lambda: sorted_with_exceptions(
                self.rows, 0.01, seed=self.seed * 7 + seed_offset + 1
            ).values,
            "v": lambda: self._rng(seed_offset).integers(
                0, 1_000, size=self.rows, dtype=np.int64
            ),
        }
        return {name: makers[name]() for name in names}


class PointReads(Workload):
    """1000-row range aggregates with varying literals over a cached table:
    execution is microseconds, so what is measured is the per-statement
    tax — wire, parse, bind, optimize, verify, plan, snapshot pin."""

    name = "point_reads"
    rate = 450.0
    base_rows = 200_000

    def generate(self) -> None:
        self.tables = {"t": self._t(10, "kv")}

    def round(self, index: int, units: int) -> list[Statement]:
        t = self.tables["t"]
        width = min(1_000, self.rows // 2)
        lows = self._rng(11, index + 1).integers(0, self.rows - width, size=units)
        return [
            Statement(
                "R",
                f"SELECT COUNT(*) AS n, SUM(v) AS x FROM t "
                f"WHERE k BETWEEN {low} AND {low + width - 1}",
                oracle.count_sum_where_between(
                    t["k"], t["v"], low, low + width - 1
                ),
            )
            for low in lows.tolist()
        ]


class PatchAnalytics(Workload):
    """The paper's distinct, sort and join rewrites, fixed text, one-row
    results: wire and planning are negligible; PatchSelect, aggregate,
    sort, merge and join operators do the work."""

    name = "patch_analytics"
    rate = 72.0
    base_rows = 300_000
    indexes = _BOTH_INDEXES

    QUERIES = (
        "SELECT COUNT(DISTINCT u) AS n FROM t",
        "SELECT COUNT(*) AS n FROM (SELECT s FROM t ORDER BY s) AS x",
        "SELECT COUNT(*) AS n, SUM(d.w) AS sw FROM t JOIN d ON t.s = d.dk",
    )

    def generate(self) -> None:
        t = self._t(20, "kusv")
        rng = self._rng(21)
        dimension = self.rows // 20
        d = {
            "dk": np.sort(rng.choice(self.rows, size=dimension, replace=False)),
            "w": rng.integers(0, 100, size=dimension, dtype=np.int64),
        }
        self.tables = {"t": t, "d": d}
        self._expected = (
            oracle.distinct_count(t["u"]),
            oracle.sorted_count(t["s"]),
            oracle.join_count_sum(t["s"], d["dk"], d["w"]),
        )

    def units_per_round(self, seconds: float) -> int:
        return 3 * max(1, round(self.rate * seconds / ROUNDS / 3))

    def round(self, index: int, units: int) -> list[Statement]:
        return [
            Statement("R", self.QUERIES[unit % 3], self._expected[unit % 3])
            for unit in range(units)
        ]


class ColdScan(Workload):
    """Half-table aggregates behind a block cache a sixth of the decoded
    table: block decode and cache churn in storage pay, under the same
    operators as ``point_reads``."""

    name = "cold_scan"
    rate = 7.0
    base_rows = 400_000
    server_env = {"REPRO_CACHE_BYTES": str(2 * 1024 * 1024)}

    def generate(self) -> None:
        self.tables = {"t": self._t(30, "kusv")}

    def round(self, index: int, units: int) -> list[Statement]:
        t = self.tables["t"]
        width = self.rows // 2
        lows = self._rng(31, index + 1).integers(0, self.rows - width, size=units)
        return [
            Statement(
                "R",
                f"SELECT COUNT(*) AS n, SUM(v) AS x, MAX(u) AS m FROM t "
                f"WHERE s BETWEEN {low} AND {low + width}",
                oracle.count_sum_max_where_between(
                    t["s"], t["v"], t["u"], low, low + width
                ),
            )
            for low in lows.tolist()
        ]


class BulkFetch(Workload):
    """A tenth of a cached table, three INT64 columns, back to the client:
    ``result_to_wire``, JSON and ``result_from_wire`` dominate."""

    name = "bulk_fetch"
    rate = 9.5
    base_rows = 500_000

    def generate(self) -> None:
        self.tables = {"t": self._t(40, "kuv")}

    def round(self, index: int, units: int) -> list[Statement]:
        t = self.tables["t"]
        width = self.rows // 10
        lows = self._rng(41, index + 1).integers(0, self.rows - width, size=units)
        return [
            Statement(
                "R",
                f"SELECT k, u, v FROM t WHERE k BETWEEN {low} AND {low + width - 1}",
                oracle.fetch_where_between(
                    (t["k"], t["u"], t["v"]), t["k"], low, low + width - 1
                ),
            )
            for low in lows.tolist()
        ]


class MixedIngest(Workload):
    """Inserts, deletes and checkpoints on socket W between point and
    distinct reads on socket R, one thread driving both in sequence: a
    read-path gain paid for on the write path shows here."""

    name = "mixed_ingest"
    rate = 10.0  # cycles per second; a cycle is 1 insert + 3 reads (+ delete)
    base_rows = 200_000
    indexes = _BOTH_INDEXES

    BATCH = 100
    DELETE_EVERY = 10
    DELETE_ROWS = 50

    def units_per_round(self, seconds: float) -> int:
        # Whole delete periods, so every round holds the same heavy events:
        # one checkpoint, and one delete per ten cycles.
        periods = max(1, round(self.rate * seconds / ROUNDS / self.DELETE_EVERY))
        return periods * self.DELETE_EVERY

    def generate(self) -> None:
        t = self._t(50, "kusv")
        self.tables = {"t": t}
        self.model = oracle.IngestModel(t["k"], t["u"], t["s"], t["v"])
        self._cycle = 0

    def warmup(self) -> list[Statement]:
        # Read-only: a warm-up that wrote would change what the rounds see.
        t = self.tables["t"]
        return [
            Statement("R", "SELECT COUNT(DISTINCT u) AS n FROM t", self.model.distinct_u()),
            Statement(
                "R",
                "SELECT COUNT(*) AS n, SUM(v) AS x FROM t WHERE k BETWEEN 0 AND 999",
                oracle.count_sum_where_between(t["k"], t["v"], 0, 999),
            ),
            self.check(),
        ]

    def _batch(self, cycle: int, rng: np.random.Generator) -> list[tuple]:
        """100 new rows: k and s continue ascending, u fresh, with one
        uniqueness and one sortedness exception per batch (1 %)."""
        start = self.rows + cycle * self.BATCH
        keys = np.arange(start, start + self.BATCH, dtype=np.int64)
        u = keys + 4 * self.rows
        s = keys.copy()
        v = rng.integers(0, 1_000, size=self.BATCH, dtype=np.int64)
        u[int(rng.integers(self.BATCH))] = self.rows  # first duplicate group
        s[int(rng.integers(self.BATCH))] = int(rng.integers(self.rows))
        return list(zip(keys.tolist(), u.tolist(), s.tolist(), v.tolist()))

    def round(self, index: int, units: int) -> list[Statement]:
        rng = self._rng(51, index + 1)
        statements: list[Statement] = []
        for position in range(units):
            cycle = self._cycle
            self._cycle += 1
            rows = self._batch(cycle, rng)
            self.model.insert(rows)
            values = ", ".join(f"({k}, {u}, {s}, {v})" for k, u, s, v in rows)
            statements.append(
                Statement(
                    "W",
                    f"INSERT INTO t VALUES {values}",
                    oracle.message(f"{self.BATCH} rows inserted"),
                    "write",
                )
            )
            key = rows[0][0] + int(rng.integers(self.BATCH - 5))
            for probe, kind in ((key, "read_after_write"), (key + 5, "read")):
                statements.append(
                    Statement(
                        "R",
                        f"SELECT k, u, s, v FROM t WHERE k = {probe}",
                        self.model.point(probe),
                        kind,
                    )
                )
            statements.append(
                Statement(
                    "R", "SELECT COUNT(DISTINCT u) AS n FROM t", self.model.distinct_u()
                )
            )
            if cycle % self.DELETE_EVERY == self.DELETE_EVERY - 1:
                low = self.rows + (cycle - self.DELETE_EVERY + 1) * self.BATCH
                high = low + self.DELETE_ROWS - 1
                removed = self.model.delete_between(low, high)
                statements.append(
                    Statement(
                        "W",
                        f"DELETE FROM t WHERE k BETWEEN {low} AND {high}",
                        oracle.message(f"{removed} rows deleted"),
                        "write",
                    )
                )
            if position == units // 2:
                statements.append(Statement("W", "CHECKPOINT", None, "write"))
        return statements

    def check(self) -> Statement:
        return Statement(
            "R",
            "SELECT COUNT(*) AS n, SUM(k) AS s_k, SUM(u) AS s_u, "
            "SUM(s) AS s_s, SUM(v) AS s_v FROM t",
            self.model.checksum(),
        )

    def live_rows(self) -> int:
        return self.model.rows


WORKLOADS: tuple[type[Workload], ...] = (
    PointReads,
    PatchAnalytics,
    ColdScan,
    BulkFetch,
    MixedIngest,
)
