"""The traced pass: where a served statement's time goes, layer by layer.

``run.py --trace 1`` is a separate, shorter run; end-to-end numbers
never come from it.  Spans are recorded here, around the calls into
each layer's public functions — nothing inside ``src/repro`` is
instrumented — kept in memory and written once to ``out/trace.json``.
A layer is a module under ``src/repro``; a span's self time is its
duration minus its children's.

One traced workload goes through these steps:

1. set-up with spans (generate, load, discovery, checkpoint), served;
2. two rounds' statements over the socket: client-observed tails and
   server counters;
3. SIGKILL, then ``repro.connect(path)`` in-process (engine recovery
   without the interpreter start that ``recovery_s`` also pays);
4. a seeded sample (a quarter round) of the next round, staged call by
   call — frame encode, snapshot pin, parse, bind, optimize, plan,
   verify, collect, result to wire and back — beside the same statement
   un-staged, through a ``Session`` and with ``QueryProfile`` on;
5. what the gated numbers leave out on purpose: ``parallelism=2``
   against serial, a cache-less handle against a warm one, and a reader
   truly concurrent with a 200-insert writer on a re-served directory.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import harness
import oracle
import repro
from repro.check.plan_verifier import verify_plan
from repro.errors import ReproError
from repro.exec.parallel import shutdown_process_pool
from repro.exec.result import collect
from repro.plan.optimizer import Optimizer
from repro.plan.physical import PhysicalPlanner
from repro.serve import ServerClient
from repro.serve.protocol import (
    decode_body,
    encode_frame,
    result_from_wire,
    result_to_wire,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement

PROBE_INSERTS = 200

#: The staged spans that together redo one ``Database.sql`` call.
_SQL_STAGES = frozenset(
    ("sql.parse", "sql.bind", "plan.optimize", "plan.physical",
     "check.verify", "exec.collect")
)

#: QueryProfile operator types behind each ``exec.*_ms`` metric.
_OPERATOR_CLASSES = {
    "exec.scan_ms": ("TableScan",),
    "exec.patch_select_ms": ("PatchSelect",),
    "exec.aggregate_ms": ("HashAggregate", "Distinct"),
    "exec.sort_ms": ("Sort", "TopN"),
    "exec.merge_union_ms": ("MergeUnion",),
    "exec.join_ms": ("MergeJoin", "HashJoin"),
}

class Tracer:
    """In-memory spans: name, start, end, parent span, statement id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.statement: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "statement": self.statement,
            "start": time.perf_counter(),
            "end": 0.0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the children's."""
        totals: dict[str, float] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration
            if span["parent"] is not None:
                parent = self.spans[span["parent"]]["name"]
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _timed(call) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _server_metrics(client: ServerClient) -> dict[str, float]:
    """The server registry's counters and gauges, flattened."""
    exported = json.loads(client.metrics().to_json())
    return {**exported["counters"], **exported["gauges"]}


class TracedRun(harness.WorkloadRun):
    """One workload's traced pass; see the module docstring for the steps."""

    def __init__(self, cls, seed: int, seconds: float, scale: float, root: Path):
        super().__init__(cls, seed, seconds, scale, root)
        self.tracer = Tracer()
        #: Every declared per-layer metric; 0 where a workload has no such work.
        self.metrics = {m["name"]: 0.0 for m in harness.MANIFEST["per_layer"]}

    def run(self) -> dict:
        try:
            self.set_up(0, self.tracer)
            self._record_set_up()
            self._served_round()
            self.crash()
            self._in_process()
            self.serve()
            self._concurrent_probe()
        finally:
            self.close()
        return {
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "statements_per_round": self.statements,
            "live_rows": self.workload.live_rows(),
            "self_time_s": self.tracer.self_times(),
        }

    # -- 1: set-up ----------------------------------------------------------

    def _record_set_up(self) -> None:
        tracer, m = self.tracer, self.metrics
        m["gen.generate_s"] = tracer.total("gen.generate")
        m["storage.load_s"] = tracer.total("storage.load")
        m["storage.checkpoint_s"] = tracer.total("storage.checkpoint")
        m["core.discovery_nuc_s"] = tracer.total("core.discovery.unique")
        m["core.discovery_nsc_s"] = tracer.total("core.discovery.sorted")
        segments = self.directory / "segments"
        m["storage.segment_bytes"] = sum(
            f.stat().st_size for f in segments.rglob("*.seg")
        )
        m["storage.patches_bytes"] = sum(
            f.stat().st_size for f in segments.rglob("patches.json")
        )

    # -- 2: one served round ------------------------------------------------

    def _served_round(self) -> None:
        m = self.metrics
        before = _server_metrics(self.clients["R"])
        statements = self.workload.round(0, 2 * self.units)
        self.statements = len(statements)
        speed = harness.Speedometer()
        latencies = self.drive(statements, speed)
        speed.sample()
        m["trace.speed_factor"] = statistics.median(speed.factors)
        after = _server_metrics(self.clients["R"])
        cache = self.clients["R"].cache_stats() or {}

        def moved(name: str) -> float:
            return after.get(name, 0) - before.get(name, 0)

        everything = [v for values in latencies.values() for v in values]
        reads = [
            v for kind, values in latencies.items() if kind != "write" for v in values
        ]
        self._served_read_p50_s = statistics.median(reads)
        m["serve.latency_samples"] = len(everything)
        m["serve.p95_ms"] = _percentile(everything, 0.95) * 1e3
        m["serve.p99_ms"] = _percentile(everything, 0.99) * 1e3
        m["serve.max_ms"] = max(everything) * 1e3
        m["serve.write_p50_ms"] = _median_ms(latencies.get("write", []))
        m["serve.read_after_write_p50_ms"] = _median_ms(
            latencies.get("read_after_write", [])
        )
        fsyncs = moved("wal.group_commit.batches")
        m["storage.wal.fsyncs"] = fsyncs
        m["serve.statements_per_fsync"] = (
            len(latencies.get("write", [])) / fsyncs if fsyncs else 0.0
        )
        m["storage.wal.bytes"] = moved("wal.bytes")
        m["storage.wal.records"] = moved("wal.records")
        written = sum(  # one "(" per inserted row, 8 bytes per column
            s.sql.count("(") * 8 * len(self.workload.tables["t"])
            for s in statements
            if s.sql.startswith("INSERT")
        )
        m["storage.wal.bytes_per_user_byte"] = (
            m["storage.wal.bytes"] / written if written else 0.0
        )
        m["storage.checkpoint.count"] = moved("checkpoint.count")
        for name in ("builds", "advances", "reuses"):
            m[f"storage.snapshot.{name}"] = moved(f"storage.snapshot.{name}")
        m["core.maintenance.delta_records"] = moved("wal.patch_records")
        m["core.maintenance.rebuilds"] = moved("maintenance.rebuilds_run")
        for name in ("hit_ratio", "misses", "evictions", "skip_count"):
            m[f"storage.cache.{name}"] = cache.get(name, 0)
        m["storage.encoded_ratio"] = after.get("storage.t.encoded_ratio", 0.0)
        m["core.patch_rate_nuc"] = after.get("patchindex.pi_u.patch_ratio", 0.0)
        m["core.patch_rate_nsc"] = after.get("patchindex.pi_s.patch_ratio", 0.0)
        m["core.drift_rate"] = max(
            [v for k, v in after.items() if k.endswith(".drift_rate")], default=0.0
        )

    # -- 3 and 4: in-process ------------------------------------------------

    def _in_process(self) -> None:
        tracer, m = self.tracer, self.metrics
        cache = self.workload.server_env.get("REPRO_CACHE_BYTES")
        with tracer.span("storage.recover_open"):
            database = repro.connect(  # the cache the server ran with
                self.directory, parallelism=1,
                cache_bytes=int(cache) if cache else None,
            )
        try:
            m["storage.recover_open_s"] = tracer.total("storage.recover_open")
            gauges = database.metrics().export()["gauges"]
            for name in ("indexes_restored", "indexes_rebuilt", "delta_records_replayed"):
                m[f"storage.recovery.{name}"] = gauges.get(f"recovery.{name}", 0)
            sample = self.workload.round(1, max(3, self.units // 4))
            reads = [s for s in sample if s.socket == "R"]
            self._staged_pass(database, sample)
            self._reference_pass(database, reads)
            self._parallel_ratio(database, reads[:6])
        finally:
            database.close()
        self._decode_cost(reads[:4])

    def _staged_pass(self, database, sample) -> None:
        """Redo each sampled read call by call, as the server and the
        client would, one span per layer boundary, beside one un-staged
        ``Database.sql`` call of the same text (which goes first
        alternates, so neither side always finds the blocks warm).
        Writes run un-staged, so the reads after them see what they
        would see when served."""
        tracer = self.tracer
        response_bytes, plain, ratios = [], [], []
        for number, statement in enumerate(sample):
            self.attempted += 1
            tracer.statement = number
            if statement.socket == "W":
                with tracer.span("write"):
                    database.sql(statement.sql)
                continue
            if number % 2 == 0:
                plain.append(_timed(lambda: database.sql(statement.sql)))
            first = len(tracer.spans)
            with tracer.span("statement"):
                with tracer.span("serve.request_encode"):
                    frame = encode_frame(
                        {"op": "sql", "text": statement.sql,
                         "parallelism": None, "profile": False}
                    )
                with tracer.span("serve.request_decode"):
                    text = decode_body(frame[4:])["text"]
                with tracer.span("serve.snapshot_pin"):
                    view = database.snapshot()
                try:
                    with tracer.span("sql.parse"):
                        select = parse_statement(text)
                    with tracer.span("sql.bind"):
                        logical = Binder(view.catalog).bind_select(select)
                    with tracer.span("plan.optimize"):
                        optimized = Optimizer(view.catalog).optimize(logical)
                    with tracer.span("plan.physical"):
                        operator = PhysicalPlanner(
                            parallelism=1, backend="thread",
                            database=view, verify=False,
                        ).plan(optimized)
                    with tracer.span("check.verify"):
                        verify_plan(operator)
                    with tracer.span("exec.collect"):
                        result = collect(operator)
                finally:
                    view.close()
                with tracer.span("serve.result_to_wire"):
                    reply = encode_frame({"result": result_to_wire(result)})
                with tracer.span("serve.result_from_wire"):
                    rebuilt = result_from_wire(decode_body(reply[4:])["result"])
            if number % 2 == 1:
                plain.append(_timed(lambda: database.sql(statement.sql)))
            staged = sum(
                span["end"] - span["start"]
                for span in tracer.spans[first:]
                if span["name"] in _SQL_STAGES
            )
            ratios.append(staged / plain[-1])
            response_bytes.append(len(reply))
            if not oracle.matches(rebuilt, statement.expected):
                self.failed += 1
        tracer.statement = None
        m = self.metrics
        m["trace.overhead_ratio"] = statistics.median(ratios)
        m["serve.request_encode_us"] = tracer.median("serve.request_encode") * 1e6
        m["serve.snapshot_pin_us"] = tracer.median("serve.snapshot_pin") * 1e6
        m["serve.result_to_wire_ms"] = tracer.median("serve.result_to_wire") * 1e3
        m["serve.result_from_wire_ms"] = tracer.median("serve.result_from_wire") * 1e3
        m["serve.response_bytes"] = statistics.median(response_bytes)
        m["sql.parse_us"] = tracer.median("sql.parse") * 1e6
        m["sql.bind_us"] = tracer.median("sql.bind") * 1e6
        m["plan.optimize_us"] = tracer.median("plan.optimize") * 1e6
        m["plan.physical_us"] = tracer.median("plan.physical") * 1e6
        m["check.verify_us"] = tracer.median("check.verify") * 1e6
        m["exec.collect_ms"] = tracer.median("exec.collect") * 1e3

    def _reference_pass(self, database, reads) -> None:
        """The same reads un-staged three ways, back to back per statement:
        plain, through a snapshot-reading ``Session`` (what the server
        runs per request), and with ``QueryProfile`` on."""
        m = self.metrics
        plain, sessioned, profiled, profiles = [], [], [], []
        with database.session(snapshot_reads=True) as session:
            for statement in reads:
                plain.append(_timed(lambda: database.sql(statement.sql)))
                sessioned.append(_timed(lambda: session.sql(statement.sql)))
                started = time.perf_counter()
                result = database.sql(statement.sql, profile=True)
                profiled.append(time.perf_counter() - started)
                profiles.append(result.profile)
        m["obs.profile_overhead_ratio"] = statistics.median(
            profiled
        ) / statistics.median(plain)
        m["serve.residual_ms"] = (
            self._served_read_p50_s - statistics.median(sessioned)
        ) * 1e3
        nodes = [node for profile in profiles for node in profile.root.walk()]
        for metric, op_types in _OPERATOR_CLASSES.items():
            m[metric] = (
                sum(n.self_seconds for n in nodes if n.op_type in op_types)
                / len(reads) * 1e3
            )
        selects = [n for n in nodes if n.op_type == "PatchSelect"]
        m["exec.patch_select.rows_in"] = sum(n.details["rows_in"] for n in selects)
        m["exec.patch_select.patch_hits"] = sum(
            n.details["patch_hits"] for n in selects
        )
        m["plan.rewrite_fired"] = sum(
            1 for profile in profiles if profile.find("PatchSelect")
        )
        scanned = sum(n.rows for n in nodes if n.op_type == "TableScan")
        returned = sum(profile.root.rows for profile in profiles)
        m["exec.rows_scanned_per_row_returned"] = scanned / max(1, returned)

    def _parallel_ratio(self, database, reads) -> None:
        """Median at ``parallelism=2`` over serial: the default-dop penalty
        that ``--threads 1`` keeps out of the gated numbers.  The worker
        processes ``parallelism=2`` starts are stopped before this returns."""
        times: dict[int, list[float]] = {1: [], 2: []}
        try:
            for statement in reads:
                for _ in range(3):
                    for dop in (1, 2):
                        times[dop].append(
                            _timed(
                                lambda: database.sql(statement.sql, parallelism=dop)
                            )
                        )
        finally:
            shutdown_process_pool()
        medians = {dop: statistics.median(values) for dop, values in times.items()}
        self.metrics["exec.parallel.dop2_over_serial"] = medians[2] / medians[1]

    def _decode_cost(self, reads) -> None:
        """Block decode per statement: a cache-less handle against one
        whose default-size cache the first pass has filled."""
        medians = {}
        for label, cache_bytes in (("cold", 0), ("warm", 64 * 1024 * 1024)):
            database = repro.connect(
                self.directory, parallelism=1, cache_bytes=cache_bytes
            )
            try:
                for _ in range(2):  # second pass: warm if the cache can hold it
                    times = [_timed(lambda s=s: database.sql(s.sql)) for s in reads]
                medians[label] = statistics.median(times)
            finally:
                database.close()
        self.metrics["storage.decode_ms_per_statement"] = (
            medians["cold"] - medians["warm"]
        ) * 1e3

    # -- 5: reader and writer truly concurrent ------------------------------

    def _concurrent_probe(self) -> None:
        """200 single-row inserts on W while R re-reads as fast as it can:
        the concurrent snapshot builds that sequenced sockets never cause."""
        reader, writer = self.clients["R"], self.clients["W"]
        read_sql = self.workload.warmup()[0]
        width = len(self.workload.tables["t"])
        base = 10 * self.workload.rows
        stop = threading.Event()
        latencies: list[float] = []
        errors: list[BaseException] = []

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    latencies.append(_timed(lambda: reader.sql(read_sql.sql)))
            except (ReproError, OSError) as error:
                errors.append(error)

        before = _server_metrics(writer)
        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for offset in range(PROBE_INSERTS):
                values = ", ".join([str(base + offset)] * width)
                writer.sql(f"INSERT INTO t VALUES ({values})")
        except (ReproError, OSError) as error:
            errors.append(error)
        finally:
            stop.set()
            thread.join()
        self.attempted += PROBE_INSERTS
        self.failed += len(errors)
        after = _server_metrics(writer)
        builds = after.get("storage.snapshot.builds", 0) - before.get(
            "storage.snapshot.builds", 0
        )
        self.metrics["serve.concurrent.read_p50_ms"] = _median_ms(latencies)
        self.metrics["serve.concurrent.snapshot_builds_per_write"] = (
            builds / PROBE_INSERTS
        )


def run_traced(classes, seed: int, seconds: float, scale: float, root: Path):
    """Trace each workload in turn; returns (results, spans by workload)."""
    harness.warm_interpreter(root)
    results, spans = {}, {}
    for cls in classes:
        run = TracedRun(cls, seed, seconds, scale, root)
        results[cls.name] = run.run()
        spans[cls.name] = run.tracer.spans
    return results, spans
