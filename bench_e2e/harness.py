"""Server process control, one workload's run, the environment header.

The benchmark serves each workload's directory the way a user does —
``python -m repro serve --data-dir D --port 0 --threads 1`` in its own
process — so client-observed numbers include the interpreter, asyncio
and socket layers a deployment pays, and SIGKILL is a real crash.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import repro
import workloads
from repro.errors import ReproError
from repro.serve import ServerClient

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT = BENCH_DIR / "out"

#: ``BENCHMARK.json`` is the one place that names metrics and their units.
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in MANIFEST[kind]
}

#: Seconds to wait for a spawned server's ready line before giving up.
READY_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
RECOVERY_REPEATS = 5


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant (a pool
    worker's resource tracker, a killed server's child), so that
    ``stop_descendants`` can find and reap them."""
    if _LIBC.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # gone since the listing
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_descendants() -> None:
    """SIGKILL and reap everything still running under this process.

    Killing a child hands its own children to this process (see
    ``adopt_orphans``), so the loop runs until none is left: when it
    returns, no process the benchmark started is alive.
    """
    while children := _children():
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _die_with_parent() -> None:
    """In the server child, before exec: SIGKILL it if the benchmark dies
    without running its ``finally`` blocks."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def server_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """The server's environment: the checkout's sources, a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


class Server:
    """One ``python -m repro serve`` child over a durable directory."""

    def __init__(self, data_dir: Path, env: dict[str, str] | None = None):
        self.data_dir = data_dir
        self._env = server_env(env)
        self._process: subprocess.Popen | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        if self._process is None:
            raise RuntimeError("server is not running")
        return self._process.pid

    def start(self, idle=None) -> None:
        """Spawn the server and block until its ready line names the port;
        *idle* is called every 10 ms of waiting."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(self.data_dir),
                "--port", "0",
                "--threads", "1",
            ],
            env=self._env,
            cwd=str(REPO),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            preexec_fn=_die_with_parent,
        )
        self._process = process
        # A server that dies before binding closes the pipe (readable at
        # EOF); one that hangs is bounded by the deadline.
        deadline = time.perf_counter() + READY_TIMEOUT_S
        ready = []
        while not ready and time.perf_counter() < deadline:
            ready, _, _ = select.select([process.stdout], [], [], 0.01)
            if idle is not None and not ready:
                idle()
        line = process.stdout.readline().decode() if ready else ""
        marker = "repro://127.0.0.1:"
        if marker not in line:
            self.kill()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])

    def kill(self) -> None:
        """SIGKILL the server and reap it (idempotent)."""
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait()
        process.stdout.close()

    def rss_peak_mib(self) -> float:
        """``VmHWM`` of the server plus its live children, in MiB."""
        pids = [self.pid]
        children = Path(f"/proc/{self.pid}/task/{self.pid}/children")
        if children.exists():
            pids += [int(word) for word in children.read_text().split()]
        total_kib = 0
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0


#: The reference work: what a served statement mostly is on the client
#: and in the server — building, encoding and decoding small Python objects.
_DOCUMENT = {
    "columns": ["k", "name", "x"],
    "rows": [[row, str(row), row * 0.5] for row in range(100)],
}


#: CPU seconds of one pass that *define* reference speed: its usual cost
#: on this class of VM between two ``point_reads`` statements, so that
#: factors are near 1 here.  Another machine or interpreter scales every
#: timing by one constant, which cancels when two commits are compared.
REFERENCE_PASS_S = 100e-6


def speed_factor(passes: int) -> float:
    """How much slower than reference speed this CPU runs right now.

    Times *passes* JSON round trips of a fixed 100-row document in this
    thread's CPU time — so whatever else the CPU ran meanwhile, a server
    finishing deferred work included, is not in it — against
    ``REFERENCE_PASS_S``.
    """
    started = time.thread_time()
    for _ in range(passes):
        json.loads(json.dumps(_DOCUMENT))
    return (time.thread_time() - started) / passes / REFERENCE_PASS_S


class Speedometer:
    """One timed stretch — a round, a set-up, a recovery — at reference speed.

    This box's clean speed wanders by 10-20 % from second to second and
    up to 2x from hour to hour (``NOISE.md``), which repeating inside one
    25-s run cannot average out.  So reference work is timed all through
    the stretch, 5 % of it, and the time since the previous sample is
    divided by each sample's factor: the pairing is what cancels the
    wander.  The as-measured values are kept beside them.
    """

    #: Share of the stretch spent on reference passes.
    SHARE = 0.05

    def __init__(self):
        self._mark = time.perf_counter()  # end of the last sample
        self._pending: list[tuple[str, float]] = []
        self.factors: list[float] = []
        self.busy_s = 0.0  # as measured: the stretch without the passes' CPU time
        self.busy_reference_s = 0.0
        self.reads_s: list[float] = []  # SELECT latencies as measured
        self.reads_reference_s: list[float] = []

    def record(self, kind: str, latency: float) -> None:
        """Note one acknowledged statement; sample once a pass is due."""
        self._pending.append((kind, latency))
        if (time.perf_counter() - self._mark) * self.SHARE >= REFERENCE_PASS_S:
            self.sample()

    def sample(self) -> None:
        """Time passes in proportion to the time since the last sample,
        and settle that time and its statements at the factor they give."""
        due = (time.perf_counter() - self._mark) * self.SHARE
        passes = max(1, int(due / REFERENCE_PASS_S))
        factor = speed_factor(passes)
        now = time.perf_counter()
        # Only the passes' own CPU time is taken out: work a server put
        # off until after its reply still counts against the stretch.
        busy = now - self._mark - factor * passes * REFERENCE_PASS_S
        self._mark = now
        self.factors.append(factor)
        self.busy_s += busy
        self.busy_reference_s += busy / factor
        for kind, latency in self._pending:
            if kind.startswith("read"):
                self.reads_s.append(latency)
                self.reads_reference_s.append(latency / factor)
        self._pending.clear()


class WorkloadRun:
    """One workload's life in a run: set-ups, rounds, crash recovery."""

    def __init__(self, cls, seed: int, seconds: float, scale: float, root: Path):
        self.workload: workloads.Workload = cls(seed, scale)
        self.units = self.workload.units_per_round(seconds)
        self.root = root / cls.name
        self.directory = self.root
        self.server: Server | None = None
        self.clients: dict[str, ServerClient] = {}
        self.attempted = 0
        self.failed = 0
        self.statements = 0
        #: Every repeat behind the reported values, at reference speed and
        #: as measured, with its speed factor; kept in the result file.
        self.repeats: dict[str, list[float]] = collections.defaultdict(list)

    # -- serving ------------------------------------------------------------

    def serve(self, speed: Speedometer | None = None) -> None:
        self.server = Server(self.directory, self.workload.server_env)
        self.server.start(idle=speed.sample if speed is not None else None)
        self.clients = {
            name: ServerClient("127.0.0.1", self.server.port) for name in "RW"
        }

    def crash(self) -> None:
        """SIGKILL the server; the sockets die with it."""
        if self.server is not None:
            self.server.kill()
        for client in self.clients.values():
            try:
                client.close()
            except (ReproError, OSError):
                pass
        self.clients = {}

    def drive(self, statements, speed: Speedometer | None = None):
        """Send each statement once, in order; latencies by statement kind.

        An exception, a lost connection or an oracle mismatch is a failed
        operation; the loop carries on so the count is complete.  *speed*
        is told of every reply and samples in proportion to their time.
        """
        latencies: dict[str, list[float]] = {}
        for statement in statements:
            self.attempted += 1
            started = time.perf_counter()
            try:
                reply = self.clients[statement.socket].sql(statement.sql)
            except (ReproError, OSError, KeyError) as error:
                # KeyError: no socket, because the server never came back.
                self.failed += 1
                print(f"  failed: {statement.sql[:60]!r}: {error}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - started
            latencies.setdefault(statement.kind, []).append(elapsed)
            if statement.expected is not None and not oracle.matches(
                reply, statement.expected
            ):
                self.failed += 1
                print(f"  oracle mismatch: {statement.sql[:60]!r}", file=sys.stderr)
            if speed is not None:
                speed.record(statement.kind, elapsed)
        return latencies

    # -- phases -------------------------------------------------------------

    def set_up(self, slot: int, tracer=None) -> None:
        """One complete set-up into a fresh directory, timed end to end:
        generate, load (``sync=False``), index, checkpoint, close, spawn
        the server, answer the warm-up script."""
        self.crash()
        shutil.rmtree(self.root, ignore_errors=True)
        self.directory = self.root / f"setup{slot}"
        self.directory.parent.mkdir(parents=True, exist_ok=True)
        speed = Speedometer()

        @contextlib.contextmanager
        def phase(name: str):
            with tracer.span(name) if tracer is not None else contextlib.nullcontext():
                yield
            speed.sample()

        build_directory(self.workload, self.directory, phase)
        self.serve(speed)
        self.drive(self.workload.warmup(), speed)
        self._stretch("setup_s", speed)

    def _stretch(self, name: str, speed: Speedometer) -> None:
        speed.sample()  # settles the time since the last sample
        self.repeats[name].append(speed.busy_reference_s)
        self.repeats[f"{name}_as_measured"].append(speed.busy_s)
        self.repeats[f"{name}_factor"].append(statistics.median(speed.factors))

    def round(self, index: int) -> None:
        statements = self.workload.round(index, self.units)
        self.statements = len(statements)
        speed = Speedometer()
        self.drive(statements, speed)
        speed.sample()  # settles the statements since the last sample
        repeats = self.repeats
        repeats["round_factor"].append(statistics.median(speed.factors))
        for suffix, busy, reads in (
            ("", speed.busy_reference_s, speed.reads_reference_s),
            ("_as_measured", speed.busy_s, speed.reads_s),
        ):
            repeats[f"round_ops_per_s{suffix}"].append(len(statements) / busy)
            repeats[f"round_p50_ms{suffix}"].append(
                statistics.median(reads) * 1e3 if reads else 0.0
            )

    def finish(self) -> dict[str, float]:
        """Peak RSS, then SIGKILL -> restart -> oracle-checked reply, 5 times."""
        rss = self.server.rss_peak_mib()
        check = self.workload.check()
        disk = 0
        for _ in range(RECOVERY_REPEATS):
            self.crash()
            disk = disk or directory_bytes(self.directory)
            failed_before = self.failed
            speed = Speedometer()
            try:
                self.serve(speed)
            except (RuntimeError, ReproError, OSError) as error:
                print(f"  no server after the crash: {error}", file=sys.stderr)
            self.drive([check], speed)
            if self.failed == failed_before:
                self._stretch("recovery_s", speed)

        def median(name: str) -> float:
            values = self.repeats[name]
            return statistics.median(values) if values else 0.0

        return {
            "setup_s": median("setup_s"),
            "ops_per_s": median("round_ops_per_s"),
            "p50_ms": median("round_p50_ms"),
            "recovery_s": median("recovery_s"),
            "server_rss_peak_mb": rss,
            "disk_bytes_per_user_byte": disk / self.workload.user_bytes(),
        }

    def close(self) -> None:
        self.crash()
        shutil.rmtree(self.root, ignore_errors=True)


def build_directory(workload, directory: Path, span=contextlib.nullcontext) -> None:
    """Generate, load, index, checkpoint and close one durable directory;
    *span* wraps each named phase."""
    with span("gen.generate"):
        workload.generate()
    database = repro.connect(directory, parallelism=1, sync=False)
    try:
        workload.build(database, span)
        with span("storage.checkpoint"):
            database.checkpoint()
    finally:
        database.close()


def warm_interpreter(root: Path) -> None:
    """A throw-away 10k-row build, so imports and first-touch page faults
    do not land in the first timed set-up."""
    workload = workloads.PointReads(0, 0.05)
    directory = root / "warm"
    build_directory(workload, directory)
    shutil.rmtree(directory, ignore_errors=True)


def directory_bytes(root: Path) -> int:
    return sum(
        entry.stat().st_size for entry in root.rglob("*") if entry.is_file()
    )


def git_revision() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(REPO), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment_header(seed: int, seconds: float, statements: dict) -> dict:
    """What tells two result files apart without git archaeology."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
        "seconds": seconds,
        "start_method": "subprocess.Popen: python -m repro serve --threads 1",
        "flush_policy": "setup sync=False then checkpoint; served sync=True",
        "statements_per_round": statements,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
