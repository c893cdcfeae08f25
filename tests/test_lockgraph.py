"""Seeded-mutation corpus for the lock-graph analyzer (L11-L13).

Each rule is proven live by planting deliberately broken modules in a
temp tree and asserting the analyzer fires on every injected violation
— and proven quiet by running it over the shipped source tree, which
must stay finding-free (the CI ``sanitize`` job enforces the same).
The L8 / L9 rules that fence the result wire codec
(``serve/protocol.py``) get the same treatment.  The repro_lint
driver's ``--select`` / ``--format`` plumbing is exercised through real
subprocess invocations.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lockgraph  # noqa: E402
import repro_lint  # noqa: E402


def analyze_source(tmp_path: Path, source: str, name: str = "seeded.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lockgraph.analyze([path])


def rules_of(findings) -> list[str]:
    return [finding.rule for finding in findings]


# -- L11: lock-order cycles ---------------------------------------------------


class TestL11LockOrder:
    def test_inverted_pair_is_a_cycle(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Ledger:
                def __init__(self):
                    self._accounts = threading.Lock()
                    self._audit = threading.Lock()

                def debit(self):
                    with self._accounts:
                        with self._audit:
                            pass

                def audit(self):
                    with self._audit:
                        with self._accounts:
                            pass
            """,
        )
        assert rules_of(findings) == ["L11", "L11"]
        assert any("cycle" in finding.message for finding in findings)

    def test_nonreentrant_self_nesting_deadlocks(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert rules_of(findings) == ["L11"]
        assert "self-deadlock" in findings[0].message

    def test_reentrant_self_nesting_is_fine(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.RLock()

                def bump(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert findings == []

    def test_cycle_through_one_call_hop(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Pool:
                def __init__(self):
                    self._queue = threading.Lock()
                    self._stats = threading.Lock()

                def submit(self):
                    with self._queue:
                        self.record()

                def record(self):
                    with self._stats:
                        pass

                def report(self):
                    with self._stats:
                        with self._queue:
                            pass
            """,
        )
        assert "L11" in rules_of(findings)

    def test_state_lock_under_the_snapshot_lock_inverts_the_pin(self, tmp_path):
        """A pin takes the catalog's state lock, then the registry's
        (``storage.engine.snapshot``).  Seeded into copies of the real
        modules, the reverse order is a cycle; the copies alone are clean."""
        storage = REPO / "src" / "repro" / "storage"
        paths = []
        for name in ("catalog.py", "snapshot.py"):
            paths.append(tmp_path / name)
            paths[-1].write_text(
                (storage / name).read_text(encoding="utf-8"), encoding="utf-8"
            )
        assert lockgraph.analyze(paths) == []
        with open(paths[-1], "a", encoding="utf-8") as module:
            module.write(
                textwrap.dedent(
                    """

                    def seeded(registry: SnapshotRegistry, catalog: Catalog):
                        with registry._lock:
                            with catalog.state_lock:
                                pass
                    """
                )
            )
        findings = lockgraph.analyze(paths)
        assert findings and set(rules_of(findings)) == {"L11"}
        for finding in findings:
            assert "Catalog.state_lock -> SnapshotRegistry._lock" in finding.message

    def test_consistent_order_is_fine(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Ledger:
                def __init__(self):
                    self._accounts = threading.Lock()
                    self._audit = threading.Lock()

                def debit(self):
                    with self._accounts:
                        with self._audit:
                            pass

                def credit(self):
                    with self._accounts:
                        with self._audit:
                            pass
            """,
        )
        assert findings == []


# -- L12: blocking under a lock -----------------------------------------------


class TestL12BlockingUnderLock:
    def test_fsync_and_sleep_under_lock(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import os
            import threading
            import time

            class Writer:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self, fd):
                    with self._lock:
                        os.fsync(fd)

                def retry(self):
                    with self._lock:
                        time.sleep(0.1)
            """,
        )
        assert rules_of(findings) == ["L12", "L12"]
        messages = " ".join(finding.message for finding in findings)
        assert "os.fsync" in messages and "time.sleep" in messages

    def test_await_under_threading_lock(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Bridge:
                def __init__(self):
                    self._lock = threading.Lock()

                async def relay(self, coro):
                    with self._lock:
                        await coro
            """,
        )
        assert rules_of(findings) == ["L12"]
        assert "await" in findings[0].message

    def test_await_under_asyncio_lock_is_fine(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import asyncio

            class Bridge:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def relay(self, coro):
                    async with self._lock:
                        await coro
            """,
        )
        assert findings == []

    def test_blocking_one_call_hop_deep(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import os
            import threading

            class Writer:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self, fd):
                    with self._lock:
                        self.sync(fd)

                def sync(self, fd):
                    os.fsync(fd)
            """,
        )
        assert rules_of(findings) == ["L12"]
        assert "via" in findings[0].message

    def test_lock_ok_on_with_line_blesses_block(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import os
            import threading

            class Writer:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self, fd):
                    with self._lock:  # lock-ok: flip atomicity demands it
                        os.fsync(fd)
            """,
        )
        assert findings == []


# -- L13: guarded attribute access --------------------------------------------


class TestL13GuardedAttributes:
    def test_unlocked_write_and_read_of_rebound_attr(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class State:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._current = None

                def install(self, value):
                    with self._lock:
                        self._current = value

                def sneak(self, value):
                    self._current = value

                def peek(self):
                    return self._current
            """,
        )
        assert rules_of(findings) == ["L13", "L13"]

    def test_unlocked_container_mutation(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def sneak(self, key):
                    self._entries.pop(key, None)

                def peek(self, key):
                    return self._entries.get(key)
            """,
        )
        # In-place mutation outside the lock fires; plain reads of a
        # container-guarded attribute stay legal.
        assert rules_of(findings) == ["L13"]
        assert "'_entries'" in findings[0].message

    def test_locked_suffix_method_called_without_lock(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = None

                def _advance_locked(self):
                    self._state = object()

                def step(self):
                    with self._lock:
                        self._advance_locked()

                def sneak(self):
                    self._advance_locked()
            """,
        )
        assert rules_of(findings) == ["L13"]
        assert "_advance_locked" in findings[0].message

    def test_lock_ok_suppresses(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            class State:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._current = None

                def install(self, value):
                    with self._lock:
                        self._current = value

                def peek(self):
                    return self._current  # lock-ok: torn reads are fine here
            """,
        )
        assert findings == []

    def test_module_global_guarded_by_module_lock(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import threading

            _lock = threading.Lock()
            _cache = None

            def install(value):
                global _cache
                with _lock:
                    _cache = value

            def sneak(value):
                global _cache
                _cache = value
            """,
        )
        assert rules_of(findings) == ["L13"]


# -- the shipped tree must be quiet -------------------------------------------


class TestCleanTree:
    def test_source_tree_has_no_findings(self):
        files = lockgraph.iter_python_files([str(REPO / "src")])
        findings = lockgraph.analyze(files)
        rendered = "\n".join(finding.render() for finding in findings)
        if rendered:
            pytest.fail(f"lock-graph findings on shipped tree:\n{rendered}")


# -- L8 / L9 around the result wire codec --------------------------------------


def lint_planted(tmp_path: Path, relative: str, source: str) -> list[str]:
    path = tmp_path / "src" / "repro" / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return rules_of(repro_lint.lint_file(path))


class TestServeCodecBoundary:
    FROMBUFFER = """
        import numpy as np

        def peek(body):
            return np.frombuffer(body, dtype=np.uint8)
        """

    def test_protocol_codec_may_decode_raw_buffers(self, tmp_path):
        assert lint_planted(tmp_path, "serve/protocol.py", self.FROMBUFFER) == []

    @pytest.mark.parametrize("name", ["serve/server.py", "serve/client.py"])
    def test_frombuffer_beside_the_codec_still_fires(self, tmp_path, name):
        assert lint_planted(tmp_path, name, self.FROMBUFFER) == ["L8"]

    #: Seeded mutations of the unpack kernel's window read: the same
    #: strided raw-buffer access spelled three ways.
    WINDOW_READS = {
        "ndarray-buffer": """
            import numpy as np

            def windows(padded, groups, width):
                return np.ndarray(
                    (groups,), dtype="<u8", buffer=padded, strides=(width,)
                )
            """,
        "as-strided-attribute": """
            import numpy as np

            def windows(words, groups, width):
                return np.lib.stride_tricks.as_strided(
                    words, shape=(groups,), strides=(width,)
                )
            """,
        "as-strided-imported": """
            from numpy.lib.stride_tricks import as_strided

            def windows(words, groups, width):
                return as_strided(words, shape=(groups,), strides=(width,))
            """,
    }

    @pytest.mark.parametrize("spelling", sorted(WINDOW_READS))
    def test_window_reads_belong_to_the_codec_layer(self, tmp_path, spelling):
        source = self.WINDOW_READS[spelling]
        assert lint_planted(tmp_path, "core/compression.py", source) == []
        for name in ("storage/cache.py", "exec/operators/scan.py"):
            assert lint_planted(tmp_path, name, source) == ["L8"]

    def test_plain_ndarray_construction_is_not_a_buffer_read(self, tmp_path):
        source = """
            import numpy as np

            def blank(rows):
                return np.ndarray((rows,), dtype=np.int64)
            """
        assert lint_planted(tmp_path, "storage/cache.py", source) == []

    def test_result_encoding_in_a_coroutine_is_blocking_work(self, tmp_path):
        # L9 used to police what a serve/ coroutine may call; now there
        # is no coroutine to police, and L9 keeps it that way.
        findings = lint_planted(
            tmp_path,
            "serve/server.py",
            """
            async def reply(run, loop, executor):
                result = await loop.run_in_executor(executor, run)
                return {"result": result_to_wire(result)}
            """,
        )
        assert findings == ["L9"]

    def test_result_encoding_on_the_executor_is_fine(self, tmp_path):
        findings = lint_planted(
            tmp_path,
            "serve/server.py",
            """
            def run_and_encode(run):
                return {"result": result_to_wire(run())}

            def reply(run):
                return run_and_encode(run)
            """,
        )
        assert findings == []

    @pytest.mark.parametrize(
        "line", ["import asyncio", "import asyncio.streams as s", "from asyncio import run"]
    )
    def test_importing_asyncio_anywhere_in_the_package_fires(self, tmp_path, line):
        assert lint_planted(tmp_path, "storage/engine.py", line + "\n") == ["L9"]
        path = tmp_path / "tools" / "helper.py"
        path.parent.mkdir()
        path.write_text(line + "\n", encoding="utf-8")
        assert rules_of(repro_lint.lint_file(path)) == []


# -- L10: patch membership changes belong to the maintainer --------------------


class TestPatchMutationLayer:
    MUTATIONS = """
        def restore(index, rowids):
            patches = index.partition_patches(0)
            patches.add(rowids)
            patches.remap_after_delete(rowids)
        """

    @pytest.mark.parametrize("name", ["core/maintenance.py", "core/patches.py"])
    def test_the_maintainer_and_the_patch_sets_may_mutate(self, tmp_path, name):
        assert lint_planted(tmp_path, name, self.MUTATIONS) == []

    @pytest.mark.parametrize(
        "name", ["storage/materialize.py", "core/patch_index.py", "storage/database.py"]
    )
    def test_a_mutation_anywhere_else_fires(self, tmp_path, name):
        assert lint_planted(tmp_path, name, self.MUTATIONS) == ["L10", "L10"]

    def test_plain_containers_are_not_patch_sets(self, tmp_path):
        source = """
            def collect(names, extra):
                names.add(extra)
                names.remove(extra)
            """
        assert lint_planted(tmp_path, "storage/materialize.py", source) == []


# -- repro_lint driver plumbing ----------------------------------------------


def run_lint(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "repro_lint.py"), *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


@pytest.fixture()
def violation_file(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(
        textwrap.dedent(
            """
            import os
            import threading

            class Writer:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self, fd):
                    with self._lock:
                        os.fsync(fd)
            """
        ),
        encoding="utf-8",
    )
    return path


class TestLintDriver:
    def test_single_file_select_hits(self, violation_file):
        proc = run_lint("--select", "L12", str(violation_file))
        assert proc.returncode == 1
        assert "L12" in proc.stdout

    def test_select_filters_out(self, violation_file):
        proc = run_lint("--select", "L11", str(violation_file))
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""

    def test_unknown_rule_rejected(self, violation_file):
        proc = run_lint("--select", "L99", str(violation_file))
        assert proc.returncode != 0
        assert "unknown rule" in (proc.stdout + proc.stderr)

    def test_json_format(self, violation_file):
        proc = run_lint("--format", "json", str(violation_file))
        findings = json.loads(proc.stdout)
        assert findings and findings[0]["rule"] == "L12"
        assert findings[0]["line"] > 0

    def test_github_format(self, violation_file):
        proc = run_lint("--format", "github", str(violation_file))
        assert "::error file=" in proc.stdout
        assert "title=L12" in proc.stdout

    def test_parse_select_roundtrip(self):
        selected = repro_lint._parse_select("L2, l11")
        assert selected == frozenset({"L2", "L11"})
        assert repro_lint._parse_select(None) == frozenset(
            repro_lint.ALL_RULES
        )


class TestLintPathLists:
    """The rule scopes are path strings; a rename must fail here, not
    silently drop the renamed file out of every rule that named it."""

    @pytest.mark.parametrize("name", sorted(repro_lint.PATH_LISTS))
    def test_every_listed_path_exists(self, name):
        source_root = REPO / "src" / "repro"
        missing = [
            relative
            for relative in repro_lint.PATH_LISTS[name]
            if not (source_root / relative).exists()
        ]
        assert missing == [], f"{name} names paths not under src/repro"

    def test_storage_locks_and_fsyncs_are_all_in_scope(self):
        # Exactly the storage modules that build a lock, or open a file
        # for writing, are named by the rule that checks them.
        owns_lock, writes = set(), set()
        for path in sorted((REPO / "src" / "repro" / "storage").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
            if any(repro_lint._is_lock_factory(call) for call in calls):
                owns_lock.add(f"storage/{path.name}")
            if any(repro_lint._open_write_mode(call) for call in calls):
                writes.add(f"storage/{path.name}")
        assert owns_lock == set(repro_lint.LOCK_CHECKED_FILES)
        assert writes == set(repro_lint.FSYNC_CHECKED_FILES)
