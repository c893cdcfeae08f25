#!/usr/bin/env python3
"""Project lint for the repro engine — stdlib-ast static checks.

Usage::

    python tools/repro_lint.py src tests
    python tools/repro_lint.py --select L2,L11 src/repro/storage/snapshot.py
    python tools/repro_lint.py --format json src
    python tools/repro_lint.py --format github src tests   # CI annotations

Walks the given trees (files under a ``tests`` directory or named
``test_*.py`` are *test* files, everything else is *source*) and
enforces the project's own invariants, which generic linters cannot
know.  Exit status is 0 when clean, 1 when any finding is reported.

Rules
-----

L1  no-bare-assert
    ``assert`` statements in source files vanish under ``python -O``;
    load-bearing checks must raise a typed exception from
    ``repro.errors`` instead.  (Tests may assert freely.)

L2  lock-discipline
    In ``exec/parallel/`` and ``obs/`` — the only modules touched by
    concurrent workers — any class that owns a ``threading.Lock`` must
    mutate its attributes inside a ``with self._lock`` block
    (constructors are exempt: no other thread can hold a reference
    yet).  Module-level globals guarded by a module lock get the same
    treatment inside functions that declare them ``global``.

L3  fsync-discipline
    In the storage files that write durable state ({fsync_files}),
    every file opened for writing must reach an ``os.fsync`` before the
    ``with`` block ends, or carry an explicit ``# no-fsync: <reason>``
    marker on the ``with`` line — durability claims in the module
    docstrings must be backed by actual syncs.

L4  metric-namespaces
    Metric names passed to ``.counter() / .gauge() / .histogram()``
    must live in a documented namespace (see DESIGN.md §6):
    {namespaces}.  Dynamic names are resolved one assignment deep
    within the enclosing function; anything still undecidable is a
    finding, so no name can dodge the registry taxonomy.

L5  (retired: the deprecated entry points it policed are deleted)

L6  explicit-dtype
    ``np.empty / np.zeros / np.full / np.ndarray`` in operator code
    must pass an explicit ``dtype`` — the float64 default silently
    widens integer columns and object arrays hide type errors until a
    kernel trips on them.

L7  no-stale-markers
    No ``TODO`` / ``FIXME`` / ``XXX`` / ``HACK`` comments in source;
    open work belongs in ROADMAP.md "Open items", not in drive-by
    markers that rot.

L8  no-raw-segment-decode
    ``np.frombuffer`` on segment payload bytes is allowed only inside
    the storage codec layer ({frombuffer_files}) — everything else must
    go through ``SegmentReader`` / the block cache, so the RSEG wire
    formats stay changeable in one place.  ``serve/protocol.py`` is on
    the list because the result wire format is its own codec, not a
    segment payload; the server and the clients around it are not.
    ``np.ndarray(..., buffer=...)`` and ``as_strided`` read raw buffers
    the same way (the bit-unpack kernel's word windows are the one use)
    and answer to the same list: a stride that outruns its buffer is a
    read out of bounds, so the arithmetic stays where it is tested.

L9  one-concurrency-model
    No ``async def`` and no ``import asyncio`` under ``src/repro/``.
    The server is a thread per connection plus one writer thread; the
    lock rules below, the runtime sanitizer and the lock graph cover
    threads end to end and see nothing of an event loop.  A coroutine
    would bring the second model back, with its executors and
    cross-thread futures.

L10 patch-mutation-through-the-maintainer
    Patch membership mutations — ``.extend`` / ``.add`` / ``.remove`` /
    ``.remap_after_delete`` on a patch-set receiver — are allowed only
    inside the maintainer and the patch sets ({patch_mutation_files}).
    Recovery replays data records and lets the maintainer re-classify
    them, so only a change the maintainer makes from a table event is
    one a reopen reproduces — a mutation anywhere else would silently
    diverge the recovered index from the live one.

L11 lock-order, L12 no-blocking-under-lock, L13 guarded-attribute-access
    The whole-source lock-graph rules, implemented in
    ``tools/lockgraph.py`` (see its docstring for the full contract):
    cycles in the lock-acquisition graph, blocking I/O / ``await``
    while holding a lock, and access to lock-guarded state outside the
    owning lock.  Methods named ``*_locked`` are treated as running
    with their class lock held; ``# lock-ok: <reason>`` suppresses a
    finding on its line.  These rules run over *source* trees only
    (tests mutate and assert freely).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path

#: Documented MetricsRegistry namespaces (DESIGN.md §6).  A metric name
#: is valid when it equals a namespace or extends it with a dot.
METRIC_NAMESPACES = (
    "wal",
    "checkpoint",
    "recovery",
    "storage",
    "cache",
    "query",
    "plan",
    "statements",
    "patchselect",
    "parallel",
    "patchindex",
    "maintenance",
    "server",
    "session",
    "sanitize",
    "core",
)

#: Source files allowed to read raw buffers — ``np.frombuffer``,
#: ``np.ndarray(buffer=...)``, ``as_strided`` — (L8): the two codec
#: modules that own the RSEG wire formats, plus the client/server
#: protocol (the result wire format is its own codec, not a segment
#: payload).
FROMBUFFER_ALLOWED_FILES = (
    "storage/segment.py",
    "core/compression.py",
    "serve/protocol.py",
)

#: Files allowed to mutate patch-set membership directly (L10): the
#: maintainer that re-classifies every table event, live and on replay,
#: and the patch-set classes whose methods it calls.
PATCH_MUTATION_FILES = (
    "core/maintenance.py",
    "core/patches.py",
)

#: Directories whose classes are touched by concurrent workers (L2).
LOCK_CHECKED_DIRS = ("exec/parallel", "obs", "serve")

#: The storage files that own a lock, under the same discipline: the
#: catalog (its state lock is the one every live mutation and every
#: snapshot pin holds), the snapshot registry (its lock is the
#: checkpoint-flip lock) and the block cache.  ``engine.py``,
#: ``checkpoint.py`` and ``materialize.py`` hold none — they run under
#: the catalog's or the registry's (tests/test_lockgraph.py keeps this
#: list exact).
LOCK_CHECKED_FILES = (
    "storage/catalog.py",
    "storage/snapshot.py",
    "storage/cache.py",
)

#: Files whose write paths must fsync (L3): the WAL, the checkpoint's
#: patch-set sidecar, the manifest install and the segment writer.
FSYNC_CHECKED_FILES = (
    "storage/wal.py",
    "storage/checkpoint.py",
    "storage/manifest.py",
    "storage/segment.py",
)

#: Every repo-relative path list above, for the self-test that keeps a
#: rename from silently dropping coverage (tests/test_lockgraph.py).
PATH_LISTS = {
    "FROMBUFFER_ALLOWED_FILES": FROMBUFFER_ALLOWED_FILES,
    "PATCH_MUTATION_FILES": PATCH_MUTATION_FILES,
    "LOCK_CHECKED_DIRS": LOCK_CHECKED_DIRS,
    "LOCK_CHECKED_FILES": LOCK_CHECKED_FILES,
    "FSYNC_CHECKED_FILES": FSYNC_CHECKED_FILES,
}

__doc__ = __doc__.format(
    namespaces=", ".join(METRIC_NAMESPACES),
    frombuffer_files=", ".join(FROMBUFFER_ALLOWED_FILES),
    patch_mutation_files=", ".join(PATCH_MUTATION_FILES),
    fsync_files=", ".join(FSYNC_CHECKED_FILES),
)

#: Method names that mutate their receiver in place (L2).
MUTATING_METHODS = frozenset(
    {
        "append", "add", "extend", "update", "pop", "popitem", "clear",
        "remove", "discard", "insert", "setdefault", "sort", "reverse",
    }
)

#: ndarray constructors that must pass dtype in operator code (L6).
NDARRAY_CONSTRUCTORS = frozenset({"empty", "zeros", "full", "ndarray"})

MARKER_WORDS = ("TODO", "FIXME", "XXX", "HACK")


@dataclass(frozen=True)
class Finding:
    path: Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def iter_python_files(roots: list[str]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        else:
            files.extend(sorted(path.rglob("*.py")))
    return files


def is_test_file(path: Path) -> bool:
    return "tests" in path.parts or path.name.startswith("test_")


def posix(path: Path) -> str:
    return path.as_posix()


# -- L1 ------------------------------------------------------------------------


def check_bare_asserts(path: Path, tree: ast.AST) -> list[Finding]:
    return [
        Finding(
            path,
            node.lineno,
            "L1",
            "bare assert disappears under -O; raise a typed "
            "repro.errors exception",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


# -- L2 ------------------------------------------------------------------------


def _is_lock_factory(node: ast.AST) -> bool:
    """``threading.Lock()`` / ``RLock()`` / sanitize ``make_lock()``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    names = ("Lock", "RLock", "make_lock")
    if isinstance(func, ast.Attribute):
        return func.attr in names
    return isinstance(func, ast.Name) and func.id in names


def _with_uses_lock(
    node: ast.With | ast.AsyncWith, lock_names: set[str]
) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr in lock_names:
            return True
        if isinstance(expr, ast.Name) and expr.id in lock_names:
            return True
    return False


def _self_attribute(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _flag_unlocked_writes(
    path: Path,
    body: list[ast.stmt],
    lock_names: set[str],
    target_is_shared,
    locked: bool,
    findings: list[Finding],
) -> None:
    """Walk statements, flagging shared-state mutation outside the lock."""
    for statement in body:
        if isinstance(statement, (ast.With, ast.AsyncWith)) and _with_uses_lock(
            statement, lock_names
        ):
            _flag_unlocked_writes(
                path, statement.body, lock_names, target_is_shared, True,
                findings,
            )
            continue
        if not locked:
            for node in _statement_heads(statement):
                name = _written_shared_name(node, target_is_shared)
                if name is not None:
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            "L2",
                            f"mutation of shared state {name!r} outside "
                            "the owning lock",
                        )
                    )
        for child_body in _nested_bodies(statement):
            _flag_unlocked_writes(
                path, child_body, lock_names, target_is_shared, locked,
                findings,
            )


def _statement_heads(statement: ast.stmt) -> list[ast.AST]:
    """The statement itself plus its non-body expressions."""
    heads: list[ast.AST] = [statement]
    if isinstance(statement, ast.Expr):
        heads.append(statement.value)
    return heads


def _nested_bodies(statement: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        nested = getattr(statement, field, None)
        if nested:
            bodies.append(list(nested))
    for handler in getattr(statement, "handlers", []) or []:
        bodies.append(list(handler.body))
    return bodies


def _written_shared_name(node: ast.AST, target_is_shared) -> str | None:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            name = target_is_shared(target)
            if name is not None:
                return name
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return target_is_shared(node.target)
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            return target_is_shared(func.value)
    return None


def check_lock_discipline(path: Path, tree: ast.Module) -> list[Finding]:
    covered = any(
        part in posix(path) for part in LOCK_CHECKED_DIRS
    ) or posix(path).endswith(LOCK_CHECKED_FILES)
    if not covered:
        return []
    findings: list[Finding] = []

    # Module-level lock guarding module globals.
    module_locks = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and _is_lock_factory(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    if module_locks:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared_globals = {
                name
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.Global)
                for name in stmt.names
            }
            if not declared_globals:
                continue

            def global_target(target, names=declared_globals):
                if isinstance(target, ast.Name) and target.id in names:
                    return target.id
                return None

            _flag_unlocked_writes(
                path, node.body, module_locks, global_target, False, findings
            )

    # Classes owning an instance lock.
    for class_node in tree.body:
        if not isinstance(class_node, ast.ClassDef):
            continue
        instance_locks = {
            attr
            for node in ast.walk(class_node)
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value)
            for target in node.targets
            if (attr := _self_attribute(target)) is not None
        }
        if not instance_locks:
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__"):
                continue
            # ``*_locked`` methods run with the lock already held by
            # their caller (L13 checks the call sites).
            locked = method.name.endswith("_locked")
            _flag_unlocked_writes(
                path, method.body, instance_locks, _self_attribute, locked,
                findings,
            )
    return findings


# -- L3 ------------------------------------------------------------------------


def _open_write_mode(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default "r": read-only
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # dynamic mode: treat as a write to stay safe
    return any(flag in mode.value for flag in ("w", "a", "+", "x"))


def _contains_fsync(body: list[ast.stmt]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fsync"
            ):
                return True
    return False


def check_fsync_discipline(
    path: Path, tree: ast.AST, source_lines: list[str]
) -> list[Finding]:
    if not posix(path).endswith(FSYNC_CHECKED_FILES):
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.With):
            continue
        opens_for_write = any(
            isinstance(item.context_expr, ast.Call)
            and _open_write_mode(item.context_expr)
            for item in node.items
        )
        if not opens_for_write or _contains_fsync(node.body):
            continue
        line = source_lines[node.lineno - 1]
        if "# no-fsync:" in line:
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                "L3",
                "file opened for writing without an os.fsync on the "
                "write path; sync it or mark the line '# no-fsync: "
                "<reason>'",
            )
        )
    return findings


# -- L4 ------------------------------------------------------------------------


def _literal_prefix(node: ast.AST) -> str | None:
    """Leading literal text of a str constant or f-string, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
    return None


def _namespace_ok(prefix: str, complete: bool) -> bool:
    for namespace in METRIC_NAMESPACES:
        if complete and prefix == namespace:
            return True
        if prefix.startswith(namespace + "."):
            return True
        # A partial literal may stop inside the namespace word
        # (e.g. an f-string head "wal" + formatted tail).
        if not complete and namespace.startswith(prefix):
            return True
    return False


def check_metric_namespaces(path: Path, tree: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    for scope in ast.walk(tree):
        if not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            continue
        # One-assignment-deep resolution for dynamic name prefixes.
        local_prefixes: dict[str, str] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                prefix = _literal_prefix(node.value)
                if isinstance(target, ast.Name) and prefix is not None:
                    local_prefixes[target.id] = prefix
        for node in ast.walk(scope):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and node.args
            ):
                continue
            name_arg = node.args[0]
            prefix = _literal_prefix(name_arg)
            complete = isinstance(name_arg, ast.Constant)
            if prefix is None and isinstance(name_arg, ast.JoinedStr):
                head = name_arg.values[0]
                if isinstance(head, ast.FormattedValue) and isinstance(
                    head.value, ast.Name
                ):
                    prefix = local_prefixes.get(head.value.id)
                    complete = False
            if prefix is None:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "L4",
                        f"metric name passed to .{node.func.attr}() is "
                        "not statically resolvable; use a literal "
                        "namespace prefix",
                    )
                )
            elif not _namespace_ok(prefix, complete):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "L4",
                        f"metric name {prefix!r} is outside the "
                        "documented namespaces "
                        f"({', '.join(METRIC_NAMESPACES)})",
                    )
                )
    return findings


# -- L6 ------------------------------------------------------------------------


def check_explicit_dtype(path: Path, tree: ast.AST) -> list[Finding]:
    if "exec/operators" not in posix(path):
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in NDARRAY_CONSTRUCTORS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
        # np.zeros(shape, dtype) / np.full(shape, fill, dtype) also
        # accept dtype positionally.
        positional_slot = {"empty": 2, "zeros": 2, "ndarray": 2, "full": 3}
        has_dtype = has_dtype or len(node.args) >= positional_slot[
            node.func.attr
        ]
        if not has_dtype:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "L6",
                    f"np.{node.func.attr}() without an explicit dtype "
                    "defaults to float64 and hides column-type errors",
                )
            )
    return findings


# -- L7 ------------------------------------------------------------------------


def check_stale_markers(path: Path) -> list[Finding]:
    findings: list[Finding] = []
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type != tokenize.COMMENT:
                continue
            if any(word in token.string for word in MARKER_WORDS):
                findings.append(
                    Finding(
                        path,
                        token.start[0],
                        "L7",
                        "stale work marker in source; track it in "
                        "ROADMAP.md 'Open items' instead",
                    )
                )
    return findings


# -- L8 ------------------------------------------------------------------------


def _raw_buffer_read(node: ast.Call) -> str | None:
    """Name the raw-buffer construction *node* performs, if it is one."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name == "as_strided":
        return "as_strided"
    if not (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return None
    if name == "frombuffer":
        return "np.frombuffer"
    if name == "ndarray" and any(kw.arg == "buffer" for kw in node.keywords):
        return "np.ndarray(buffer=...)"
    return None


def check_raw_segment_decode(path: Path, tree: ast.AST) -> list[Finding]:
    if posix(path).endswith(FROMBUFFER_ALLOWED_FILES):
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        what = _raw_buffer_read(node)
        if what is not None:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "L8",
                    f"{what} outside the storage codec layer; "
                    "decode segment payloads through SegmentReader / "
                    "the block cache instead",
                )
            )
    return findings


# -- L9 ------------------------------------------------------------------------

#: Tree that runs on threads alone (L9).
THREADS_ONLY_TREE = "src/repro/"


def _brings_an_event_loop(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return isinstance(node, ast.AsyncFunctionDef)
    return any(module.split(".")[0] == "asyncio" for module in modules)


def check_one_concurrency_model(path: Path, tree: ast.AST) -> list[Finding]:
    if THREADS_ONLY_TREE not in posix(path):
        return []
    return [
        Finding(
            path,
            node.lineno,
            "L9",
            "async def / import asyncio: repro runs on threads alone (a "
            "thread per connection, one writer); no event loop",
        )
        for node in ast.walk(tree)
        if _brings_an_event_loop(node)
    ]


# -- L10 -----------------------------------------------------------------------

#: Patch-set methods that change membership (L10).  ``remap_after_delete``
#: is included even though it only renumbers: a renumber outside the
#: maintainer is just as invisible to WAL replay as an add/remove.
PATCH_MUTATION_METHODS = frozenset(
    {"extend", "add", "remove", "remap_after_delete"}
)


def check_patch_mutation_layer(path: Path, tree: ast.AST) -> list[Finding]:
    if posix(path).endswith(PATCH_MUTATION_FILES):
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PATCH_MUTATION_METHODS
        ):
            continue
        # Receiver heuristic: the project's patch-set handles are named
        # ``...patches...`` ("patches", "self.patches", "partition.patches",
        # "table_patches") — plain containers are not, so list.extend and
        # set.add elsewhere stay legal.
        receiver = ast.unparse(node.func.value).lower()
        if "patches" not in receiver:
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                "L10",
                f"direct patch-set mutation .{node.func.attr}() on "
                f"{ast.unparse(node.func.value)!r}; membership changes "
                "belong to the maintainer (repro.core.maintenance), which "
                "recovery re-runs over the replayed table events",
            )
        )
    return findings


# -- driver --------------------------------------------------------------------


def lint_file(path: Path) -> list[Finding]:
    if is_test_file(path):
        return []  # every rule is a source rule; tests assert freely
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    findings: list[Finding] = []
    findings.extend(check_bare_asserts(path, tree))
    findings.extend(check_lock_discipline(path, tree))
    findings.extend(check_fsync_discipline(path, tree, source.splitlines()))
    findings.extend(check_metric_namespaces(path, tree))
    findings.extend(check_explicit_dtype(path, tree))
    findings.extend(check_raw_segment_decode(path, tree))
    findings.extend(check_one_concurrency_model(path, tree))
    findings.extend(check_patch_mutation_layer(path, tree))
    findings.extend(check_stale_markers(path))
    return findings


#: Every rule this driver can emit (L11-L13 come from tools/lockgraph.py;
#: L5 is retired).
ALL_RULES = tuple(f"L{n}" for n in range(1, 14) if n != 5)

#: The lock-graph rules delegated to the whole-source analyzer.
LOCKGRAPH_RULES = ("L11", "L12", "L13")


def _parse_select(raw: str | None) -> frozenset[str]:
    """``--select L2,L11`` -> rule set; None/empty selects everything."""
    if not raw:
        return frozenset(ALL_RULES)
    selected = frozenset(
        token.strip().upper() for token in raw.split(",") if token.strip()
    )
    unknown = selected - frozenset(ALL_RULES)
    if unknown:
        raise SystemExit(
            f"repro_lint: unknown rule(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(ALL_RULES)}"
        )
    return selected


def _lockgraph_findings(roots: list[str]) -> list[Finding]:
    """Run the lock-graph analyzer (L11-L13) over the source roots."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import lockgraph
    finally:
        sys.path.pop(0)
    return [
        Finding(found.path, found.line, found.rule, found.message)
        for found in lockgraph.analyze(lockgraph.iter_python_files(roots))
    ]


def _emit(findings: list[Finding], fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                [
                    {
                        "path": posix(f.path),
                        "line": f.line,
                        "rule": f.rule,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
        return
    for finding in findings:
        if fmt == "github":
            # One workflow annotation per finding; messages must be
            # newline-free for the ::error command syntax.
            message = finding.message.replace("\n", " ")
            print(
                f"::error file={posix(finding.path)},"
                f"line={finding.line},title={finding.rule}::{message}"
            )
        else:
            print(finding.render())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="Repo-specific invariant lint (rules L1-L13).",
    )
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src", "tests"],
        help="directories or single .py files (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule subset, e.g. --select L2,L11",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github emits ::error workflow annotations)",
    )
    options = parser.parse_args(argv)
    selected = _parse_select(options.select)

    findings: list[Finding] = []
    checked = 0
    for path in iter_python_files(options.roots):
        checked += 1
        findings.extend(lint_file(path))
    if selected & frozenset(LOCKGRAPH_RULES):
        findings.extend(_lockgraph_findings(options.roots))
    findings = [f for f in findings if f.rule in selected]
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    _emit(findings, options.fmt)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"repro_lint: {checked} files checked, {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
