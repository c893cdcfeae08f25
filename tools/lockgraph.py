#!/usr/bin/env python3
"""Whole-source lock-graph analysis — lint rules L11, L12, L13.

Usage::

    python tools/lockgraph.py src
    python tools/lockgraph.py --select L12 src/repro/storage/engine.py

Unlike the per-file rules in ``repro_lint.py``, these checks need a
*program-wide* view: which classes own which ``threading.Lock`` /
``RLock`` / ``asyncio.Lock`` attributes (including locks built through
``repro.check.sanitize.make_lock``), which ``with`` blocks nest, and —
one call hop deep — which methods acquire locks or block while a caller
already holds one.

Rules
-----

L11 lock-order
    Build the acquisition-order graph: an edge A→B whenever B is
    acquired (directly, or one resolved call away) while A is held.
    Any cycle is a potential deadlock; a self-edge on a non-reentrant
    lock is a guaranteed one.  Reentrant locks may self-nest.

L12 no-blocking-under-lock
    Blocking operations — ``os.fsync``, ``os.replace``, ``open()``,
    any call of the durable-I/O seam's ``DISK``, ``time.sleep``,
    ``shutil.rmtree``, synchronous socket calls, and ``await`` under a
    *threading* lock — stall every other thread queued on that lock.
    Checked directly and one resolved call hop deep.

L13 guarded-attribute-access
    An attribute the class writes under its own lock (outside
    ``__init__``) is *guarded*.  Rebinding-guarded attributes must not
    be read or written outside a lock scope; container-guarded
    attributes (only ever mutated in place under the lock) must not be
    mutated outside one.  Methods named ``*_locked`` are treated as
    executing with the lock already held — and calling one without
    holding the lock is itself a finding.  The same contract applies to
    module globals guarded by a module-level lock.

Any finding can be suppressed with ``# lock-ok: <reason>`` on the
offending line; for L12, a marker on the enclosing ``with`` line
blesses the whole locked block (used for the checkpoint flip, whose
fsyncs under the snapshot lock are the atomicity contract itself).
A marker on a ``with`` line also removes that acquisition's L11 edges.

The resolver is deliberately an under-approximation: receivers resolve
through ``self``, annotated / constructor-assigned attribute types,
annotated parameters, local ``x = ClassName(...)`` bindings, and
imported module-level functions — anything else adds no edge.  Soundness
comes from the runtime half (``repro.check.sanitize``), which watches
the orders actually taken.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

RULES = ("L11", "L12", "L13")

LOCK_FACTORY_NAMES = ("Lock", "RLock", "make_lock")

#: Method names treated as in-place mutation of their receiver (kept in
#: sync with repro_lint.MUTATING_METHODS).
MUTATING_METHODS = frozenset(
    {
        "append", "add", "extend", "update", "pop", "popitem", "clear",
        "remove", "discard", "insert", "setdefault", "sort", "reverse",
    }
)

#: Blocking socket-ish methods flagged regardless of receiver type.
BLOCKING_METHODS = frozenset({"sendall", "recv", "accept", "connect"})

CONSTRUCTOR_NAMES = ("__init__", "__post_init__")

LOCK_OK = "# lock-ok:"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Finding:
    path: Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LockDef:
    key: str            # graph-node id, e.g. "DurableEngine._snapshot_lock"
    kind: str           # "thread" | "async"
    reentrant: bool
    path: Path
    line: int


@dataclass
class FunctionInfo:
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: "ModuleInfo"
    cls: "ClassInfo | None"
    acquires: list[tuple[LockDef, int]] = field(default_factory=list)
    blocking: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    node: ast.ClassDef
    module: "ModuleInfo"
    bases: list[str] = field(default_factory=list)
    locks: dict[str, LockDef] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    path: Path
    tree: ast.Module
    lockok_lines: set[int]
    stem: str
    module_locks: dict[str, LockDef] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)


# -- small AST helpers ---------------------------------------------------------


def _lock_call(node: ast.AST) -> tuple[str, bool] | None:
    """(kind, reentrant) when *node* constructs a lock, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        owner = func.value.id if isinstance(func.value, ast.Name) else ""
    elif isinstance(func, ast.Name):
        name = func.id
        owner = ""
    else:
        return None
    if name not in LOCK_FACTORY_NAMES:
        return None
    kind = "async" if owner == "asyncio" else "thread"
    reentrant = name == "RLock"
    if name == "make_lock":
        kind = "thread"
        for keyword in node.keywords:
            if (
                keyword.arg == "reentrant"
                and isinstance(keyword.value, ast.Constant)
            ):
                reentrant = bool(keyword.value.value)
    return kind, reentrant


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _annotation_names(node: ast.AST) -> list[str]:
    """Identifier candidates inside a type annotation (incl. strings)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _IDENT.findall(node.value)
    names: list[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.append(child.id)
    return names


def _blocking_name(call: ast.Call) -> str | None:
    """Dotted name of a blocking call, or None when the call is safe."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner == "time" and func.attr == "sleep":
                return "time.sleep"
            if owner == "os" and func.attr in ("fsync", "replace"):
                return f"os.{func.attr}"
            if owner == "socket":
                return f"socket.{func.attr}"
            if owner == "shutil" and func.attr == "rmtree":
                return "shutil.rmtree"
        if func.attr in BLOCKING_METHODS:
            return f"<receiver>.{func.attr}"
        if ast.unparse(func.value).endswith("DISK"):  # the durable-I/O seam
            return f"DISK.{func.attr}"
    return None


def _is_locked_name(name: str) -> bool:
    return name.endswith("_locked")


# -- pass 1: collection --------------------------------------------------------


class Program:
    def __init__(self) -> None:
        self.modules: list[ModuleInfo] = []
        self.classes_by_name: dict[str, ClassInfo | None] = {}
        self.functions_by_name: dict[str, FunctionInfo | None] = {}

    # ``None`` marks a name collision: resolution must stay unambiguous.
    def _register(self, table: dict, name: str, value) -> None:
        if name in table:
            table[name] = None
        else:
            table[name] = value

    def load(self, path: Path) -> None:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        lockok = {
            number
            for number, text in enumerate(source.splitlines(), start=1)
            if LOCK_OK in text
        }
        stem = path.stem
        module = ModuleInfo(path, tree, lockok, stem)
        self.modules.append(module)

        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    module.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Assign):
                lock = _lock_call(node.value)
                if lock is not None:
                    kind, reentrant = lock
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            module.module_locks[target.id] = LockDef(
                                f"{stem}.{target.id}", kind, reentrant,
                                path, node.lineno,
                            )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(node.name, node, module, None)
                module.functions[node.name] = info
                self._register(self.functions_by_name, node.name, info)
            elif isinstance(node, ast.ClassDef):
                self._load_class(module, node)

    def _load_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        cls = ClassInfo(node.name, node, module)
        cls.bases = [
            base.id for base in node.bases if isinstance(base, ast.Name)
        ]
        module.classes[node.name] = cls
        self._register(self.classes_by_name, node.name, cls)
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                attr = None
                for target in child.targets:
                    attr = attr or _self_attr(target)
                if attr is None:
                    continue
                lock = _lock_call(child.value)
                if lock is not None:
                    kind, reentrant = lock
                    cls.locks[attr] = LockDef(
                        f"{node.name}.{attr}", kind, reentrant,
                        module.path, child.lineno,
                    )
                elif (
                    isinstance(child.value, ast.Call)
                    and isinstance(child.value.func, ast.Name)
                ):
                    cls.attr_types.setdefault(attr, child.value.func.id)
            elif isinstance(child, ast.AnnAssign):
                attr = _self_attr(child.target)
                if attr is not None:
                    for name in _annotation_names(child.annotation):
                        cls.attr_types.setdefault(attr, name)
                        break
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[method.name] = FunctionInfo(
                    method.name, method, module, cls
                )
                if method.name in CONSTRUCTOR_NAMES:
                    self._propagate_param_types(cls, method)

    def _propagate_param_types(self, cls: ClassInfo, ctor) -> None:
        """``def __init__(self, cache: BlockCache); self._c = cache``."""
        param_types: dict[str, str] = {}
        for arg in ctor.args.args + ctor.args.kwonlyargs:
            if arg.annotation is not None:
                names = _annotation_names(arg.annotation)
                if names:
                    param_types[arg.arg] = names[0]
        for child in ast.walk(ctor):
            if isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Name
            ):
                for target in child.targets:
                    attr = _self_attr(target)
                    if attr and child.value.id in param_types:
                        cls.attr_types.setdefault(
                            attr, param_types[child.value.id]
                        )

    # -- resolution --------------------------------------------------------

    def resolve_class(self, name: str | None) -> ClassInfo | None:
        if not name:
            return None
        return self.classes_by_name.get(name) or None

    def resolve_method(
        self, cls: ClassInfo | None, name: str, depth: int = 0
    ) -> FunctionInfo | None:
        if cls is None or depth > 4:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            found = self.resolve_method(
                self.resolve_class(base), name, depth + 1
            )
            if found is not None:
                return found
        return None


# -- pass 1.5: per-function summaries ------------------------------------------


def _function_locals(fn: FunctionInfo, program: Program) -> dict[str, str]:
    """Local / parameter name -> class-name type, best effort."""
    types: dict[str, str] = {}
    node = fn.node
    for arg in node.args.args + node.args.kwonlyargs:
        if arg.annotation is not None:
            names = _annotation_names(arg.annotation)
            if names and program.resolve_class(names[0]):
                types[arg.arg] = names[0]
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Assign)
            and isinstance(child.value, ast.Call)
            and isinstance(child.value.func, ast.Name)
            and program.resolve_class(child.value.func.id)
        ):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = child.value.func.id
    return types


def _infer_type(
    expr: ast.AST,
    fn: FunctionInfo,
    local_types: dict[str, str],
    program: Program,
    depth: int = 0,
) -> ClassInfo | None:
    """Receiver type of an expression, through attribute chains."""
    if depth > 3:
        return None
    if isinstance(expr, ast.Name):
        if expr.id == "self":
            return fn.cls
        return program.resolve_class(local_types.get(expr.id))
    if isinstance(expr, ast.Attribute):
        owner = _infer_type(expr.value, fn, local_types, program, depth + 1)
        if owner is not None:
            return program.resolve_class(owner.attr_types.get(expr.attr))
    return None


def _resolve_lock_expr(
    expr: ast.AST,
    fn: FunctionInfo,
    local_types: dict[str, str],
    program: Program,
) -> LockDef | None:
    """The LockDef a ``with`` context expression acquires, if known."""
    if isinstance(expr, ast.Name):
        return fn.module.module_locks.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _infer_type(expr.value, fn, local_types, program)
        if owner is not None:
            return owner.locks.get(expr.attr)
    return None


def _iter_skipping_nested_defs(node: ast.AST):
    """Walk *node* without descending into nested function bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def summarize_function(fn: FunctionInfo, program: Program) -> None:
    local_types = _function_locals(fn, program)
    for node in _iter_skipping_nested_defs(fn.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                lock = _resolve_lock_expr(
                    item.context_expr, fn, local_types, program
                )
                if lock is not None:
                    fn.acquires.append((lock, node.lineno))
        elif isinstance(node, ast.Call):
            name = _blocking_name(node)
            if name is not None:
                fn.blocking.append((name, node.lineno))


# -- pass 2: held-lock walk (edges + L12) --------------------------------------


@dataclass(frozen=True)
class Edge:
    src: LockDef
    dst: LockDef
    path: Path
    line: int
    via: str  # "" for a direct nested with, else the callee name


class HeldWalker:
    def __init__(self, program: Program, edges: dict, findings: list):
        self.program = program
        self.edges = edges
        self.findings = findings

    def _suppressed(self, module: ModuleInfo, line: int, held) -> bool:
        if line in module.lockok_lines:
            return True
        return any(
            acquired_line in module.lockok_lines
            and lock.path == module.path
            for lock, acquired_line in held
        )

    def _add_edge(self, src: LockDef, dst: LockDef, module, line, via):
        if src.key == dst.key and src.reentrant:
            return
        key = (src.key, dst.key)
        self.edges.setdefault(
            key, Edge(src, dst, module.path, line, via)
        )

    def _flag_blocking(self, module, line, name, held, via=""):
        if self._suppressed(module, line, held):
            return
        lock_names = ", ".join(sorted({lock.key for lock, _ in held}))
        detail = f" (via {via}())" if via else ""
        self.findings.append(
            Finding(
                module.path,
                line,
                "L12",
                f"blocking call {name}{detail} while holding lock(s) "
                f"{lock_names}; move the slow work outside the lock or "
                "mark the line '# lock-ok: <reason>'",
            )
        )

    def walk_function(self, fn: FunctionInfo) -> None:
        local_types = _function_locals(fn, self.program)
        self._visit_body(fn.node.body, fn, local_types, [])

    def _visit_body(self, body, fn, local_types, held) -> None:
        for statement in body:
            self._visit(statement, fn, local_types, held)

    def _visit(self, node, fn, local_types, held) -> None:
        module = fn.module
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = list(held)
            for item in node.items:
                self._visit(item.context_expr, fn, local_types, held)
                lock = _resolve_lock_expr(
                    item.context_expr, fn, local_types, self.program
                )
                if lock is None:
                    continue
                if node.lineno not in module.lockok_lines:
                    for prior, _ in acquired:
                        self._add_edge(
                            prior, lock, module, node.lineno, ""
                        )
                acquired = acquired + [(lock, node.lineno)]
            self._visit_body(node.body, fn, local_types, acquired)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later, on whichever thread calls them —
            # not under the locks currently held here.
            nested = FunctionInfo(node.name, node, fn.module, fn.cls)
            nested_types = _function_locals(nested, self.program)
            self._visit_body(node.body, nested, nested_types, [])
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Await) and held:
            thread_locks = [
                (lock, line) for lock, line in held if lock.kind == "thread"
            ]
            if thread_locks and not self._suppressed(
                module, node.lineno, held
            ):
                names = ", ".join(
                    sorted({lock.key for lock, _ in thread_locks})
                )
                self.findings.append(
                    Finding(
                        module.path,
                        node.lineno,
                        "L12",
                        f"await while holding threading lock(s) {names}; "
                        "the lock blocks other threads across the "
                        "suspension point",
                    )
                )
        if isinstance(node, ast.Call) and held:
            blocking = _blocking_name(node)
            if blocking is not None:
                self._flag_blocking(module, node.lineno, blocking, held)
            else:
                callee = self._resolve_callee(node, fn, local_types)
                if callee is not None:
                    for lock, _ in callee.acquires:
                        for prior, _ in held:
                            if node.lineno not in module.lockok_lines:
                                self._add_edge(
                                    prior, lock, module, node.lineno,
                                    callee.name,
                                )
                    for name, _ in callee.blocking:
                        self._flag_blocking(
                            module, node.lineno, name, held,
                            via=callee.name,
                        )
        for child in ast.iter_child_nodes(node):
            self._visit(child, fn, local_types, held)

    def _resolve_callee(
        self, call: ast.Call, fn: FunctionInfo, local_types
    ) -> FunctionInfo | None:
        func = call.func
        program = self.program
        if isinstance(func, ast.Name):
            target = fn.module.functions.get(func.id)
            if target is not None:
                return target
            imported = fn.module.imports.get(func.id, func.id)
            resolved = program.functions_by_name.get(imported)
            return resolved
        if isinstance(func, ast.Attribute):
            owner = _infer_type(func.value, fn, local_types, program)
            if owner is not None:
                return program.resolve_method(owner, func.attr)
            if isinstance(func.value, ast.Name):
                cls = program.resolve_class(func.value.id)
                if cls is not None:
                    return program.resolve_method(cls, func.attr)
        return None


# -- L11: cycles ---------------------------------------------------------------


def _strongly_connected(adjacency: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's SCC, iterative (the graph is tiny but recursion is rude)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = [0]

    for root in adjacency:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = sorted(adjacency.get(node, ()))
            if child_index < len(children):
                work[-1] = (node, child_index + 1)
                child = children[child_index]
                if child not in index:
                    work.append((child, 0))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def find_cycles(edges: dict[tuple[str, str], Edge]) -> list[Finding]:
    adjacency: dict[str, set[str]] = {}
    for (src, dst), _ in edges.items():
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set())
    findings: list[Finding] = []
    for component in _strongly_connected(adjacency):
        members = sorted(component)
        cyclic = len(members) > 1
        for (src, dst), edge in sorted(edges.items()):
            in_cycle = cyclic and src in component and dst in component
            self_deadlock = src == dst and not edge.src.reentrant
            if not (in_cycle or self_deadlock):
                continue
            if self_deadlock and src not in component:
                continue
            via = f" via {edge.via}()" if edge.via else ""
            if self_deadlock:
                message = (
                    f"non-reentrant lock {src} re-acquired while already "
                    f"held{via}; this self-deadlocks — use make_lock("
                    "reentrant=True) or restructure"
                )
            else:
                message = (
                    f"lock-order cycle {' -> '.join(members)} -> "
                    f"{members[0]}: edge {src} -> {dst} acquired "
                    f"here{via}, opposite order exists elsewhere"
                )
            findings.append(Finding(edge.path, edge.line, "L11", message))
    # Deduplicate self-deadlock edges reported once per component pass.
    return sorted(set(findings), key=lambda f: (str(f.path), f.line))


# -- L13: guarded attribute access ---------------------------------------------


class GuardedAttrChecker:
    """Per-class (and per-module) guarded-state access checking."""

    def __init__(self, program: Program, findings: list[Finding]):
        self.program = program
        self.findings = findings

    # -- shared machinery --------------------------------------------------

    def _collect(self, fn_nodes, lock_names, owned_attr, locked_default):
        """(rebind_guarded, container_guarded) over the given functions."""
        rebind: set[str] = set()
        container: set[str] = set()

        def scan(node, locked):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = locked or _with_uses(node, lock_names)
                for item in node.items:
                    scan(item.context_expr, locked)
                for child in node.body:
                    scan(child, inner)
                return
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                body = (
                    node.body
                    if not isinstance(node, ast.Lambda)
                    else [node.body]
                )
                for child in body:
                    scan(child, False)
                return
            if locked:
                for attr, kind in _written_attrs(node, owned_attr):
                    if attr in lock_names:
                        continue
                    (rebind if kind == "rebind" else container).add(attr)
            for child in ast.iter_child_nodes(node):
                scan(child, locked)

        for fn_node, locked_start in fn_nodes:
            for statement in fn_node.body:
                scan(statement, locked_start or locked_default)
        return rebind, container

    def _check(
        self,
        fn,
        lock_names,
        owned_attr,
        rebind,
        container,
        locked_methods,
        locked_start,
    ):
        module = fn.module

        def flag(line, message):
            if line not in module.lockok_lines:
                self.findings.append(
                    Finding(module.path, line, "L13", message)
                )

        def visit(node, locked):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = locked or _with_uses(node, lock_names)
                for item in node.items:
                    visit(item.context_expr, locked)
                for child in node.body:
                    visit(child, inner)
                return
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                body = (
                    node.body
                    if not isinstance(node, ast.Lambda)
                    else [node.body]
                )
                for child in body:
                    visit(child, False)
                return
            if not locked:
                for attr, kind in _written_attrs(node, owned_attr):
                    if attr in rebind or attr in container:
                        flag(
                            node.lineno,
                            f"write to lock-guarded {attr!r} outside the "
                            "owning lock",
                        )
                callee = None
                if isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                    ):
                        callee = node.func.attr
                    elif isinstance(node.func, ast.Name):
                        callee = node.func.id
                if (
                    callee is not None
                    and _is_locked_name(callee)
                    and callee in locked_methods
                ):
                    flag(
                        node.lineno,
                        f"call to {callee}() without holding the "
                        "lock its name promises",
                    )
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                ):
                    attr = owned_attr(node)
                    if attr in rebind:
                        flag(
                            node.lineno,
                            f"read of lock-guarded {attr!r} outside the "
                            "owning lock",
                        )
            # Do not re-read assignment targets as loads.
            children = _visit_children(node)
            for child in children:
                visit(child, locked)

        for statement in fn.node.body:
            visit(statement, locked_start)

    # -- class-level -------------------------------------------------------

    def check_class(self, cls: ClassInfo) -> None:
        if not cls.locks:
            return
        lock_names = set(cls.locks)
        collect_nodes = [
            (method.node, _is_locked_name(name))
            for name, method in cls.methods.items()
            if name not in CONSTRUCTOR_NAMES
        ]
        rebind, container = self._collect(
            collect_nodes, lock_names, _self_attr, False
        )
        if not rebind and not container:
            return
        locked_methods = {
            name for name in cls.methods if _is_locked_name(name)
        }
        for name, method in cls.methods.items():
            if name in CONSTRUCTOR_NAMES or _is_locked_name(name):
                continue
            self._check(
                method, lock_names, _self_attr, rebind, container,
                locked_methods, False,
            )

    # -- module-level ------------------------------------------------------

    def check_module(self, module: ModuleInfo) -> None:
        if not module.module_locks:
            return
        lock_names = set(module.module_locks)

        def global_name(node):
            if isinstance(node, ast.Name):
                return node.id
            return None

        collect_nodes = [
            (fn.node, _is_locked_name(name))
            for name, fn in module.functions.items()
        ]
        rebind, container = self._collect(
            collect_nodes, lock_names, global_name, False
        )
        # Only names actually declared ``global`` somewhere are shared
        # module state; plain locals shadow freely.
        declared = {
            name
            for fn in module.functions.values()
            for stmt in ast.walk(fn.node)
            if isinstance(stmt, ast.Global)
            for name in stmt.names
        }
        rebind &= declared
        container &= declared
        if not rebind and not container:
            return
        locked_functions = {
            name for name in module.functions if _is_locked_name(name)
        }
        for name, fn in module.functions.items():
            if _is_locked_name(name):
                continue

            def scoped(node, names=rebind | container, fn=fn):
                # Within a function, only names it declares global (or
                # reads without local binding) refer to module state;
                # keep it simple and only check declared globals plus
                # bare reads of guarded names.
                return global_name(node)

            self._check(
                fn, lock_names, scoped, rebind, container,
                locked_functions, False,
            )


def _with_uses(node, lock_names: set[str]) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr in lock_names:
            return True
        if isinstance(expr, ast.Name) and expr.id in lock_names:
            return True
    return False


def _written_attrs(node: ast.AST, owned_attr) -> list[tuple[str, str]]:
    """(attr, "rebind"|"container") pairs this statement writes."""
    written: list[tuple[str, str]] = []

    def target_attrs(target, kind):
        attr = owned_attr(target)
        if attr is not None:
            written.append((attr, kind))
            return
        if isinstance(target, ast.Subscript):
            attr = owned_attr(target.value)
            if attr is not None:
                written.append((attr, "container"))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                target_attrs(element, kind)

    if isinstance(node, ast.Assign):
        for target in node.targets:
            target_attrs(target, "rebind")
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        target_attrs(node.target, "rebind")
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            target_attrs(target, "rebind")
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            attr = owned_attr(func.value)
            if attr is not None:
                written.append((attr, "container"))
    return written


def _visit_children(node: ast.AST) -> list[ast.AST]:
    """Children to recurse into, minus store-context attribute targets."""
    if isinstance(node, ast.Assign):
        children: list[ast.AST] = [node.value]
        for target in node.targets:
            children.extend(_target_read_parts(target))
        return children
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        children = [node.value] if node.value is not None else []
        children.extend(_target_read_parts(node.target))
        return children
    if isinstance(node, ast.Delete):
        children = []
        for target in node.targets:
            children.extend(_target_read_parts(target))
        return children
    return list(ast.iter_child_nodes(node))


def _target_read_parts(target: ast.AST) -> list[ast.AST]:
    """Sub-expressions of an assignment target that are genuine reads."""
    if isinstance(target, ast.Subscript):
        # ``self._d[k] = v`` reads k (and conceptually self._d, but that
        # read is the container mutation already classified).
        return [target.slice]
    if isinstance(target, (ast.Tuple, ast.List)):
        parts: list[ast.AST] = []
        for element in target.elts:
            parts.extend(_target_read_parts(element))
        return parts
    if isinstance(target, ast.Attribute):
        return []
    if isinstance(target, ast.Starred):
        return _target_read_parts(target.value)
    return [target] if not isinstance(target, ast.Name) else []


# -- driver --------------------------------------------------------------------


def iter_python_files(roots: list[str]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        else:
            files.extend(sorted(path.rglob("*.py")))
    return [
        path
        for path in files
        if "tests" not in path.parts and not path.name.startswith("test_")
    ]


def analyze(paths: list[Path]) -> list[Finding]:
    program = Program()
    for path in paths:
        program.load(path)

    all_functions: list[FunctionInfo] = []
    for module in program.modules:
        all_functions.extend(module.functions.values())
        for cls in module.classes.values():
            all_functions.extend(cls.methods.values())
    for fn in all_functions:
        summarize_function(fn, program)

    findings: list[Finding] = []
    edges: dict[tuple[str, str], Edge] = {}
    walker = HeldWalker(program, edges, findings)
    for fn in all_functions:
        walker.walk_function(fn)
    findings.extend(find_cycles(edges))

    guarded = GuardedAttrChecker(program, findings)
    for module in program.modules:
        guarded.check_module(module)
        for cls in module.classes.values():
            guarded.check_class(cls)

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", default=["src"])
    parser.add_argument(
        "--select",
        default=",".join(RULES),
        help="comma-separated rule subset, e.g. L11,L12",
    )
    options = parser.parse_args(argv)
    selected = {rule.strip() for rule in options.select.split(",") if rule}
    findings = [
        finding
        for finding in analyze(iter_python_files(options.roots or ["src"]))
        if finding.rule in selected
    ]
    for finding in findings:
        print(finding.render())
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"lockgraph: {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
