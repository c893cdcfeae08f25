"""Runtime concurrency sanitizer — opt-in via ``REPRO_SANITIZE=1``.

The static layer (``tools/lockgraph.py``, lint rules L11–L13) proves
what it can about lock order and guarded state from source text alone.
This module is the runtime half of the same contract:

* :func:`make_lock` is the factory the engine's hot locks go through.
  With the knob off it returns a plain :class:`threading.Lock` /
  ``RLock`` — zero overhead, nothing changes.  With ``REPRO_SANITIZE=1``
  it returns a :class:`SanitizedLock` that

  - records every *held → acquiring* lock pair into a global order
    graph, keyed by lock **name** (instances of the same lock site share
    a node, matching the static graph's granularity), and raises a typed
    :class:`~repro.errors.LockOrderError` carrying both acquisition
    stacks the moment an inversion appears — no need to actually hit the
    deadlock interleaving;
  - exports held-time histograms through a dedicated
    :class:`~repro.obs.metrics.MetricsRegistry` under the ``sanitize``
    namespace (``sanitize.lock.<name>.held_seconds``).

* :class:`ResourceLedger` tracks balanced acquire/release of leakable
  resources — snapshot pins — with the acquiring stack kept per token.
  :func:`assert_balanced` raises
  :class:`~repro.errors.ResourceLeakError` listing every outstanding
  token and every release of a token nobody tracked; the test-suite
  teardown fixture calls it after each test.

* :func:`register_cache` keeps a weak set of live
  :class:`~repro.storage.cache.BlockCache` instances so teardown can
  cross-check each cache's byte/entry accounting against its actual
  entries (``verify_caches``).

The sanitizer's own bookkeeping uses raw ``threading.Lock`` objects and
the metrics registry's internal (raw) locks — sanitized locks must never
be needed to *record* sanitized locks, or instrumentation would recurse.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import weakref
from typing import TYPE_CHECKING

from repro.errors import LockOrderError, ResourceLeakError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.cache import BlockCache

ENV_FLAG = "REPRO_SANITIZE"

#: Sanitizer-owned instruments, separate from any Database registry so
#: held-time histograms survive engine open/close cycles within a test.
#: Created lazily: storage modules import :func:`make_lock` at import
#: time, and the metrics import would drag the operator tree with it.
_registry: "MetricsRegistry | None" = None


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get(ENV_FLAG, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def registry() -> "MetricsRegistry":
    """The sanitizer's own metrics registry (``sanitize.*`` namespace)."""
    global _registry
    if _registry is None:
        from repro.obs.metrics import MetricsRegistry

        _registry = MetricsRegistry()
    return _registry


def _capture_stack(skip: int = 2) -> str:
    """A compact formatted stack of the caller, newest frame last."""
    frames = traceback.format_stack()[:-skip]
    # Keep the last few frames: enough to name the call site without
    # dumping the whole pytest bootstrap into every error message.
    return "".join(frames[-6:]).rstrip()


# -- lock order graph ----------------------------------------------------------

#: Guards the order graph and the per-thread held stacks registry.  A
#: raw lock on purpose: see the module docstring's recursion note.
_graph_lock = threading.Lock()

#: (first_name, second_name) -> stack captured when ``second`` was first
#: acquired while ``first`` was held.
_order_edges: dict[tuple[str, str], str] = {}

_held_local = threading.local()


def _held_stack() -> list["SanitizedLock"]:
    stack = getattr(_held_local, "stack", None)
    if stack is None:
        stack = []
        _held_local.stack = stack
    return stack


def order_edges() -> dict[tuple[str, str], str]:
    """Snapshot of the observed acquisition-order edges (name pairs)."""
    with _graph_lock:
        return dict(_order_edges)


def reset_order_graph() -> None:
    """Forget all recorded edges (test isolation helper)."""
    with _graph_lock:
        _order_edges.clear()


class SanitizedLock:
    """A ``threading.Lock``/``RLock`` wrapper that checks acquisition order.

    Context-manager compatible with the locks it replaces.  Reentrant
    acquisitions of a reentrant lock are recognised per-thread and do
    not add order edges (nor double-count held time).
    """

    def __init__(self, name: str, *, reentrant: bool = False):
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._acquired_at = 0.0

    # -- order checking ----------------------------------------------------

    def _check_order(self, held: list["SanitizedLock"]) -> None:
        current_stack = None
        for prior in held:
            if prior.name == self.name:
                continue  # reentrant pair or sibling instance; no edge
            key = (self.name, prior.name)  # the *inverted* direction
            with _graph_lock:
                inverted = _order_edges.get(key)
            if inverted is not None:
                if current_stack is None:
                    current_stack = _capture_stack()
                raise LockOrderError(
                    prior.name, self.name, current_stack, inverted
                )

    def _record_edges(self, held: list["SanitizedLock"]) -> None:
        stack = None
        for prior in held:
            if prior.name == self.name:
                continue
            key = (prior.name, self.name)
            with _graph_lock:
                known = key in _order_edges
            if not known:
                if stack is None:
                    stack = _capture_stack()
                with _graph_lock:
                    _order_edges.setdefault(key, stack)

    # -- lock protocol -----------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _held_stack()
        already_held = any(entry is self for entry in held)
        if already_held and not self.reentrant:
            # Re-acquiring a non-reentrant lock on the same thread can
            # only block forever; report it instead of hanging.
            stack = _capture_stack()
            raise LockOrderError(self.name, self.name, stack, stack)
        reacquire = self.reentrant and already_held
        if not reacquire:
            self._check_order(held)
        got = self._inner.acquire(blocking, timeout)
        if got:
            if not reacquire:
                self._record_edges(held)
            held.append(self)
            if not reacquire:
                self._acquired_at = time.perf_counter()
        return got

    def release(self) -> None:
        held = _held_stack()
        for index in range(len(held) - 1, -1, -1):
            if held[index] is self:
                del held[index]
                break
        still_held = any(entry is self for entry in held)
        if not still_held:
            elapsed = time.perf_counter() - getattr(
                self, "_acquired_at", time.perf_counter()
            )
            registry().histogram(
                f"sanitize.lock.{self.name}.held_seconds"
            ).observe(elapsed)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        if inner_locked is not None:
            return inner_locked()
        return False  # pragma: no cover - RLock has no locked() pre-3.12

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"SanitizedLock({self.name!r}, {kind})"


def make_lock(name: str, *, reentrant: bool = False):
    """An engine lock: plain when the sanitizer is off, wrapped when on.

    ``name`` keys the order graph and the held-time histogram; use a
    stable dotted site name (``storage.engine.snapshot``), not a
    per-instance identity, so the runtime graph lines up with the static
    one in ``tools/lockgraph.py``.
    """
    if not enabled():
        return threading.RLock() if reentrant else threading.Lock()
    return SanitizedLock(name, reentrant=reentrant)


# -- resource ledger -----------------------------------------------------------


class ResourceLedger:
    """Balanced acquire/release accounting for leakable resources.

    Tokens are counted per ``(kind, token)`` pair, each with the stack
    of its most recent acquisition.  Every resource is acquired and
    released in this one process, so a release of a token that was
    never tracked (or already fully released) is itself an imbalance:
    it is kept, with the releasing stack, and reported by
    :meth:`unmatched` rather than ignored.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self._stacks: dict[tuple[str, str], str] = {}
        self._unmatched: list[tuple[str, str, str]] = []

    def track(self, kind: str, token: str) -> None:
        key = (kind, str(token))
        stack = _capture_stack()
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self._stacks[key] = stack
            count = sum(
                value for (k, _), value in self._counts.items() if k == kind
            )
        registry().gauge(f"sanitize.resources.{kind}").set(count)

    def release(self, kind: str, token: str) -> None:
        key = (kind, str(token))
        with self._lock:
            if key not in self._counts:
                self._unmatched.append((*key, _capture_stack()))
                return
            self._counts[key] -= 1
            if self._counts[key] <= 0:
                del self._counts[key]
                self._stacks.pop(key, None)
            count = sum(
                value for (k, _), value in self._counts.items() if k == kind
            )
        registry().gauge(f"sanitize.resources.{kind}").set(count)

    def balances(self) -> dict[str, int]:
        """Outstanding count per kind (zero entries omitted)."""
        with self._lock:
            totals: dict[str, int] = {}
            for (kind, _), count in self._counts.items():
                totals[kind] = totals.get(kind, 0) + count
            return totals

    def outstanding(self) -> list[tuple[str, str, int, str]]:
        """(kind, token, count, acquiring stack) for each open token."""
        with self._lock:
            return [
                (kind, token, count, self._stacks.get((kind, token), ""))
                for (kind, token), count in sorted(self._counts.items())
            ]

    def unmatched(self) -> list[tuple[str, str, str]]:
        """(kind, token, releasing stack) for each never-tracked release."""
        with self._lock:
            return list(self._unmatched)

    def reset(self) -> None:
        with self._lock:
            kinds = {kind for kind, _ in self._counts}
            self._counts.clear()
            self._stacks.clear()
            self._unmatched.clear()
        for kind in kinds:
            registry().gauge(f"sanitize.resources.{kind}").set(0)


_ledger = ResourceLedger()


def ledger() -> ResourceLedger:
    return _ledger


def track_resource(kind: str, token: str) -> None:
    """Record one acquisition of a leakable resource (no-op when off)."""
    if enabled():
        _ledger.track(kind, token)


def release_resource(kind: str, token: str) -> None:
    """Record one release of a leakable resource (no-op when off)."""
    if enabled():
        _ledger.release(kind, token)


# -- cache cross-checks --------------------------------------------------------

_caches: "weakref.WeakSet[BlockCache]" = weakref.WeakSet()


def register_cache(cache: "BlockCache") -> None:
    """Keep a weak reference to a live cache for teardown verification."""
    _caches.add(cache)


def verify_caches() -> list[str]:
    """Accounting mismatches across all live BlockCaches (empty = good)."""
    problems: list[str] = []
    for cache in list(_caches):
        mismatch = cache.verify_accounting()
        if mismatch:
            problems.append(mismatch)
    return problems


# -- teardown assertion --------------------------------------------------------


def check_balances() -> list[str]:
    """All outstanding imbalances, formatted one per entry (empty = good)."""
    problems: list[str] = []
    for kind, token, count, stack in _ledger.outstanding():
        where = f"\n  acquired at:\n{stack}" if stack else ""
        problems.append(
            f"{kind} {token!r} outstanding (count={count}){where}"
        )
    for kind, token, stack in _ledger.unmatched():
        where = f"\n  released at:\n{stack}" if stack else ""
        problems.append(f"{kind} {token!r} released but never tracked{where}")
    problems.extend(verify_caches())
    return problems


def assert_balanced() -> None:
    """Raise :class:`ResourceLeakError` unless every balance is zero."""
    problems = check_balances()
    if problems:
        raise ResourceLeakError(
            "sanitizer found unbalanced resources at teardown:\n- "
            + "\n- ".join(problems)
        )


def reset() -> None:
    """Clear ledger and order graph between tests (registry persists)."""
    _ledger.reset()
    reset_order_graph()
