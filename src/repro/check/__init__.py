"""Static analysis and runtime sanitizers for the repro engine.

:mod:`repro.check.plan_verifier` is the pre-execution plan verifier: a
bottom-up pass over a physical operator tree that proves schema, sort
order, and patch-partitioning properties, and rejects invalid plans with
:class:`~repro.errors.PlanInvariantError` before a single batch flows.

:mod:`repro.check.sanitize` is the runtime concurrency sanitizer
(``REPRO_SANITIZE=1``): instrumented engine locks that detect
acquisition-order inversions, held-time histograms under the
``sanitize`` metric namespace, and a resource ledger that proves
snapshot pins / cache accounting return to zero.

The project-level lint rules (bare asserts, lock discipline, fsync
discipline, metric namespaces, and the L11–L13 lock-graph rules) live in
``tools/repro_lint.py`` + ``tools/lockgraph.py`` — they run on source
text in CI, not on plans.

Exports resolve lazily so that low-level modules (``repro.storage.*``)
can import :func:`~repro.check.sanitize.make_lock` without dragging the
plan verifier's operator imports into their import cycle.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.plan_verifier import (
        OrderProperty,
        PlanProperties,
        verify_plan,
    )
    from repro.check.sanitize import (
        SanitizedLock,
        assert_balanced,
        make_lock,
    )

__all__ = [
    "OrderProperty",
    "PlanProperties",
    "verify_plan",
    "SanitizedLock",
    "assert_balanced",
    "make_lock",
]

_PLAN_EXPORTS = {"OrderProperty", "PlanProperties", "verify_plan"}
_SANITIZE_EXPORTS = {"SanitizedLock", "assert_balanced", "make_lock"}


def __getattr__(name: str):
    if name in _PLAN_EXPORTS:
        from repro.check import plan_verifier

        return getattr(plan_verifier, name)
    if name in _SANITIZE_EXPORTS:
        from repro.check import sanitize

        return getattr(sanitize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
