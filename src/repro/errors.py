"""Exception hierarchy for the repro engine.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses are
raised close to the failure site and carry a human-readable message.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """A catalog object (table, index) is missing or already exists."""


class SchemaError(ReproError):
    """A schema is malformed or a column reference cannot be resolved."""


class TypeMismatchError(SchemaError):
    """A value or expression has an incompatible data type."""


class StorageError(ReproError):
    """Low-level storage invariant violated (rowids, partitions, blocks)."""


class ConstraintError(ReproError):
    """An approximate-constraint definition or validation failed."""


class ThresholdExceededError(ConstraintError):
    """The discovered exception rate exceeds the configured threshold."""

    def __init__(self, column: str, rate: float, threshold: float):
        self.column = column
        self.rate = rate
        self.threshold = threshold
        super().__init__(
            f"column {column!r}: exception rate {rate:.4f} exceeds "
            f"threshold {threshold:.4f}"
        )


class ExecutionError(ReproError):
    """A physical operator failed during query execution."""


class PlanError(ReproError):
    """A logical plan is invalid or cannot be converted to physical form."""


class PlanInvariantError(PlanError):
    """A physical plan violates a statically checkable invariant.

    Raised by the pre-execution plan verifier
    (:mod:`repro.check.plan_verifier`).  *rule* names the violated rule
    from the catalogue in DESIGN.md §6 (e.g. ``"merge-input-order"``),
    so tests and tools can assert on the exact invariant that failed.
    """

    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"[{rule}] {message}")


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class BindError(SqlError):
    """A parsed SQL statement references unknown objects or is unsupported."""


class WalError(ReproError):
    """The write-ahead log is corrupt or cannot be replayed."""


class ProtocolError(ReproError):
    """A client/server wire frame is malformed or violates the protocol.

    Raised on oversized or truncated frames, payloads that are not a
    JSON object, and requests without a recognised ``op``.
    """


class ConnectionClosedError(ReproError):
    """The server connection closed before (or while) a reply arrived."""


class LockOrderError(ReproError):
    """The runtime sanitizer observed a lock-acquisition order inversion.

    Raised by :class:`repro.check.sanitize.SanitizedLock` when a thread
    acquires lock *second* while holding *first*, but some earlier
    acquisition (recorded in the global order graph) took them the other
    way around — the classic two-thread deadlock shape, surfaced on the
    first inverted acquisition instead of the eventual hang.  Carries
    both acquisition stacks so the report names the two call sites that
    disagree about the order.
    """

    def __init__(
        self,
        first: str,
        second: str,
        current_stack: str,
        prior_stack: str,
    ):
        self.first = first
        self.second = second
        self.current_stack = current_stack
        self.prior_stack = prior_stack
        super().__init__(
            f"lock order inversion: acquiring {second!r} while holding "
            f"{first!r}, but the recorded order graph already has "
            f"{second!r} held while acquiring {first!r}\n"
            f"-- this acquisition ({first!r} -> {second!r}) --\n"
            f"{current_stack}\n"
            f"-- recorded acquisition ({second!r} -> {first!r}) --\n"
            f"{prior_stack}"
        )


class ResourceLeakError(ReproError):
    """A sanitized resource balance did not return to zero.

    Raised by :func:`repro.check.sanitize.assert_balanced` when snapshot
    pins or cache accounting are left outstanding — or a token nobody
    tracked was released — at a checkpoint the caller declared quiescent
    (test teardown).  The message lists each unbalanced resource with
    the stack that acquired (or released) it.
    """
