"""What is left of parallel execution: one no-op.

Execution is serial (DESIGN.md, "Why serial"); nothing here starts a
thread or a process.
"""


def shutdown_process_pool() -> None:
    """Do nothing: there is no pool.  Only bench_e2e/tracing.py calls it."""
