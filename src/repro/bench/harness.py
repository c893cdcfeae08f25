"""Timing harness shared by the paper-reproduction benchmarks.

``pytest-benchmark`` drives per-figure microbenchmarks; for the
multi-series sweeps (Figures 4–6) the benchmarks also print the full
series the paper plots, which this module measures with a simple
best-of-N wall-clock harness (the paper reports single query runtimes
on a warm system).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class MeasuredRun:
    """Result of measuring one callable."""

    seconds: float
    repeats: int
    all_seconds: tuple[float, ...]
    result: object

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


def measure(
    func: Callable[[], object],
    repeats: int = 3,
    warmup: int = 1,
) -> MeasuredRun:
    """Best-of-*repeats* wall time of ``func()`` after *warmup* calls."""
    result: object = None
    for __ in range(warmup):
        result = func()
    times: list[float] = []
    for __ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - started)
    return MeasuredRun(min(times), repeats, tuple(times), result)
