"""Metric instruments and the registry that owns them.

The observability layer mirrors the self-management premise of the
paper: the engine must *observe its own workload* to decide when
PatchIndexes pay off.  Three instrument kinds cover everything the
engine reports:

- :class:`Counter` — monotonically increasing totals (statements
  executed, patch hits, rows returned);
- :class:`Gauge` — last-written values (current patch ratio of an
  index, open connections);
- :class:`Histogram` — streaming summaries (count / sum / min / max
  plus fixed power-of-two buckets) for durations and row counts.

A :class:`MetricsRegistry` is a thread-safe, get-or-create namespace of
instruments; every :class:`~repro.storage.database.Database` owns one
(``Database.metrics()``).  Export formats: :meth:`MetricsRegistry.export`
(plain dict), :meth:`~MetricsRegistry.to_json` and a Prometheus-flavoured
:meth:`~MetricsRegistry.to_text`.

Metric names are dotted paths (``query.seconds``,
``patchindex.pi_orders.patch_ratio``); the registry enforces that one
name is only ever used for one instrument kind.
"""

from __future__ import annotations

import json
import math
import threading


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-written value (may move in either direction)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


#: Default histogram bucket upper bounds: powers of four spanning
#: microseconds to minutes when observing seconds, and single rows to
#: billions when observing cardinalities.
DEFAULT_BUCKETS = tuple(4.0**exponent for exponent in range(-10, 16))


class Histogram:
    """A streaming summary: count, sum, min, max and bucket counts."""

    __slots__ = (
        "name",
        "_lock",
        "count",
        "total",
        "minimum",
        "maximum",
        "buckets",
        "bucket_counts",
    )

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: int | float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            position = 0
            for bound in self.buckets:
                if value <= bound:
                    break
                position += 1
            self.bucket_counts[position] += 1

    def summary(self) -> dict:
        """Exportable summary (omits empty-histogram infinities).

        Taken under the lock so a concurrent :meth:`observe` can never
        produce a torn snapshot (e.g. a count without its sum).
        """
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.total / self.count,
                "buckets": {
                    f"le_{bound:g}": count
                    for bound, count in zip(self.buckets, self.bucket_counts)
                    if count
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Thread-safe, get-or-create namespace of metric instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_kind(name, self._counters)
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_kind(name, self._gauges)
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            self._check_kind(name, self._histograms)
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, buckets)
            return instrument

    def _check_kind(self, name: str, expected: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not expected and name in family:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        """Snapshot of every instrument as a plain dict."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.export(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Prometheus-flavoured ``name value`` lines, sorted by name."""
        snapshot = self.export()
        lines: list[str] = []
        for name, value in snapshot["counters"].items():
            lines.append(f"{name}_total {value:g}")
        for name, value in snapshot["gauges"].items():
            lines.append(f"{name} {value:g}")
        for name, summary in snapshot["histograms"].items():
            lines.append(f"{name}_count {summary['count']}")
            lines.append(f"{name}_sum {summary['sum']:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
