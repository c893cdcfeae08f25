"""Observability: metrics registry and query profiles.

See DESIGN.md § Observability for the metric-name catalogue and the
profile tree format.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    ProfileNode,
    QueryProfile,
    attach_profile,
    profile_collect,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfileNode",
    "QueryProfile",
    "attach_profile",
    "profile_collect",
]
