"""Dependency-free observability: metrics, traces, Prometheus exposition.

The package has two halves:

* :mod:`repro.obs.metrics` — thread-safe, lock-striped
  :class:`MetricsRegistry` holding :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families, rendered to Prometheus text exposition by
  :func:`render_prometheus`; plus the shared nearest-rank
  :func:`quantile` the bench suite reports.
* :mod:`repro.obs.trace` — per-request :class:`Trace` lifecycle spans
  (admission → queue wait → claim → execute/memo/fuse → resolve),
  reachable from futures via :func:`trace_of`, with an optional
  :class:`EventLog` JSONL flight recorder.

Component-local registries (a scheduler's, a session's) keep per-instance
``stats()`` views working; the process-wide :func:`global_registry` is
where the core execution layers (tier selection, plan steps, fusion)
report, since plan execution is not tied to any one session.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    parse_exposition,
    quantile,
    render_prometheus,
)
from repro.obs.trace import EventLog, Trace, trace_of

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Trace",
    "global_registry",
    "parse_exposition",
    "quantile",
    "render_prometheus",
    "trace_of",
]

_GLOBAL_LOCK = threading.Lock()
_GLOBAL_REGISTRY: MetricsRegistry | None = None


def global_registry() -> MetricsRegistry:
    """The process-wide registry the core execution layers report into.

    Tier selections, fallbacks, per-plan and per-step timings and
    fused-batch counters are process-global facts (plan execution is
    shared machinery, not per-session state), so they live here; serving
    components keep their own registries and the HTTP front-end composes
    all of them into one ``/metrics`` page.
    """
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY
