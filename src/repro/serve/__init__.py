"""The concurrent serving subsystem (scheduler, server, HTTP front-end).

Layers, bottom-up:

* :class:`~repro.serve.request.Request` — the hashable unit of work: an
  evaluation family plus canonical parameters;
* :class:`~repro.engine.session.EngineSession` (from :mod:`repro.engine`)
  — the one session a server binds: its annotated databases, columnar
  views, packed Shapley kernel state and result memo serve every worker
  thread;
* :class:`~repro.serve.scheduler.Scheduler` — bound to that session: a
  thread-safe queue plus worker threads, coalescing duplicate in-flight
  requests (single-flight) and claiming a binding sweep's pending
  requests together, each answered over its section (per-fact
  Shapley/Banzhaf requests all read the session's one sweep);
* :class:`~repro.serve.server.Server` — the futures front-end
  (``submit``/``map``/``close``) binding one serving target, backing the
  ``repro serve`` CLI and the ``serve`` bench scenario.

Cross-cutting robustness (all default-off; see
:mod:`repro.serve.admission` and :mod:`repro.serve.faults`):
:class:`~repro.serve.admission.AdmissionControl` bounds the queue, rate
limits per family and applies deadlines (enforced at claim time with
:class:`~repro.exceptions.DeadlineExceeded`);
:class:`~repro.serve.admission.CircuitBreaker` degrades a failing
session's kernel tier (bit-identically) before failing fast; the
scheduler supervises its workers, respawning dead ones and re-queueing
their claimed requests; and :class:`~repro.serve.faults.FaultInjector`
is the seeded chaos harness that proves all of the above in
``tests/test_faults.py``.

Every request, a claimed sibling's included, is executed once through
the session's memoizing
:meth:`~repro.engine.session.EngineSession.request_batch` entry point (a
claimed batch in one call), so all answers are bit-identical to serial
one-shot evaluation.

The stack is network-reachable through
:class:`~repro.serve.http.HttpFrontend` (stdlib asyncio; ``repro serve
--http PORT``) and observable end to end through :mod:`repro.obs`:
per-family request counters, latency histograms and queue/breaker gauges
compose into one Prometheus exposition at ``GET /metrics``, and every
request carries a :class:`repro.obs.Trace` of its lifecycle.
"""

from repro.serve.admission import (
    AdmissionControl,
    CircuitBreaker,
    TokenBucket,
)
from repro.serve.faults import FaultInjector, FaultPlan, WorkerKilled
from repro.serve.http import HttpFrontend
from repro.serve.io import load_request_stream, request_from_dict
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler
from repro.serve.server import Server, serve_requests

__all__ = [
    "AdmissionControl",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "HttpFrontend",
    "Request",
    "Scheduler",
    "Server",
    "TokenBucket",
    "WorkerKilled",
    "load_request_stream",
    "request_from_dict",
    "serve_requests",
]
