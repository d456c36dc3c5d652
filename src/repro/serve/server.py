"""Server: the futures front-end over one session and a scheduler.

The ergonomic entry point of the serving subsystem::

    from repro import Engine, Request, Server

    with Server(query, probabilistic=pdb, workers=4) as server:
        future = server.submit(Request.make("pqe"))
        answers = server.map([Request.make("pqe"), Request.make("resilience")])

Every server opens **one** :class:`~repro.engine.session.EngineSession`
over its ``(query, data sources)`` target and binds it to one
:class:`~repro.serve.scheduler.Scheduler`, so duplicate in-flight
requests execute once, per-fact Shapley/Banzhaf requests read one
memoized sweep, and repeated requests are served from the session memo.

>>> from fractions import Fraction
>>> from repro import Fact, ProbabilisticDatabase, Request, Server, parse_query
>>> query = parse_query("Q() :- R(X), S(X)")
>>> pdb = ProbabilisticDatabase({
...     Fact("R", (1,)): Fraction(1, 2),
...     Fact("S", (1,)): Fraction(1, 2),
... })
>>> with Server(query, probabilistic=pdb, workers=2) as server:
...     answers = server.map([
...         Request.make("pqe", exact=True),
...         Request.make("expected_count", exact=True),
...     ])
>>> answers
[Fraction(1, 4), Fraction(1, 4)]
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Iterable, Sequence

from repro.engine import Engine
from repro.query.bcq import BCQ
from repro.serve.admission import AdmissionControl, CircuitBreaker
from repro.serve.faults import FaultInjector
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler


class Server:
    """Concurrent request serving for one query over one set of data sources.

    Parameters
    ----------
    query:
        The SJF-BCQ every request evaluates.
    engine:
        Engine configuration (policy, kernel mode, memo limit).
    workers:
        Scheduler worker-thread count.
    admission:
        :class:`~repro.serve.admission.AdmissionControl` — bounded queue,
        per-family rate limits and default deadline.  Defaults to
        no-limits admission (the pre-robustness behavior).
    breaker:
        Optional :class:`~repro.serve.admission.CircuitBreaker` degrading
        (then failing fast) the session on repeated kernel failures; one
        breaker serves one server.
    faults:
        Optional :class:`~repro.serve.faults.FaultInjector` — the seeded
        chaos harness (tests only).
    event_log:
        Optional :class:`repro.obs.EventLog` receiving one JSON line per
        resolved request (forwarded to the scheduler).
    **data:
        The session data sources (``database=``, ``probabilistic=``,
        ``exogenous=``/``endogenous=``, ``repair=``, ``annotated=`` — see
        :meth:`repro.engine.engine.Engine.open`).
    """

    def __init__(
        self,
        query: BCQ,
        *,
        engine: Engine | None = None,
        workers: int = 4,
        admission: AdmissionControl | None = None,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
        event_log=None,
        **data,
    ):
        self.session = (engine or Engine()).open(query, **data)
        self.scheduler = Scheduler(
            self.session,
            workers=workers,
            admission=admission,
            breaker=breaker,
            faults=faults,
            event_log=event_log,
        )

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Future:
        """Submit one request; the future resolves to its answer.

        A memo hit's future is already resolved when this returns (see
        :meth:`~repro.serve.scheduler.Scheduler.submit`).
        """
        return self.scheduler.submit(request)

    def map(self, requests: Iterable[Request]) -> list:
        """Submit *requests* and gather their answers in input order.

        Raises the first failing request's exception (after all submitted
        work has been enqueued), like ``concurrent.futures`` executors.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop the scheduler."""
        self.scheduler.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Scheduler counters plus the bound session's cache statistics."""
        return {
            "scheduler": self.scheduler.stats(),
            "session": self.session.stats(),
        }

    def metrics_registries(self) -> list:
        """Every registry behind this server, for one composed exposition.

        Scheduler (requests, latency, queue, admission, breaker, sibling
        claims), session state (evaluations, memo) and the process-wide
        core-engine registry (tiers, section-run fallbacks, plan cache) —
        the HTTP front-end renders all of them into one ``/metrics`` page
        via :func:`repro.obs.render_prometheus`.
        """
        from repro.obs import global_registry

        return [
            self.scheduler.metrics_registry,
            self.session.metrics_registry,
            global_registry(),
        ]

    def render_metrics(self) -> str:
        """The composed Prometheus text exposition for this server."""
        from repro.obs import render_prometheus

        return render_prometheus(self.metrics_registries())

    def health(self) -> dict:
        """A liveness/readiness summary for ``GET /healthz``.

        ``ok`` is ``False`` only when the breaker holds the session *open*
        (failing fast) — a degraded session still answers, bit-identically,
        on the fallback tier.
        """
        scheduler = self.scheduler.stats()
        breaker = scheduler["breaker"]
        breaker_open = breaker["open"] if breaker else 0
        return {
            "ok": breaker_open == 0,
            "queued": scheduler["queued"],
            "pending": scheduler["pending"],
            "workers": scheduler["workers"],
            "breaker_open": breaker_open,
            "breaker_degraded": breaker["degraded"] if breaker else 0,
        }

    def __repr__(self) -> str:
        return (
            f"Server({self.session!r}, "
            f"workers={self.scheduler.workers})"
        )


def serve_requests(
    query: BCQ,
    requests: Sequence[Request],
    *,
    engine: Engine | None = None,
    workers: int = 4,
    **data,
) -> list:
    """One-call convenience: serve *requests* and return ordered answers."""
    with Server(query, engine=engine, workers=workers, **data) as server:
        return server.map(requests)
