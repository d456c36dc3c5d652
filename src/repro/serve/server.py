"""Server: the futures front-end over one pooled session and a scheduler.

The ergonomic entry point of the serving subsystem::

    from repro import Engine, Request, Server

    with Server(query, probabilistic=pdb, workers=4) as server:
        future = server.submit(Request.make("pqe"))
        answers = server.map([Request.make("pqe"), Request.make("resilience")])

Every server binds **one** ``(query, data sources)`` target through a
:class:`~repro.serve.pool.SessionPool` (pass ``pool=`` to share annotated
state between several servers over the same sources) and pushes its
requests through a :class:`~repro.serve.scheduler.Scheduler`, so duplicate
in-flight requests execute once, per-fact Shapley/Banzhaf floods collapse
into sweeps, and repeated requests are served from the session memo.

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
from repro.exceptions import ReproError
from repro.query.bcq import BCQ
from repro.serve.admission import AdmissionControl, CircuitBreaker, RetryPolicy
from repro.serve.faults import FaultInjector
from repro.serve.pool import SessionPool
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler


class Server:
    """Concurrent request serving for one query over one set of data sources.

    Parameters
    ----------
    query:
        The SJF-BCQ every request evaluates.
    engine:
        Engine configuration (policy, kernel mode); mutually exclusive with
        *pool*, which already carries one.
    pool:
        An existing :class:`SessionPool` to share annotated state with other
        servers; the server then does **not** close the pool on exit.
    workers:
        Scheduler worker-thread count.
    admission:
        :class:`~repro.serve.admission.AdmissionControl` — bounded queue,
        per-family rate limits and default deadline.  Defaults to
        no-limits admission (the pre-robustness behavior).
    retry:
        :class:`~repro.serve.admission.RetryPolicy` for transient
        execution failures.  Defaults to no retries.
    breaker:
        Optional :class:`~repro.serve.admission.CircuitBreaker` degrading
        (then failing fast) sessions with repeated kernel failures.
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
        pool: SessionPool | None = None,
        workers: int = 4,
        admission: AdmissionControl | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
        event_log=None,
        **data,
    ):
        if pool is not None and engine is not None:
            raise ReproError(
                "pass either engine= or pool= (the pool carries its engine)"
            )
        self._owns_pool = pool is None
        self.pool = pool or SessionPool(engine)
        try:
            self.session = self.pool.session(query, **data)
            self.scheduler = Scheduler(
                workers=workers,
                admission=admission,
                retry=retry,
                breaker=breaker,
                faults=faults,
                event_log=event_log,
            )
        except BaseException:
            # A failed construction (bad workers, bad data sources) must
            # not leak invalidation hooks onto the caller's databases.
            if self._owns_pool:
                self.pool.close()
            raise

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Future:
        """Enqueue one request; the future resolves to its answer."""
        return self.scheduler.submit(self.session, request)

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
        """Drain and stop the scheduler (and a server-owned pool)."""
        self.scheduler.close()
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Scheduler counters plus the bound session's cache statistics."""
        return {
            "scheduler": self.scheduler.stats(),
            "session": self.session.stats(),
            "pool": self.pool.stats(),
        }

    def metrics_registries(self) -> list:
        """Every registry behind this server, for one composed exposition.

        Scheduler (requests, latency, queue, admission, breaker), session
        state (evaluations, memo, fusion) and the process-wide core-engine
        registry (tiers, fused, plan cache) — the HTTP front-end
        renders all of them into one ``/metrics`` page via
        :func:`repro.obs.render_prometheus`.
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

        ``ok`` is ``False`` only when the breaker holds sessions *open*
        (failing fast) — degraded sessions still answer, bit-identically,
        on the fallback tier.
        """
        scheduler = self.scheduler.stats()
        breaker = scheduler["breaker"]
        open_sessions = breaker["open"] if breaker else 0
        return {
            "ok": open_sessions == 0,
            "queued": scheduler["queued"],
            "pending": scheduler["pending"],
            "workers": scheduler["workers"],
            "breaker_open": open_sessions,
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
