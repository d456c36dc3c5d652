"""Request scheduler: queueing, single-flight, batching, fault tolerance.

A scheduler is bound to one :class:`~repro.engine.session.EngineSession`
and turns a stream of :class:`~repro.serve.request.Request` objects into
work on that session on a pool of worker threads, with three
serving-layer optimizations the one-shot front-ends cannot express:

* **memo hits at submission** — after admission,
  :meth:`Scheduler.submit` probes the session memo
  (:meth:`~repro.engine.session.EngineSession.memoized`); a hit resolves
  its future before ``submit`` returns, with trace ``submitted →
  memo_hit → resolved``, so only misses reach the queue and the worker
  threads, and only they count as ``executed``;
* **single-flight coalescing** — concurrent requests with the same
  signature attach to one in-flight execution and all receive its result;
  the duplicate work is never enqueued;
* **sibling claims** — a worker that claims a binding-carrying request
  also claims every pending same-family request that carries a binding,
  and answers the whole claim in one
  :meth:`~repro.engine.session.EngineSession.request_batch` call: the
  claim's misses bound on the query's root variable share one run over
  the union of their sections (:mod:`repro.core.fused`), bit-identical to
  their lone runs, and every flight still gets its own fault draw,
  breaker vote and resolution, so one flight's error never costs a
  sibling its answer.

Per-fact Shapley/Banzhaf requests need no batching here: the session
answers every fact from one memoized sweep, built once behind a latch.

On top of that sits the robustness layer, every feature default-off:

* **admission control** (:class:`~repro.serve.admission.AdmissionControl`)
  — a bounded pending queue (reject with
  :class:`~repro.exceptions.QueueFullError` or shed the oldest queued
  request), per-family token-bucket rate limiting, and per-request
  deadlines checked **at claim time**: an expired request resolves with
  :class:`~repro.exceptions.DeadlineExceeded` before any execution, so
  queued-but-dead work costs nothing (a memo hit, never queued, gets its
  answer whatever its deadline);
* **worker supervision** — a worker that dies on an escaped exception
  (a bug, or an injected :class:`~repro.serve.faults.WorkerKilled`) is
  detected and respawned; its claimed flights are re-queued (up to
  ``requeue_limit`` deaths per flight) or failed with
  :class:`~repro.exceptions.TransientError` — never stranded;
* **circuit breaking** (:class:`~repro.serve.admission.CircuitBreaker`) —
  repeated kernel failures degrade the session's tier to the batched
  kernels (bit-identical results) and, if failures persist, fail requests
  fast with :class:`~repro.exceptions.CircuitOpenError` until a cool-down;
* **fault injection** (:class:`~repro.serve.faults.FaultInjector`) — the
  seeded chaos harness behind the ``tests/test_faults.py`` suite; when
  installed it also supplies the scheduler's clock (skewable).

Execution itself goes through
:meth:`~repro.engine.session.EngineSession.request_batch`, so every answer
is memoized under its signature + database-version fingerprint and stays
bit-identical to a serial one-shot evaluation (same fold order).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError

from repro.engine.session import EngineSession
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    QueueFullError,
    RateLimitedError,
    ReproError,
    TransientError,
)
from repro.obs import EventLog, MetricsRegistry, Trace, trace_of
from repro.serve.admission import (
    AdmissionControl,
    CircuitBreaker,
    validate_worker_count,
)
from repro.serve.faults import FaultInjector
from repro.serve.request import Request

#: Every scheduler lifecycle event, by its historical ``stats()`` key.
#: These are the children of ``repro_scheduler_events_total{event=…}``;
#: :meth:`Scheduler.stats` is generated from one snapshot of this family,
#: so the flat keys, the ``batching`` aliases and the Prometheus series
#: can never disagree.
EVENT_COUNTERS = (
    "submitted",
    "coalesced",
    "executed",
    "fused_batches",
    "fused_queries",
    "timeouts",
    "worker_deaths",
    "worker_respawns",
    "requeued",
    "unresolved_at_close",
)

#: The batching-effectiveness subset, nested under ``stats()["batching"]``.
BATCHING_EVENTS = (
    "fused_batches",
    "fused_queries",
)

#: The headline counters the CLI ``--stats`` printer reports, in print
#: order.  Each name is a flat :meth:`Scheduler.stats` key or a key of its
#: ``"batching"`` sub-dict; the printer iterates this tuple, so adding a
#: counter here is the whole change.
HEADLINE_COUNTERS = (
    "coalesced",
    "executed",
    "fused_batches",
    "fused_queries",
    "rejected",
    "shed",
    "rate_limited",
    "timeouts",
    "worker_respawns",
    "breaker_trips",
)


def classify_outcome(error: BaseException | None) -> str:
    """The ``repro_requests_total`` outcome label for a resolution *error*.

    ``None`` is ``"ok"``; the serving-layer error taxonomy maps onto
    stable label values so dashboards can split availability by cause.

    >>> classify_outcome(None)
    'ok'
    >>> classify_outcome(DeadlineExceeded("late"))
    'deadline'
    """
    if error is None:
        return "ok"
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    # RateLimitedError subclasses QueueFullError: check the subclass first.
    if isinstance(error, RateLimitedError):
        return "rate_limited"
    if isinstance(error, QueueFullError):
        return "queue_full"
    if isinstance(error, CircuitOpenError):
        return "circuit_open"
    if isinstance(error, TransientError):
        return "transient"
    return "error"


def _bound(request: Request) -> bool:
    """Whether *request* carries a binding: the unit a sibling claim takes."""
    return bool(request.kwargs.get("binding"))


_SHUTDOWN = object()


class _Flight:
    """One in-flight signature: the execution every duplicate attaches to.

    ``entries`` pairs each attached future with its absolute expiry (or
    ``None``); ``requeues`` counts worker deaths survived, bounding how
    often supervision may re-queue the flight before failing it.
    """

    __slots__ = ("request", "entries", "claimed", "requeues")

    def __init__(self, request: Request):
        self.request = request
        self.entries: list[tuple[Future, float | None]] = []
        self.claimed = False
        self.requeues = 0


class Scheduler:
    """Runs one session's requests on worker threads, coalescing and batching.

    Parameters
    ----------
    session:
        The :class:`~repro.engine.session.EngineSession` requests run on.
    workers:
        Worker-thread count (validated by
        :func:`repro.serve.admission.validate_worker_count`, the single
        helper shared with the CLI's ``--workers``).  Results are
        independent of the count — the concurrency stress tests assert
        bit-identical answers against serial evaluation for every tier.
    admission:
        Admission policy (queue bound, rate limits, default deadline).
        Defaults to a no-limits :class:`AdmissionControl`.
    breaker:
        Optional :class:`CircuitBreaker` for the session.
    faults:
        Optional seeded :class:`FaultInjector`; when given it also
        supplies the scheduler's clock (so deadlines and breaker
        cool-downs honor injected skew).
    requeue_limit:
        How many worker deaths one flight survives (re-queued each time)
        before its futures fail with :class:`TransientError`.
    event_log:
        Optional :class:`repro.obs.EventLog`; every resolved request's
        trace is appended to it as one JSON line (the flight recorder).
    """

    def __init__(
        self,
        session: EngineSession,
        workers: int = 4,
        *,
        admission: AdmissionControl | None = None,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
        requeue_limit: int = 5,
        event_log: EventLog | None = None,
    ):
        self.workers = validate_worker_count(workers)
        self.session = session
        self.requeue_limit = requeue_limit
        self._admission = admission if admission is not None else AdmissionControl()
        self._breaker = breaker
        self._faults = faults
        self._event_log = event_log
        self._clock = faults.clock if faults is not None else time.monotonic
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._pending: dict[tuple, _Flight] = {}
        self._queued = 0  # unclaimed flights (the bounded-queue depth)
        self._closed = False
        # Every work/robustness counter lives on the registry; stats() and
        # the /metrics exposition are two views over the same children.
        self.metrics_registry = MetricsRegistry()
        events = self.metrics_registry.counter(
            "repro_scheduler_events_total",
            "Scheduler lifecycle events (submissions, batches, faults).",
            labels=("event",),
        )
        self._events = {name: events.labels(event=name) for name in EVENT_COUNTERS}
        self._requests_total = self.metrics_registry.counter(
            "repro_requests_total",
            "Resolved (or rejected-at-submit) requests by family and outcome.",
            labels=("family", "outcome"),
        )
        self._latency = self.metrics_registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (submission to resolution).",
            labels=("family",),
        )
        # Resolved children of the two per-request families, so a request
        # pays a dict probe, not a ``labels(…)`` lookup.
        self._outcome_children: dict[tuple[str, str], object] = {}
        self._latency_children: dict[str, object] = {}
        self.metrics_registry.gauge(
            "repro_queue_depth", "Unclaimed flights waiting in the queue."
        ).labels().set_function(lambda scheduler: scheduler._queued, self)
        self.metrics_registry.gauge(
            "repro_pending_flights",
            "In-flight signatures (queued or executing).",
        ).labels().set_function(
            lambda scheduler: len(scheduler._pending), self
        )
        self.metrics_registry.gauge(
            "repro_scheduler_workers", "Configured worker-thread count."
        ).labels().set(workers)
        self._admission.observe(self.metrics_registry)
        if self._breaker is not None:
            self._breaker.observe(self.metrics_registry)
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-serve-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Future:
        """Answer *request* from the memo or enqueue it; returns a future.

        Admission control runs first: an open circuit raises
        :class:`CircuitOpenError`, a dry token bucket
        :class:`~repro.exceptions.RateLimitedError`, and a full queue
        :class:`QueueFullError` (or sheds the oldest queued request,
        depending on the policy).  A request whose signature is already
        in flight then coalesces onto that execution.  Otherwise the
        session memo is probed: a hit resolves the future before
        ``submit`` returns, whatever its deadline, and never enters the
        queue; only a miss is enqueued.
        """
        request.validate()
        key = request.signature
        future: Future = Future()
        trace = Trace(request.family)
        trace.mark("submitted")
        future._repro_trace = trace
        object.__setattr__(request, "trace", trace)
        now = self._clock()
        shed: list[tuple[Future, BaseException]] = []
        try:
            with self._lock:
                if self._closed:
                    raise ReproError("scheduler is closed")
                if self._breaker is not None and self._breaker.reject(now):
                    raise CircuitOpenError(
                        "circuit open for this session; retry after cool-down"
                    )
                self._admission.admit(request.family, now)
                expiry = self._admission.expiry_for(request, now)
                flight = self._pending.get(key)
                if flight is not None:
                    flight.entries.append((future, expiry))
                    self._events["submitted"].inc()
                    self._events["coalesced"].inc()
                    trace.mark("coalesced")
                    return future
                # Probed under the lock: a flight stores its answer before
                # it leaves the pending table, so a duplicate either
                # coalesces above or hits here.
                hit, value = self.session.memoized(key)
                if hit:
                    self._events["submitted"].inc()
                else:
                    limit = self._admission.queue_limit
                    if limit is not None and self._queued >= limit:
                        if self._admission.shed_policy == "reject":
                            self._admission.count_rejected()
                            raise QueueFullError(
                                f"request queue is full "
                                f"({self._queued}/{limit} pending)"
                            )
                        shed = self._shed_oldest_locked(limit)
                    flight = _Flight(request)
                    flight.entries.append((future, expiry))
                    self._pending[key] = flight
                    self._queued += 1
                    self._events["submitted"].inc()
                    trace.mark("enqueued")
                    # Enqueue under the lock: close() also sets _closed
                    # under it, so every accepted flight's key is in the
                    # queue before the shutdown sentinels — no future can
                    # be left unserved.
                    self._queue.put(key)
        except BaseException as error:
            # Rejected at submission: no future resolution will happen, so
            # account the request (and close its trace) here.
            outcome = classify_outcome(error)
            trace.mark("resolved", outcome=outcome)
            self._count_request(request.family, outcome)
            if self._event_log is not None:
                self._event_log.record(trace)
            raise
        finally:
            for victim, error in shed:
                self._resolve(victim, None, error)
        if hit:
            trace.mark("memo_hit")
            self._resolve(future, value, None)
        return future

    def _shed_oldest_locked(
        self, limit: int
    ) -> list[tuple[Future, BaseException]]:
        """Drop the oldest unclaimed flight(s) to make room (lock held)."""
        shed: list[tuple[Future, BaseException]] = []
        for key, flight in list(self._pending.items()):
            if self._queued < limit:
                break
            if flight.claimed:
                continue
            del self._pending[key]
            self._queued -= 1
            self._admission.count_shed()
            error = QueueFullError(
                f"shed from a full request queue (limit {limit})"
            )
            shed.extend((future, error) for future, _expiry in flight.entries)
        return shed

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            key = self._queue.get()
            if key is _SHUTDOWN:
                return
            batch = self._claim(key)
            if not batch:
                continue
            try:
                if self._faults is not None:
                    self._faults.on_claim()
                self._execute(batch)
            except BaseException as error:
                # Supervision: recover the claimed flights, respawn a
                # replacement worker, and let this thread die.
                self._recover(batch, error)
                return

    def _claim_one_locked(
        self,
        key: tuple,
        flight: _Flight,
        now: float,
        to_resolve: list[tuple[Future, BaseException | None, object]],
    ) -> bool:
        """Claim *flight* for execution, enforcing deadlines and the breaker.

        Expired entries resolve with :class:`DeadlineExceeded` — checked
        here, at claim time, so queued-but-dead work never executes.
        Returns ``False`` when nothing is left to execute (the flight is
        then dropped from the pending table).
        """
        live = []
        for future, expiry in flight.entries:
            if expiry is not None and now >= expiry:
                self._events["timeouts"].inc()
                to_resolve.append(
                    (future, DeadlineExceeded(
                        f"deadline expired before execution: {flight.request}"
                    ), None)
                )
            else:
                live.append((future, expiry))
        flight.entries = live
        if live and self._breaker is not None and self._breaker.reject(now):
            error = CircuitOpenError(
                "circuit open for this session; retry after cool-down"
            )
            to_resolve.extend((future, error, None) for future, _ in live)
            live = []
        self._queued -= 1
        if not live:
            del self._pending[key]
            return False
        flight.claimed = True
        for future, _expiry in live:
            trace = trace_of(future)
            if trace is not None:
                trace.mark("claimed")
        return True

    def _claim(self, key: tuple) -> list[tuple[tuple, _Flight]]:
        """Claim the flight behind *key* plus, when it carries a binding,
        every pending same-family sibling that carries one."""
        now = self._clock()
        to_resolve: list = []
        batch: list[tuple[tuple, _Flight]] = []
        with self._lock:
            flight = self._pending.get(key)
            if (
                flight is not None
                and not flight.claimed
                and self._claim_one_locked(key, flight, now, to_resolve)
            ):
                batch.append((key, flight))
                if _bound(flight.request):
                    for other_key, other in list(self._pending.items()):
                        if (
                            other is not flight
                            and not other.claimed
                            and other.request.family == flight.request.family
                            and _bound(other.request)
                            and self._claim_one_locked(
                                other_key, other, now, to_resolve
                            )
                        ):
                            batch.append((other_key, other))
        for future, error, value in to_resolve:
            self._resolve(future, value, error)
        return batch

    def _execute(self, batch: list[tuple[tuple, _Flight]]) -> None:
        """Run a claimed batch: one fault draw per flight, then every
        surviving flight in one :meth:`EngineSession.request_batch` call,
        then one breaker vote and one resolution per flight."""
        if len(batch) >= 2:
            self._events["fused_batches"].inc()
            self._events["fused_queries"].inc(len(batch))
            for _key, flight in batch:
                for future, _expiry in flight.entries:
                    trace = trace_of(future)
                    if trace is not None:
                        trace.mark("fused", batch_size=len(batch))
        outcomes: list = [None] * len(batch)
        attempted = []
        for index, (_key, flight) in enumerate(batch):
            try:
                if self._faults is not None:
                    self._faults.before_attempt()
            except Exception as error:
                outcomes[index] = (None, error)
            else:
                attempted.append(index)
        requests = [batch[index][1].request for index in attempted]
        answers = self.session.request_batch(
            [(r.family, r.kwargs, trace_of(r)) for r in requests]
        )
        for index, outcome in zip(attempted, answers):
            outcomes[index] = outcome
        if self._breaker is not None:
            for _value, error in outcomes:
                if error is None:
                    self._breaker.record_success(self.session, self._clock())
                else:
                    self._breaker.record_failure(
                        self.session, error, self._clock()
                    )
        self._events["executed"].inc(len(batch))
        with self._lock:
            resolved = []
            for (key, flight), (value, error) in zip(batch, outcomes):
                if self._pending.get(key) is flight:
                    del self._pending[key]
                # Snapshot under the lock: a duplicate submitted after this
                # point starts a fresh flight (served by the memo).
                resolved.append((list(flight.entries), value, error))
        for entries, value, error in resolved:
            for future, _expiry in entries:
                self._resolve(future, value, error)

    def _resolve(
        self, future: Future, value: object, error: BaseException | None
    ) -> None:
        """Resolve *future*, tolerating cancellation and double resolution.

        A future cancelled while queued must be skipped — calling
        ``set_result`` on it raises ``InvalidStateError`` and would kill
        the worker thread, stranding every other pending request.  A
        future already failed by ``close(timeout=…)`` while its execution
        straggled is likewise left alone.

        This is also where a request's observability closes out: the
        outcome counter, the latency histogram and the trace's final
        ``resolved`` mark all happen here, so every accepted future is
        accounted exactly once — and before the future wakes its caller,
        so a scrape the caller makes next already counts the request.
        """
        try:
            if not future.set_running_or_notify_cancel():
                self._account(future, "cancelled")
                return
            self._account(future, classify_outcome(error))
            if error is None:
                future.set_result(value)
            else:
                future.set_exception(error)
        except InvalidStateError:
            return

    def _account(self, future: Future, outcome: str) -> None:
        """Record one future's final outcome, latency and trace line."""
        trace = trace_of(future)
        if trace is None:
            return
        trace.mark("resolved", outcome=outcome)
        total = trace.total
        family = trace.family
        self._count_request(family, outcome)
        if total is not None:
            latency = self._latency_children.get(family)
            if latency is None:
                latency = self._latency.labels(family=family)
                self._latency_children[family] = latency
            latency.observe(total)
        if self._event_log is not None:
            self._event_log.record(trace)

    def _count_request(self, family: str, outcome: str) -> None:
        """One ``repro_requests_total{family,outcome}`` increment."""
        child = self._outcome_children.get((family, outcome))
        if child is None:
            child = self._requests_total.labels(family=family, outcome=outcome)
            self._outcome_children[(family, outcome)] = child
        child.inc()

    def _recover(self, batch: list[tuple[tuple, _Flight]], error: BaseException) -> None:
        """Worker supervision: re-queue or fail the dead worker's flights.

        Called from the dying worker thread itself.  Each claimed flight is
        re-queued (so a surviving worker serves it) unless it already
        survived ``requeue_limit`` deaths or the scheduler is closing — in
        both cases its futures fail with :class:`TransientError` instead of
        stranding.  A replacement worker is spawned unless closing.
        """
        to_fail: list[tuple[Future, float | None]] = []
        with self._lock:
            self._events["worker_deaths"].inc()
            respawn = not self._closed
            for key, flight in batch:
                if self._pending.get(key) is not flight:
                    continue
                if respawn and flight.requeues < self.requeue_limit:
                    flight.requeues += 1
                    flight.claimed = False
                    self._queued += 1
                    self._events["requeued"].inc()
                    self._queue.put(key)
                else:
                    del self._pending[key]
                    to_fail.extend(flight.entries)
            if respawn:
                self._events["worker_respawns"].inc()
                replacement = threading.Thread(
                    target=self._work,
                    name=(
                        "repro-serve-respawn-"
                        f"{self._events['worker_respawns'].value}"
                    ),
                    daemon=True,
                )
                current = threading.current_thread()
                if current in self._threads:
                    self._threads.remove(current)
                self._threads.append(replacement)
                # Started before the lock drops, so close() never finds an
                # unstarted thread in the list it joins.
                replacement.start()
        if to_fail:
            wrapped = TransientError(
                f"worker thread died while serving this request: {error!r}"
            )
            for future, _expiry in to_fail:
                self._resolve(future, None, wrapped)

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def close(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests, drain the queue, join the workers.

        Already-submitted requests are still executed (the shutdown
        sentinels queue behind them); ``wait=False`` skips the join.
        ``timeout`` bounds the total join time, so a wedged worker cannot
        hang ``close(wait=True)`` forever.  After the join, every accepted
        future is guaranteed resolved: any flight still pending (a worker
        crashed after the sentinels were queued, or the timeout fired
        first) fails with :class:`ReproError` rather than stranding its
        futures.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        if not wait:
            return
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for thread in threads:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        leftovers: list[tuple[Future, float | None]] = []
        with self._lock:
            for key, flight in list(self._pending.items()):
                leftovers.extend(flight.entries)
                del self._pending[key]
            self._queued = 0
            if leftovers:
                self._events["unresolved_at_close"].inc(len(leftovers))
        if leftovers:
            error = ReproError(
                "scheduler closed before this request resolved"
            )
            for future, _expiry in leftovers:
                self._resolve(future, None, error)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Work + robustness counters (submissions, rejections, timeouts…).

        Flat keys cover the work and robustness counters; the nested
        ``admission``/``breaker``/``faults`` entries carry each policy
        object's full view (``breaker``/``faults`` are ``None`` when not
        installed).  Batching effectiveness lives in the ``"batching"``
        sub-dict: sibling claims (``fused_batches``) and the flights they
        took (``fused_queries``).

        Every number is read from **one** snapshot of
        :attr:`metrics_registry`'s event family, so the flat keys, the
        ``batching`` sub-dict and the Prometheus ``/metrics`` series are
        views over the same counts and cannot drift apart.
        """
        admission = self._admission.stats()
        breaker = self._breaker.stats() if self._breaker is not None else None
        events = {
            name: child.value for name, child in self._events.items()
        }
        with self._lock:
            pending = len(self._pending)
            queued = self._queued
        return {
            "workers": self.workers,
            "submitted": events["submitted"],
            "coalesced": events["coalesced"],
            "executed": events["executed"],
            "batching": {name: events[name] for name in BATCHING_EVENTS},
            "pending": pending,
            "queued": queued,
            "rejected": admission["rejected"],
            "shed": admission["shed"],
            "rate_limited": admission["rate_limited"],
            "timeouts": events["timeouts"],
            "worker_deaths": events["worker_deaths"],
            "worker_respawns": events["worker_respawns"],
            "requeued": events["requeued"],
            "unresolved_at_close": events["unresolved_at_close"],
            "breaker_trips": breaker["trips"] if breaker else 0,
            "breaker_open_rejections": (
                breaker["open_rejections"] if breaker else 0
            ),
            "admission": admission,
            "breaker": breaker,
            "faults": (
                self._faults.stats() if self._faults is not None else None
            ),
        }

    def __repr__(self) -> str:
        return f"Scheduler(workers={self.workers})"
