"""Admission control policy: bounded queues, rate limits, retries, breakers.

This module separates admission *policy* from scheduler *execution* (the
MicroSentinel ``token_bucket``/``mode_controller`` split): every object
here is a policy holder the :class:`~repro.serve.scheduler.Scheduler`
consults at well-defined points, with its own counters for ``stats()``.

* :class:`AdmissionControl` — what may enter the queue: a bounded pending
  queue (reject or shed-oldest on overflow), per-family
  :class:`TokenBucket` rate limiting, and the default per-request deadline;
* :class:`RetryPolicy` — how transient execution failures are retried:
  exponential backoff with jitter under a per-request retry budget;
* :class:`CircuitBreaker` — graceful degradation: repeated kernel failures
  trip a session's execution tier down to the batched kernels
  (bit-identical results), and persistent failures open the circuit so
  requests fail fast with
  :class:`~repro.exceptions.CircuitOpenError` until a cool-down elapses.

All deadline/cool-down arithmetic takes explicit ``now`` values from the
scheduler's clock, so the fault-injection harness
(:mod:`repro.serve.faults`) can skew time deterministically.

>>> from repro.serve.admission import TokenBucket
>>> bucket = TokenBucket(rate=1.0, burst=2.0)
>>> bucket.try_acquire(now=0.0), bucket.try_acquire(now=0.0)
(True, True)
>>> bucket.try_acquire(now=0.0)   # burst spent, no time passed
False
>>> bucket.try_acquire(now=1.0)   # one second refills one token
True
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.exceptions import RateLimitedError, ReproError, TransientError

#: Shed policies :class:`AdmissionControl` accepts for a full queue.
SHED_POLICIES = ("reject", "shed_oldest")

#: Kernel modes a :class:`CircuitBreaker` may degrade *from*: the columnar
#: tier, whose one lower rung (:data:`_DEGRADED_MODE`) gives bit-identical
#: results.
_DEGRADABLE_MODES = ("auto", "array")
_DEGRADED_MODE = "batched"

#: The single accepted worker-count range, shared by the Scheduler's
#: ``workers=`` and the CLI's ``--workers``.
MAX_WORKER_COUNT = 128


def validate_worker_count(value) -> int:
    """Validate a worker count once, identically, for every entry point.

    Accepts integers in ``[1, MAX_WORKER_COUNT]`` and raises
    :class:`~repro.exceptions.ReproError` otherwise (bools are rejected —
    ``True`` is not a worker count).  Returns the validated value.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or not 1 <= value <= MAX_WORKER_COUNT
    ):
        raise ReproError(
            f"worker count must be an integer between 1 and "
            f"{MAX_WORKER_COUNT}, got {value!r}"
        )
    return value


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, ``burst`` cap.

    Time is supplied by the caller (monotonic seconds), never read from a
    wall clock, so buckets are deterministic under the fault harness's
    skewed clock and trivially testable.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last", "_lock")

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ReproError(f"token bucket rate must be positive, got {rate}")
        if burst < 1:
            raise ReproError(f"token bucket burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last: float | None = None
        self._lock = threading.Lock()

    def try_acquire(self, now: float) -> bool:
        """Take one token at time *now*; ``False`` when the bucket is dry."""
        with self._lock:
            if self._last is not None and now > self._last:
                self._tokens = min(
                    self.burst, self._tokens + (now - self._last) * self.rate
                )
            self._last = now if self._last is None else max(self._last, now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class AdmissionControl:
    """Submit-time admission policy for the scheduler's request queue.

    Parameters
    ----------
    queue_limit:
        Maximum number of *unclaimed* pending flights.  ``None`` (the
        default) leaves the queue unbounded — the pre-robustness behavior.
    shed_policy:
        What to do with a submission that finds the queue full:
        ``"reject"`` raises :class:`~repro.exceptions.QueueFullError` at the
        submitter, ``"shed_oldest"`` admits it and resolves the *oldest*
        queued request's futures with that error instead.
    rate_limit:
        Per-family token refill rate in requests/second (one
        :class:`TokenBucket` per request family, created lazily).  ``None``
        disables rate limiting.
    rate_burst:
        Bucket capacity; defaults to ``max(1, rate_limit)``.
    default_deadline:
        Deadline in seconds applied to requests that carry none of their
        own.  ``None`` (default) means no deadline.

    The controller is pure policy + counters; the scheduler owns the queue
    and calls :meth:`admit` / :meth:`expiry_for` under its own locking.
    """

    def __init__(
        self,
        *,
        queue_limit: int | None = None,
        shed_policy: str = "reject",
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        default_deadline: float | None = None,
    ):
        if queue_limit is not None and queue_limit < 1:
            raise ReproError(
                f"queue_limit must be >= 1 or None, got {queue_limit}"
            )
        if shed_policy not in SHED_POLICIES:
            raise ReproError(
                f"unknown shed policy {shed_policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )
        if rate_limit is not None and rate_limit <= 0:
            raise ReproError(
                f"rate_limit must be positive or None, got {rate_limit}"
            )
        if default_deadline is not None and default_deadline < 0:
            raise ReproError(
                f"default_deadline must be >= 0 or None, got {default_deadline}"
            )
        self.queue_limit = queue_limit
        self.shed_policy = shed_policy
        self.rate_limit = rate_limit
        self.rate_burst = (
            max(1.0, rate_limit) if rate_limit is not None and rate_burst is None
            else rate_burst
        )
        self.default_deadline = default_deadline
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._rejected = 0
        self._shed = 0
        self._rate_limited = 0

    # ------------------------------------------------------------------
    # Policy checks (called by the scheduler)
    # ------------------------------------------------------------------
    def admit(self, family: str, now: float) -> None:
        """Charge one token for *family* at *now*; raise when rate-limited.

        A no-op when no ``rate_limit`` is configured.  Raises
        :class:`~repro.exceptions.RateLimitedError` (a
        :class:`~repro.exceptions.QueueFullError`) on a dry bucket.
        """
        if self.rate_limit is None:
            return
        with self._lock:
            bucket = self._buckets.get(family)
            if bucket is None:
                bucket = TokenBucket(self.rate_limit, self.rate_burst)
                self._buckets[family] = bucket
        if not bucket.try_acquire(now):
            with self._lock:
                self._rate_limited += 1
            raise RateLimitedError(
                f"rate limit exceeded for request family {family!r} "
                f"({self.rate_limit}/s, burst {self.rate_burst})"
            )

    def expiry_for(self, request, now: float) -> float | None:
        """The absolute expiry for *request* submitted at *now* (or None).

        The request's own ``deadline`` (relative seconds) wins over the
        controller's ``default_deadline``; ``None`` means never expires.
        """
        deadline = (
            request.deadline if request.deadline is not None
            else self.default_deadline
        )
        return None if deadline is None else now + deadline

    # ------------------------------------------------------------------
    # Counters (the scheduler reports queue events back to the policy)
    # ------------------------------------------------------------------
    def count_rejected(self) -> None:
        """Record one queue-full rejection (``"reject"`` policy)."""
        with self._lock:
            self._rejected += 1

    def count_shed(self) -> None:
        """Record one shed-oldest eviction (``"shed_oldest"`` policy)."""
        with self._lock:
            self._shed += 1

    def stats(self) -> dict:
        """Configured limits plus rejection/shed/rate-limit counters."""
        with self._lock:
            return {
                "queue_limit": self.queue_limit,
                "shed_policy": self.shed_policy,
                "rate_limit": self.rate_limit,
                "default_deadline": self.default_deadline,
                "rejected": self._rejected,
                "shed": self._shed,
                "rate_limited": self._rate_limited,
            }

    def observe(self, registry) -> None:
        """Expose the admission counters on *registry* as callback gauges.

        Called by the scheduler when it adopts this policy; the gauges read
        the live counters only at scrape time, so admission decisions carry
        no extra bookkeeping.
        """
        family = registry.gauge(
            "repro_admission_events",
            "Admission-control decisions (rejected, shed, rate_limited).",
            labels=("decision",),
        )
        family.labels(decision="rejected").set_function(
            lambda control: control._rejected, self
        )
        family.labels(decision="shed").set_function(
            lambda control: control._shed, self
        )
        family.labels(decision="rate_limited").set_function(
            lambda control: control._rate_limited, self
        )

    def __repr__(self) -> str:
        return (
            f"AdmissionControl(queue_limit={self.queue_limit}, "
            f"shed_policy={self.shed_policy!r}, rate_limit={self.rate_limit})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry policy for transient execution failures.

    ``max_retries`` is the per-request retry budget (0 — the default —
    disables retries entirely, so the policy costs nothing when off).
    Delays grow as ``base_delay · 2^attempt``, capped at ``max_delay``,
    with up to ``jitter`` (a fraction) of multiplicative random jitter so
    synchronized retries decorrelate.  Only errors matching ``retry_on``
    (default :class:`~repro.exceptions.TransientError`) are retried —
    semantic errors like an unknown fact fail immediately.
    """

    max_retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5
    retry_on: tuple = (TransientError,)

    def retriable(self, error: BaseException) -> bool:
        """Whether *error* is in the retried class of failures."""
        return isinstance(error, self.retry_on)

    def delay_for(self, attempt: int, rng=None) -> float:
        """Backoff before retry number ``attempt + 1`` (seconds, jittered)."""
        delay = min(self.max_delay, self.base_delay * (2 ** attempt))
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class _BreakerState:
    """Per-session breaker bookkeeping (holds the session ref alive)."""

    __slots__ = ("session", "status", "failures", "since")

    def __init__(self, session):
        self.session = session
        self.status = "closed"
        self.failures = 0
        self.since = 0.0


class CircuitBreaker:
    """Per-session circuit breaker with tier degradation before opening.

    State machine (per session, advanced by the scheduler's execution
    outcomes):

    * **closed** — healthy.  ``failure_threshold`` consecutive kernel
      failures *trip* the breaker: the session's kernel tier is degraded
      from the columnar tier to the batched kernels (results stay
      bit-identical because the tiers agree) and the state moves to
      *degraded*.
    * **degraded** — serving on the fallback tier.  A success after
      ``cooldown`` seconds restores the session's configured tier and
      closes the breaker; ``failure_threshold`` further failures *open* it.
    * **open** — requests are rejected fast with
      :class:`~repro.exceptions.CircuitOpenError` (at submit and at claim
      time).  After ``cooldown`` seconds the next probe is allowed through
      on the degraded tier (half-open).

    Only kernel-shaped failures count: :class:`~repro.exceptions.TransientError`
    and non-:class:`~repro.exceptions.ReproError` escapes.  Semantic
    request errors (unknown fact, missing data source) are neutral.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 1.0,
    ):
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ReproError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._states: dict[int, _BreakerState] = {}
        self._trips = 0
        self._recoveries = 0
        self._open_rejections = 0

    def _state(self, session) -> _BreakerState:
        state = self._states.get(id(session))
        if state is None:
            state = _BreakerState(session)
            self._states[id(session)] = state
        return state

    @staticmethod
    def _counts_as_failure(error: BaseException) -> bool:
        if isinstance(error, TransientError):
            return True
        return not isinstance(error, ReproError)

    @staticmethod
    def _degrade(session) -> None:
        if session.kernel_mode in _DEGRADABLE_MODES:
            session.degrade_kernel_mode(_DEGRADED_MODE)

    # ------------------------------------------------------------------
    # Scheduler integration points
    # ------------------------------------------------------------------
    def reject(self, session, now: float) -> bool:
        """Whether *session*'s circuit is open at *now* (counts rejections).

        An open circuit past its cool-down transitions to *degraded*
        (half-open: the next request probes the fallback tier) and admits.
        """
        with self._lock:
            state = self._states.get(id(session))
            if state is None or state.status != "open":
                return False
            if now - state.since >= self.cooldown:
                state.status = "degraded"
                state.failures = 0
                state.since = now
                return False
            self._open_rejections += 1
            return True

    def record_failure(self, session, error: BaseException, now: float) -> None:
        """Advance the state machine on one failed execution attempt."""
        if not self._counts_as_failure(error):
            return
        with self._lock:
            state = self._state(session)
            state.failures += 1
            if state.failures < self.failure_threshold:
                return
            if state.status == "closed":
                self._degrade(session)
                state.status = "degraded"
                self._trips += 1
            elif state.status == "degraded":
                state.status = "open"
            state.failures = 0
            state.since = now

    def record_success(self, session, now: float) -> None:
        """Advance the state machine on one successful execution."""
        with self._lock:
            state = self._states.get(id(session))
            if state is None:
                return
            if state.status == "closed":
                state.failures = 0
            elif state.status == "degraded":
                if now - state.since >= self.cooldown:
                    session.restore_kernel_mode()
                    state.status = "closed"
                    state.failures = 0
                    self._recoveries += 1
            else:  # an in-flight attempt finished after the circuit opened
                state.status = "degraded"
                state.failures = 0
                state.since = now

    def stats(self) -> dict:
        """Trips/recoveries/rejections plus current per-state counts."""
        with self._lock:
            statuses = [state.status for state in self._states.values()]
            return {
                "failure_threshold": self.failure_threshold,
                "cooldown": self.cooldown,
                "trips": self._trips,
                "recoveries": self._recoveries,
                "open_rejections": self._open_rejections,
                "degraded": statuses.count("degraded"),
                "open": statuses.count("open"),
            }

    def _count_status(self, status: str) -> int:
        with self._lock:
            return sum(
                1 for state in self._states.values()
                if state.status == status
            )

    def observe(self, registry) -> None:
        """Expose breaker state and counters on *registry* as callback gauges.

        ``repro_breaker_sessions{state=…}`` reports how many sessions are
        currently degraded or open — the ``/healthz`` signal — and the
        trip/recovery/rejection totals ride along for dashboards.
        """
        states = registry.gauge(
            "repro_breaker_sessions",
            "Sessions currently in each breaker state.",
            labels=("state",),
        )
        states.labels(state="degraded").set_function(
            lambda breaker: breaker._count_status("degraded"), self
        )
        states.labels(state="open").set_function(
            lambda breaker: breaker._count_status("open"), self
        )
        events = registry.gauge(
            "repro_breaker_events",
            "Breaker lifecycle totals (trips, recoveries, open_rejections).",
            labels=("event",),
        )
        events.labels(event="trips").set_function(
            lambda breaker: breaker._trips, self
        )
        events.labels(event="recoveries").set_function(
            lambda breaker: breaker._recoveries, self
        )
        events.labels(event="open_rejections").set_function(
            lambda breaker: breaker._open_rejections, self
        )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(failure_threshold={self.failure_threshold}, "
            f"cooldown={self.cooldown})"
        )
