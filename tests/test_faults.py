"""Chaos suite: the serving stack under seeded fault injection.

The headline invariant, asserted under every kernel tier and a mix of
injected kernel failures, worker deaths, slow executions and expired
deadlines: **every submitted future resolves** (no request is ever
stranded), and every future that resolves with a value is **bit-identical**
to serial one-shot evaluation.  Failures may only be the declared
robustness errors (DeadlineExceeded, TransientError, QueueFullError,
CircuitOpenError) — never a stuck future or a corrupted answer.

The injection seed comes from ``REPRO_FAULT_SEED`` (CI runs two fixed
seeds), defaulting to 11.  Single-knob tests pin exact injection counts
via the plan's ``max_*`` caps, so they are deterministic regardless of
thread interleaving; the mixed chaos test asserts invariants only.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.db.database import Database
from repro.engine import Engine
from repro.engine.session import (
    REQUEST_FAMILIES,
    ResultMemo,
    register_request_family,
)
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    QueueFullError,
    RateLimitedError,
    ReproError,
    SchemaError,
    TransientError,
)
from repro.obs import MetricsRegistry, parse_exposition, render_prometheus
from repro.query.families import star_query
from repro.serve import (
    AdmissionControl,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    Request,
    Scheduler,
    Server,
    TokenBucket,
    WorkerKilled,
    request_from_dict,
)
from repro.workloads.generators import random_probabilistic_database

SEED = int(os.environ.get("REPRO_FAULT_SEED", "11"))


def _workload(size: int = 90, endo: int = 5, seed: int = 11):
    query = star_query(2)
    database = random_probabilistic_database(
        query, facts_per_relation=size // 3,
        domain_size=max(4, size // 6), seed=seed,
    )
    facts = list(database.support_database().facts())
    random.Random(seed).shuffle(facts)
    data = {
        "probabilistic": database,
        "exogenous": Database(facts[endo:]),
        "endogenous": Database(facts[:endo]),
    }
    return query, data


def _serial_answers(query, data, requests, kernel_mode="auto"):
    answers = []
    for request in requests:
        session = Engine(kernel_mode=kernel_mode).open(query, **data)
        handler = REQUEST_FAMILIES[request.family].handler
        answers.append(handler(session, **request.kwargs))
    return answers


@pytest.fixture
def family_override():
    """Register/override request families; restore the originals on exit."""
    saved: dict[str, object] = {}

    def install(name, handler):
        if name not in saved:
            saved[name] = REQUEST_FAMILIES.get(name)
        register_request_family(name, handler)

    yield install
    for name, original in saved.items():
        if original is None:
            REQUEST_FAMILIES.pop(name, None)
        else:
            REQUEST_FAMILIES[name] = original


# ----------------------------------------------------------------------
# Policy units: token bucket, admission, fault plan
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.5)  # 0.5s × 2/s = 1 token back

    def test_refill_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=1.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(1000.0)
        assert not bucket.try_acquire(1000.0)

    def test_time_going_backwards_is_tolerated(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_acquire(10.0)
        assert not bucket.try_acquire(5.0)  # no refill from the past
        assert bucket.try_acquire(11.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError, match="rate must be positive"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ReproError, match="burst must be"):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionControl:
    def test_per_family_buckets_are_independent(self):
        control = AdmissionControl(rate_limit=1.0, rate_burst=1.0)
        control.admit("pqe", now=0.0)
        with pytest.raises(RateLimitedError, match="pqe"):
            control.admit("pqe", now=0.0)
        control.admit("resilience", now=0.0)  # separate bucket
        control.admit("pqe", now=1.0)  # refilled
        assert control.stats()["rate_limited"] == 1

    def test_request_deadline_overrides_the_default(self):
        control = AdmissionControl(default_deadline=2.0)
        assert control.expiry_for(Request.make("pqe"), now=10.0) == 12.0
        assert control.expiry_for(
            Request.make("pqe", deadline=0.5), now=10.0
        ) == 10.5
        assert AdmissionControl().expiry_for(
            Request.make("pqe"), now=10.0
        ) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError, match="queue_limit"):
            AdmissionControl(queue_limit=0)
        with pytest.raises(ReproError, match="shed policy"):
            AdmissionControl(shed_policy="panic")
        with pytest.raises(ReproError, match="rate_limit"):
            AdmissionControl(rate_limit=-1)
        with pytest.raises(ReproError, match="default_deadline"):
            AdmissionControl(default_deadline=-0.1)

    def test_fractional_burst_rejected_at_construction(self):
        """A burst below one token could never admit a request."""
        for burst in (0.5, 0, float("nan")):
            with pytest.raises(ReproError, match="rate_burst"):
                AdmissionControl(rate_limit=10, rate_burst=burst)
        assert AdmissionControl(rate_limit=10, rate_burst=1).rate_burst == 1


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ReproError, match="kernel_failure_rate"):
            FaultPlan(kernel_failure_rate=1.5)
        with pytest.raises(ReproError, match="slow_seconds"):
            FaultPlan(slow_seconds=-1)

    def test_worker_killed_escapes_repro_error_handling(self):
        assert issubclass(WorkerKilled, BaseException)
        assert not issubclass(WorkerKilled, Exception)
        assert not issubclass(WorkerKilled, ReproError)

    def test_injection_caps_pin_exact_counts(self):
        injector = FaultInjector(
            seed=SEED, kernel_failure_rate=1.0, max_kernel_failures=2
        )
        for _ in range(2):
            with pytest.raises(TransientError, match="injected"):
                injector.before_attempt()
        injector.before_attempt()  # cap reached: silent
        assert injector.stats()["kernel_failures"] == 2

    def test_clock_carries_the_skew(self):
        injector = FaultInjector(seed=SEED, clock_skew=100.0)
        assert injector.clock() - time.monotonic() >= 99.0


# ----------------------------------------------------------------------
# Deadlines (checked at claim time)
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_fails_before_execution(self, family_override):
        started = threading.Event()
        release = threading.Event()

        def gated(session):
            started.set()
            assert release.wait(10)
            return "gated"

        family_override("gated", gated)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=1)
        try:
            blocker = scheduler.submit(Request.make("gated"))
            assert started.wait(10)
            doomed = scheduler.submit(Request.make("pqe", deadline=0.0))
            release.set()
            assert blocker.result(10) == "gated"
            with pytest.raises(DeadlineExceeded, match="before execution"):
                doomed.result(10)
            stats = scheduler.stats()
            assert stats["timeouts"] == 1
            assert stats["executed"] == 1  # only the blocker ran
        finally:
            release.set()
            scheduler.close()

    def test_default_deadline_applies_to_bare_requests(self, family_override):
        started = threading.Event()
        release = threading.Event()

        def gated(session):
            started.set()
            assert release.wait(10)
            return "gated"

        family_override("gated", gated)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(
            session,
            workers=1,
            admission=AdmissionControl(default_deadline=0.0),
        )
        try:
            # The blocker itself carries an explicit generous deadline so
            # only the bare request inherits the instant default.
            blocker = scheduler.submit(Request.make("gated", deadline=60.0))
            assert started.wait(10)
            doomed = scheduler.submit(Request.make("pqe"))
            release.set()
            assert blocker.result(10) == "gated"
            with pytest.raises(DeadlineExceeded):
                doomed.result(10)
        finally:
            release.set()
            scheduler.close()

    def test_deadline_ms_decodes_from_stream_payloads(self):
        request = request_from_dict({"family": "pqe", "deadline_ms": 1500})
        assert request.deadline == pytest.approx(1.5)
        assert request.kwargs == {}  # not a handler parameter
        with pytest.raises(ReproError, match="deadline_ms"):
            request_from_dict({"family": "pqe", "deadline_ms": -5})
        with pytest.raises(ReproError, match="deadline_ms"):
            request_from_dict({"family": "pqe", "deadline_ms": True})

    def test_nan_deadline_ms_rejected(self):
        """``json.loads`` decodes ``NaN``; a NaN deadline would never expire."""
        payload = json.loads('{"family": "pqe", "deadline_ms": NaN}')
        with pytest.raises(SchemaError, match="deadline_ms"):
            request_from_dict(payload)

    def test_deadline_excluded_from_coalescing_identity(self):
        assert Request.make("pqe", deadline=0.5) == Request.make("pqe")
        assert hash(Request.make("pqe", deadline=0.5)) == hash(
            Request.make("pqe")
        )


# ----------------------------------------------------------------------
# Bounded queue: reject and shed-oldest
# ----------------------------------------------------------------------
class TestBoundedQueue:
    def _gate(self, family_override):
        started = threading.Event()
        release = threading.Event()

        def gated(session):
            started.set()
            assert release.wait(10)
            return "gated"

        family_override("gated", gated)
        return started, release

    def test_full_queue_rejects_new_submissions(self, family_override):
        started, release = self._gate(family_override)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(
            session, workers=1, admission=AdmissionControl(queue_limit=1),
        )
        try:
            blocker = scheduler.submit(Request.make("gated"))
            assert started.wait(10)  # claimed: does not occupy the queue
            queued = scheduler.submit(Request.make("pqe"))
            with pytest.raises(QueueFullError, match="full"):
                scheduler.submit(Request.make("resilience"))
            release.set()
            assert blocker.result(10) == "gated"
            assert queued.result(10) == session.pqe()
            stats = scheduler.stats()
            assert stats["rejected"] == 1
            assert stats["shed"] == 0
        finally:
            release.set()
            scheduler.close()

    def test_shed_oldest_fails_the_oldest_queued_request(
        self, family_override
    ):
        started, release = self._gate(family_override)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(
            session,
            workers=1,
            admission=AdmissionControl(
                queue_limit=1, shed_policy="shed_oldest"
            ),
        )
        try:
            blocker = scheduler.submit(Request.make("gated"))
            assert started.wait(10)
            victim = scheduler.submit(Request.make("pqe"))
            survivor = scheduler.submit(Request.make("resilience"))
            with pytest.raises(QueueFullError, match="shed"):
                victim.result(10)
            release.set()
            assert blocker.result(10) == "gated"
            assert survivor.result(10) == session.resilience()
            stats = scheduler.stats()
            assert stats["shed"] == 1
            assert stats["rejected"] == 0
        finally:
            release.set()
            scheduler.close()

    def test_rate_limited_submission_raises(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(
            session,
            workers=1,
            admission=AdmissionControl(rate_limit=0.001, rate_burst=1.0),
        )
        try:
            first = scheduler.submit(Request.make("pqe"))
            # Buckets are per-family: a second pqe admission finds the
            # bucket dry (rate limiting runs before coalescing).
            with pytest.raises(RateLimitedError, match="rate limit"):
                scheduler.submit(Request.make("pqe", exact=True))
            assert first.result(10) == session.pqe()
            assert scheduler.stats()["rate_limited"] == 1
        finally:
            scheduler.close()


# ----------------------------------------------------------------------
# Worker supervision: deaths, respawns, re-queues
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def test_killed_workers_are_respawned_and_requests_survive(self):
        query, data = _workload()
        requests = [
            Request.make("pqe"),
            Request.make("pqe", exact=True),
            Request.make("expected_count"),
            Request.make("expected_count", exact=True),
            Request.make("resilience"),
            Request.make("sat_counts"),
        ]
        serial = _serial_answers(query, data, requests)
        faults = FaultInjector(
            seed=SEED, worker_death_rate=1.0, max_worker_deaths=3
        )
        with Server(query, workers=2, faults=faults, **data) as server:
            assert server.map(requests) == serial
            stats = server.stats()["scheduler"]
            assert stats["worker_deaths"] == 3
            assert stats["worker_respawns"] == 3
            assert stats["requeued"] == 3
            assert stats["faults"]["worker_deaths"] == 3

    def test_requeue_budget_exhaustion_fails_with_transient_error(self):
        query, data = _workload()
        faults = FaultInjector(seed=SEED, worker_death_rate=1.0)
        session = Engine().open(query, **data)
        scheduler = Scheduler(
            session, workers=1, faults=faults, requeue_limit=2
        )
        try:
            future = scheduler.submit(Request.make("pqe"))
            with pytest.raises(TransientError, match="worker thread died"):
                future.result(30)
            stats = scheduler.stats()
            assert stats["worker_deaths"] == 3  # initial claim + 2 re-queues
            assert stats["requeued"] == 2
        finally:
            scheduler.close()


# ----------------------------------------------------------------------
# Circuit breaker: degrade → open → half-open → recover
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_full_lifecycle(self, family_override):
        family_override("noop", lambda session, tag: tag)
        query, data = _workload()
        session = Engine(kernel_mode="auto").open(query, **data)
        faults = FaultInjector(
            seed=SEED, kernel_failure_rate=1.0, max_kernel_failures=4
        )
        breaker = CircuitBreaker(failure_threshold=2, cooldown=0.4)
        scheduler = Scheduler(
            session, workers=1, breaker=breaker, faults=faults
        )
        try:
            def ask(tag):
                return scheduler.submit(Request.make("noop", tag=tag))

            # Two failures trip the breaker: the session degrades to the
            # batched tier (bit-identical results) instead of failing fast.
            for tag in ("a", "b"):
                with pytest.raises(TransientError):
                    ask(tag).result(10)
            assert session.kernel_mode == "batched"
            assert breaker.stats()["trips"] == 1
            # Two more failures on the degraded tier open the circuit …
            for tag in ("c", "d"):
                with pytest.raises(TransientError):
                    ask(tag).result(10)
            # … and submissions now fail fast.
            with pytest.raises(CircuitOpenError, match="circuit open"):
                ask("e")
            assert breaker.stats()["open"] == 1
            assert scheduler.stats()["breaker_open_rejections"] >= 1
            # After the cool-down a probe is admitted (half-open, still on
            # the degraded tier); the injection cap is spent, so it succeeds.
            time.sleep(0.5)
            assert ask("f").result(10) == "f"
            assert session.kernel_mode == "batched"
            # A success after another cool-down closes the breaker and
            # restores the engine-configured tier.
            time.sleep(0.5)
            assert ask("g").result(10) == "g"
            assert session.kernel_mode == "auto"
            stats = breaker.stats()
            assert stats["recoveries"] == 1
            assert stats["open"] == 0 and stats["degraded"] == 0
        finally:
            scheduler.close()

    def test_state_machine_under_an_explicit_clock(self):
        """Every transition, including executions that finish after the
        circuit opened; the one state reads 0 or 1 in stats and gauges."""
        query, data = _workload()
        session = Engine(kernel_mode="auto").open(query, **data)
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0)
        registry = MetricsRegistry()
        breaker.observe(registry)

        def gauges():
            parsed = parse_exposition(render_prometheus([registry]))
            return {
                state: parsed[("repro_breaker_sessions", (("state", state),))]
                for state in ("degraded", "open")
            }

        failure = TransientError("kernel")
        breaker.record_failure(session, failure, now=0.0)
        breaker.record_failure(session, ReproError("semantic"), now=0.0)
        assert breaker.stats()["degraded"] == 0
        breaker.record_failure(session, failure, now=0.0)
        assert session.kernel_mode == "batched"
        assert gauges() == {"degraded": 1.0, "open": 0.0}
        breaker.record_failure(session, failure, now=0.2)
        breaker.record_failure(session, failure, now=0.2)
        assert gauges() == {"degraded": 0.0, "open": 1.0}
        assert breaker.reject(now=0.5)
        # Stragglers failing while open keep it open and restart the
        # cool-down ...
        breaker.record_failure(session, failure, now=0.9)
        breaker.record_failure(session, failure, now=0.9)
        assert breaker.reject(now=1.5)
        # ... and one succeeding while open half-opens it.
        breaker.record_success(session, now=1.6)
        assert not breaker.reject(now=1.6)
        breaker.record_success(session, now=2.0)  # cool-down not over
        assert breaker.stats()["degraded"] == 1
        breaker.record_success(session, now=2.7)
        assert session.kernel_mode == "auto"
        stats = breaker.stats()
        assert (stats["trips"], stats["recoveries"]) == (1, 1)
        assert stats["open_rejections"] == 2
        assert gauges() == {"degraded": 0.0, "open": 0.0}

    def test_semantic_errors_do_not_trip_the_breaker(self, family_override):
        def bad(session):
            raise ReproError("semantic, not transient")

        family_override("bad", bad)
        query, data = _workload()
        session = Engine().open(query, **data)
        breaker = CircuitBreaker(failure_threshold=1)
        scheduler = Scheduler(session, workers=1, breaker=breaker)
        try:
            with pytest.raises(ReproError, match="semantic"):
                scheduler.submit(Request.make("bad")).result(10)
            assert breaker.stats()["trips"] == 0
            assert session.kernel_mode == session.engine.kernel_mode
        finally:
            scheduler.close()

    def test_degraded_tier_answers_stay_bit_identical(self, family_override):
        query, data = _workload()
        serial = _serial_answers(query, data, [Request.make("pqe")])
        session = Engine(kernel_mode="auto").open(query, **data)
        faults = FaultInjector(
            seed=SEED, kernel_failure_rate=1.0, max_kernel_failures=1
        )
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30.0)
        scheduler = Scheduler(
            session, workers=1, breaker=breaker, faults=faults
        )
        try:
            with pytest.raises(TransientError):
                scheduler.submit(Request.make("pqe")).result(10)
            assert session.kernel_mode == "batched"
            future = scheduler.submit(Request.make("pqe"))
            assert future.result(10) == serial[0]  # degraded ≡ configured
        finally:
            scheduler.close()


# ----------------------------------------------------------------------
# Deadline-aware close: no future left pending
# ----------------------------------------------------------------------
class TestClose:
    def test_close_timeout_fails_stuck_requests_instead_of_stranding(
        self, family_override
    ):
        release = threading.Event()
        started = threading.Event()

        def wedged(session):
            started.set()
            assert release.wait(30)
            return "late"

        family_override("wedged", wedged)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=1)
        stuck = scheduler.submit(Request.make("wedged"))
        queued = scheduler.submit(Request.make("pqe"))
        assert started.wait(10)
        scheduler.close(wait=True, timeout=0.3)
        try:
            with pytest.raises(ReproError, match="closed before"):
                queued.result(1)
            with pytest.raises(ReproError, match="closed before"):
                stuck.result(1)
            assert scheduler.stats()["unresolved_at_close"] == 2
        finally:
            release.set()

    def test_clean_close_resolves_everything_without_timeouts(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=2)
        futures = [
            scheduler.submit(Request.make("pqe")),
            scheduler.submit(Request.make("resilience")),
        ]
        scheduler.close(wait=True)
        assert all(future.done() for future in futures)
        assert scheduler.stats()["unresolved_at_close"] == 0


# ----------------------------------------------------------------------
# Memo pressure: LRU eviction on capped sessions
# ----------------------------------------------------------------------
class TestMemoPressure:
    def test_lru_eviction_counts_and_recomputes_correctly(self):
        query, data = _workload()
        session = Engine(memo_limit=2).open(query, **data)
        first = session.request("pqe")
        session.request("expected_count")
        session.request("resilience")  # evicts the LRU entry (pqe)
        stats = session.stats()["memo"]
        assert stats["limit"] == 2
        assert stats["entries"] == 2
        assert stats["evictions"] >= 1
        # The evicted answer is recomputed, not lost or corrupted.
        assert session.request("pqe") == first

    def test_get_refreshes_recency(self):
        memo = ResultMemo(limit=2)
        memo["a"] = 1
        memo["b"] = 2
        assert memo.get("a") == 1  # refresh: "b" is now the LRU entry
        memo["c"] = 3
        assert set(memo) == {"a", "c"}
        assert memo.evictions == 1

    def test_unbounded_by_default(self):
        memo = ResultMemo()
        for index in range(100):
            memo[index] = index
        assert len(memo) == 100
        assert memo.evictions == 0

    def test_invalid_limits_rejected(self):
        with pytest.raises(ReproError, match="memo limit"):
            ResultMemo(limit=0)
        with pytest.raises(ReproError, match="memo_limit"):
            Engine(memo_limit=0)

    def test_session_stats_surface_evictions(self):
        query, data = _workload()
        session = Engine(memo_limit=1).open(query, **data)
        session.request("pqe")
        session.request("resilience")
        assert session.stats()["memo"]["evictions"] >= 1


# ----------------------------------------------------------------------
# The chaos invariant: everything resolves, survivors are bit-identical
# ----------------------------------------------------------------------
class TestChaosInvariant:
    _ALLOWED = (DeadlineExceeded, TransientError, QueueFullError)

    def _stream(self, data, rounds: int) -> list[Request]:
        endo = list(data["endogenous"].facts())
        requests = []
        for index in range(rounds):
            requests.extend([
                Request.make("pqe"),
                Request.make("expected_count"),
                Request.make("sat_counts"),
                Request.make("resilience"),
                Request.make("shapley_value", fact=endo[index % len(endo)]),
                Request.make(
                    "banzhaf_value", fact=endo[(index + 1) % len(endo)]
                ),
                Request.make("pqe", exact=True),
            ])
        return requests

    @pytest.mark.parametrize("kernel_mode", ["auto", "batched", "scalar"])
    def test_no_future_stranded_and_survivors_bit_identical(
        self, kernel_mode
    ):
        query, data = _workload(size=90, endo=4)
        requests = self._stream(data, rounds=3)
        doomed = [
            Request.make("banzhaf_value", fact=fact, deadline=0.0)
            for fact in data["endogenous"].facts()
        ]
        unique = {
            request.signature: request for request in requests + doomed
        }
        serial = dict(zip(
            unique.keys(),
            _serial_answers(query, data, list(unique.values()), kernel_mode),
        ))
        faults = FaultInjector(
            seed=SEED,
            kernel_failure_rate=0.15,
            worker_death_rate=0.05,
            slow_rate=0.10,
            slow_seconds=0.001,
        )
        with Server(
            query,
            engine=Engine(kernel_mode=kernel_mode),
            workers=4,
            faults=faults,
            **data,
        ) as server:
            futures = [
                (request, server.submit(request)) for request in requests
            ]
            # Doomed stragglers with an already-expired deadline must
            # resolve too — with DeadlineExceeded or, if they coalesced
            # onto a live execution, the correct answer.
            for request in doomed:
                futures.append((request, server.submit(request)))
            failures = 0
            for request, future in futures:
                try:
                    value = future.result(60)
                except self._ALLOWED:
                    failures += 1
                else:
                    assert value == serial[request.signature], (
                        f"corrupted answer for {request}"
                    )
            stats = server.stats()["scheduler"]
        # Every accepted future resolved before close — nothing stranded.
        assert all(future.done() for _request, future in futures)
        assert stats["pending"] == 0
        assert stats["unresolved_at_close"] == 0
        assert stats["worker_deaths"] == stats["worker_respawns"]

    def test_seeded_runs_are_reproducible_single_worker(self):
        """One worker consumes the seeded stream in one global order, so
        two identical runs inject identical faults."""
        query, data = _workload(size=60, endo=3)
        requests = self._stream(data, rounds=2)

        def run():
            outcomes = []
            faults = FaultInjector(
                seed=SEED, kernel_failure_rate=0.3, slow_rate=0.0
            )
            with Server(query, workers=1, faults=faults, **data) as server:
                for request in requests:
                    try:
                        outcomes.append(
                            ("ok", server.submit(request).result(30))
                        )
                    except TransientError:
                        outcomes.append(("transient", None))
                return outcomes, server.stats()["scheduler"]["faults"]

        first_outcomes, first_faults = run()
        second_outcomes, second_faults = run()
        assert first_outcomes == second_outcomes
        assert first_faults == second_faults
