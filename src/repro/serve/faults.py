"""Deterministic fault injection for chaos-testing the serving stack.

A :class:`FaultInjector` is threaded through
:class:`~repro.serve.scheduler.Scheduler` (and
:class:`~repro.serve.server.Server`) and fires at three seeded injection
points, plus a skewed clock:

* **kernel raises** — :meth:`FaultInjector.before_attempt` raises
  :class:`~repro.exceptions.TransientError` with probability
  ``kernel_failure_rate`` before each execution attempt (the retry loop's
  unit), capped by ``max_kernel_failures`` so a test can inject exactly N
  failures and then let retries succeed deterministically;
* **slow executions** — the same hook sleeps ``slow_seconds`` with
  probability ``slow_rate``;
* **worker deaths** — :meth:`FaultInjector.on_claim` raises
  :class:`WorkerKilled` (a ``BaseException``, so it escapes the per-flight
  error handling exactly like a real bug would) with probability
  ``worker_death_rate``, capped by ``max_worker_deaths``, exercising the
  scheduler's supervision/respawn/re-queue path;
* **clock skew** — :meth:`FaultInjector.clock` is ``time.monotonic() +
  clock_skew``; the scheduler uses it for every deadline and cool-down
  decision when an injector is installed.

All randomness comes from one ``random.Random(seed)``, so a single-worker
chaos run is fully reproducible; multi-worker runs are reproducible up to
thread interleaving, which is why the chaos suite asserts *invariants*
(no future stranded, surviving answers bit-identical) rather than exact
event sequences.

>>> from repro.serve.faults import FaultInjector, FaultPlan
>>> injector = FaultInjector(
...     FaultPlan(seed=7, kernel_failure_rate=1.0, max_kernel_failures=1)
... )
>>> try:
...     injector.before_attempt()
... except Exception as error:
...     print(type(error).__name__)
TransientError
>>> injector.before_attempt()   # cap reached: no further injection
>>> injector.stats()["kernel_failures"]
1
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ReproError, TransientError


class WorkerKilled(BaseException):
    """An injected worker death (deliberately **not** a :class:`ReproError`).

    Subclasses ``BaseException`` so it escapes the scheduler's per-flight
    ``except`` handling the same way an escaped bug or a hard thread kill
    would, triggering worker supervision instead of per-request error
    reporting.
    """


@dataclass(frozen=True)
class FaultPlan:
    """The seeded chaos recipe a :class:`FaultInjector` executes.

    Rates are probabilities in ``[0, 1]`` drawn per injection point;
    ``max_*`` caps bound the total number of injections (``None`` =
    unbounded), which is how tests pin exact failure counts.
    """

    seed: int = 0
    kernel_failure_rate: float = 0.0
    max_kernel_failures: int | None = None
    slow_rate: float = 0.0
    slow_seconds: float = 0.0
    worker_death_rate: float = 0.0
    max_worker_deaths: int | None = None
    clock_skew: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "kernel_failure_rate",
            "slow_rate",
            "worker_death_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_seconds < 0:
            raise ReproError(
                f"slow_seconds must be >= 0, got {self.slow_seconds}"
            )


class FaultInjector:
    """Executes a :class:`FaultPlan` at the scheduler's injection points.

    Construct from a plan, or with the plan's fields as keywords::

        FaultInjector(seed=11, worker_death_rate=1.0, max_worker_deaths=2)

    Thread-safe: draws and counters are serialized on one lock, so the
    seeded stream is consumed in a single global order.
    """

    def __init__(self, plan: FaultPlan | None = None, **plan_fields):
        if plan is not None and plan_fields:
            raise ReproError("pass either a FaultPlan or its fields, not both")
        self.plan = plan if plan is not None else FaultPlan(**plan_fields)
        self._rng = random.Random(self.plan.seed)
        self._lock = threading.Lock()
        self._kernel_failures = 0
        self._worker_deaths = 0
        self._slowdowns = 0

    # ------------------------------------------------------------------
    # Injection points (called by the scheduler)
    # ------------------------------------------------------------------
    def clock(self) -> float:
        """The injected monotonic clock: real time plus the plan's skew."""
        return time.monotonic() + self.plan.clock_skew

    def retry_rng(self) -> random.Random:
        """A derived RNG for retry jitter (seeded, independent stream)."""
        return random.Random(self.plan.seed ^ 0x5EED)

    def before_attempt(self) -> None:
        """Fire the slow-execution and kernel-raise points for one attempt."""
        plan = self.plan
        sleep_for = 0.0
        with self._lock:
            if plan.slow_rate and self._rng.random() < plan.slow_rate:
                self._slowdowns += 1
                sleep_for = plan.slow_seconds
            fail = (
                plan.kernel_failure_rate
                and (
                    plan.max_kernel_failures is None
                    or self._kernel_failures < plan.max_kernel_failures
                )
                and self._rng.random() < plan.kernel_failure_rate
            )
            if fail:
                self._kernel_failures += 1
                count = self._kernel_failures
        if sleep_for:
            time.sleep(sleep_for)
        if fail:
            raise TransientError(f"injected kernel failure #{count}")

    def on_claim(self) -> None:
        """Fire the worker-death point for one claimed batch."""
        plan = self.plan
        with self._lock:
            if not plan.worker_death_rate:
                return
            if (
                plan.max_worker_deaths is not None
                and self._worker_deaths >= plan.max_worker_deaths
            ):
                return
            if self._rng.random() >= plan.worker_death_rate:
                return
            self._worker_deaths += 1
            count = self._worker_deaths
        raise WorkerKilled(f"injected worker death #{count}")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Injection counts (kernel failures, worker deaths, slowdowns)."""
        with self._lock:
            return {
                "seed": self.plan.seed,
                "kernel_failures": self._kernel_failures,
                "worker_deaths": self._worker_deaths,
                "slowdowns": self._slowdowns,
                "clock_skew": self.plan.clock_skew,
            }

    def __repr__(self) -> str:
        return f"FaultInjector({self.plan!r})"
