"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class QueryError(ReproError):
    """Raised when a query is malformed or violates a required property."""


class ParseError(QueryError):
    """Raised when a query string cannot be parsed."""


class NotSelfJoinFreeError(QueryError):
    """Raised when an operation requires a self-join-free query."""


class NotHierarchicalError(QueryError):
    """Raised when an operation requires a hierarchical query.

    Algorithm 1 applies only to hierarchical SJF-BCQs (Proposition 5.1 of the
    paper); feeding it a non-hierarchical query raises this error.
    """


class SchemaError(ReproError):
    """Raised when facts or relations do not match the expected schema."""


class AlgebraError(ReproError):
    """Raised when 2-monoid elements are used inconsistently."""


class ReductionError(ReproError):
    """Raised when a hardness reduction receives an invalid input."""


class TransientError(ReproError):
    """A serving failure, not the request's own: resubmitting may succeed.

    The scheduler raises it when worker deaths exhaust a request's re-queue
    budget, and the fault-injection harness (:mod:`repro.serve.faults`)
    raises it to simulate flaky kernels.  The circuit breaker
    (:class:`repro.serve.admission.CircuitBreaker`) counts it as a kernel
    failure.
    """


class DeadlineExceeded(ReproError):
    """A request's deadline expired before its execution started.

    Deadlines are checked at claim time (see
    :class:`repro.serve.scheduler.Scheduler`), so queued-but-dead work is
    resolved with this error without paying for execution.
    """


class QueueFullError(ReproError):
    """The scheduler's bounded request queue rejected an admission.

    Raised on submit under the ``"reject"`` shed policy, or set on the
    *oldest* queued request's future under ``"shed_oldest"``.
    """


class RateLimitedError(QueueFullError):
    """A per-family token bucket rejected an admission.

    Subclasses :class:`QueueFullError` so one ``except`` clause covers both
    backpressure rejections.
    """


class CircuitOpenError(ReproError):
    """The session's circuit breaker is open: requests fail fast.

    The breaker first degrades the session's kernel tier (array → batched,
    bit-identical results); only when failures persist on the degraded tier
    does it open and reject with this error until the cool-down elapses.
    """
