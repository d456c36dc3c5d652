"""The serving subsystem's unit of work: hashable, coalescable requests.

A :class:`Request` names an evaluation family (one of
:data:`repro.engine.session.REQUEST_FAMILIES`) and carries its parameters in
a canonical, hashable form.  Two requests with equal :attr:`signature` are
interchangeable — the scheduler's single-flight coalescing and the session
result memo both key on it.

>>> from repro.serve import Request
>>> Request.make("pqe", exact=False) == Request.make("pqe")
True
>>> str(Request.make("pqe", exact=True))
'pqe(exact=True)'
>>> Request.make("pqe").signature
('pqe', ())

A request may carry a relative ``deadline`` (seconds from submission);
the deadline is admission metadata, **not** identity — a deadlined
request still coalesces with (and memo-hits) its undeadlined twin:

>>> Request.make("pqe", deadline=0.5) == Request.make("pqe")
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.session import canonical_params, request_family
from repro.exceptions import SchemaError

Params = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class Request:
    """One evaluation request: a family name plus canonicalized parameters.

    Construct through :meth:`make` (keyword parameters, sorted into the
    canonical tuple) or directly with a ``params`` tuple; either way the
    parameters are sorted and explicitly-spelled handler defaults dropped
    (``pqe(exact=False)`` ≡ ``pqe()``), so equal-semantics requests carry
    equal signatures.  Instances are frozen and hashable, so they can key
    queues, in-flight tables and memo dictionaries: an unhashable
    parameter value raises :class:`~repro.exceptions.SchemaError`.

    ``deadline`` — optional, relative seconds from submission — is
    excluded from equality and hashing (``compare=False``): it shapes
    *when* the answer is still wanted, not *what* is asked, so deadlined
    requests coalesce freely.  Expiry is enforced by the scheduler at
    claim time and resolves the future with
    :class:`~repro.exceptions.DeadlineExceeded` before any execution.

    ``trace`` — a :class:`repro.obs.Trace` the scheduler attaches at
    submission — is likewise observability metadata, not identity: it is
    excluded from equality, hashing and ``repr``, and the same trace is
    reachable from the returned future via :func:`repro.obs.trace_of`.
    """

    family: str
    params: Params = field(default_factory=tuple)
    deadline: float | None = field(default=None, compare=False)
    trace: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        normalized = canonical_params(self.family, dict(self.params))
        object.__setattr__(
            self, "params", tuple(sorted(normalized.items()))
        )
        try:
            hash(self.params)
        except TypeError:
            raise SchemaError(
                f"request parameters must be hashable values: {self}"
            ) from None

    @classmethod
    def make(
        cls, family: str, *, deadline: float | None = None, **params
    ) -> "Request":
        """``Request.make("shapley_value", fact=f)`` — the ergonomic spelling."""
        return cls(family, tuple(params.items()), deadline)

    @property
    def kwargs(self) -> dict[str, object]:
        """The parameters as keyword arguments for the session handler."""
        return dict(self.params)

    @property
    def signature(self) -> tuple:
        """The coalescing/memo key: requests with equal signatures are one."""
        return (self.family, self.params)

    def validate(self) -> "Request":
        """Raise :class:`~repro.exceptions.ReproError` for an unknown family
        or a parameter value the family cannot take (its declared
        :attr:`~repro.engine.session.RequestFamily.check`)."""
        check = request_family(self.family).check
        if check is not None:
            check(self.kwargs)
        return self

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.family}({inner})"
