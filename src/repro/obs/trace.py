"""Per-request lifecycle traces and the structured JSONL event log.

A :class:`Trace` rides along with one serving request from admission to
resolution.  Each stage calls :meth:`Trace.mark` with a stage name —
``submitted``, ``claimed``, ``executed`` / ``memo_hit`` / ``fused``,
``resolved`` — and the trace records a monotonic timestamp
plus any structured fields the stage attaches (outcome, batch size,
tier).  Durations are derived, never stored: ``queue_wait`` is
claimed − submitted, ``total`` is resolved − submitted, so a trace is
just an append-only list of marks and stays cheap to take under the
scheduler's locks.

Traces are reachable from both ends of the futures API: the scheduler
attaches each trace to the future it hands back (read it with
:func:`trace_of`) and to the :class:`~repro.serve.request.Request`
itself via its ``trace`` field.

When the scheduler is given an :class:`EventLog`, every resolved trace
is appended to it as one JSON object per line — a greppable flight
recorder for post-hoc analysis.

>>> trace = Trace("pqe")
>>> trace.mark("submitted")
>>> trace.mark("resolved", outcome="ok")
>>> [name for name, _ts, _fields in trace.marks]
['submitted', 'resolved']
>>> trace.to_dict()["family"]
'pqe'
"""

from __future__ import annotations

import json
import threading
import time


class Trace:
    """The recorded lifecycle of one serving request.

    Marks are ``(stage, timestamp, fields)`` triples ordered by arrival;
    ``timestamp`` is a ``time.perf_counter()`` reading, so durations
    between marks are meaningful but absolute values are not.
    """

    __slots__ = ("family", "marks", "_lock")

    def __init__(self, family: str):
        self.family = family
        self.marks: list[tuple[str, float, dict]] = []
        self._lock = threading.Lock()

    def mark(self, stage: str, **fields) -> None:
        """Record that *stage* happened now, with optional structured fields."""
        entry = (stage, time.perf_counter(), fields)
        with self._lock:
            self.marks.append(entry)

    def when(self, stage: str) -> float | None:
        """The timestamp of the first mark named *stage*, or None."""
        with self._lock:
            for name, timestamp, _fields in self.marks:
                if name == stage:
                    return timestamp
        return None

    def duration(self, start_stage: str, end_stage: str) -> float | None:
        """Seconds between the first *start_stage* and first *end_stage* marks."""
        start = self.when(start_stage)
        end = self.when(end_stage)
        if start is None or end is None:
            return None
        return end - start

    @property
    def queue_wait(self) -> float | None:
        """Seconds spent queued: submitted → claimed (None until both)."""
        return self.duration("submitted", "claimed")

    @property
    def total(self) -> float | None:
        """End-to-end seconds: submitted → resolved (None until resolved).

        One scan under the lock finds both marks (the first of each).
        """
        submitted = resolved = None
        with self._lock:
            for name, timestamp, _fields in self.marks:
                if name == "submitted" and submitted is None:
                    submitted = timestamp
                elif name == "resolved" and resolved is None:
                    resolved = timestamp
        if submitted is None or resolved is None:
            return None
        return resolved - submitted

    @property
    def outcome(self) -> str | None:
        """The ``outcome`` field of the ``resolved`` mark, if resolved."""
        with self._lock:
            for name, _timestamp, fields in self.marks:
                if name == "resolved":
                    return fields.get("outcome")
        return None

    def to_dict(self) -> dict:
        """A JSON-ready summary: family, relative-time marks, durations."""
        with self._lock:
            marks = list(self.marks)
        if marks:
            origin = marks[0][1]
        else:
            origin = 0.0
        return {
            "family": self.family,
            "marks": [
                {"stage": name, "t": round(timestamp - origin, 9), **fields}
                for name, timestamp, fields in marks
            ],
            "queue_wait_s": self.queue_wait,
            "total_s": self.total,
            "outcome": self.outcome,
        }

    def __repr__(self) -> str:
        stages = [name for name, _t, _f in self.marks]
        return f"Trace({self.family!r}, stages={stages})"


class EventLog:
    """A thread-safe JSONL appender for resolved request traces.

    One :meth:`record` call writes one line; the file handle is opened
    lazily and shared, so enabling the flight recorder costs one small
    serialized write per resolved request and nothing otherwise.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None

    def record(self, trace: Trace) -> None:
        """Append *trace* (via :meth:`Trace.to_dict`) as one JSON line."""
        line = json.dumps(trace.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def trace_of(obj) -> Trace | None:
    """The :class:`Trace` attached to a future or request, if any.

    The scheduler stores each request's trace on the future it returns
    (``_repro_trace``) and on the request's ``trace`` field; this helper
    reads either, so callers holding only a future can still ask where
    its time went.

    >>> class Stub: pass
    >>> future = Stub()
    >>> future._repro_trace = Trace("pqe")
    >>> trace_of(future).family
    'pqe'
    >>> trace_of(object()) is None
    True
    """
    trace = getattr(obj, "_repro_trace", None)
    if trace is not None:
        return trace
    trace = getattr(obj, "trace", None)
    if isinstance(trace, Trace):
        return trace
    return None
