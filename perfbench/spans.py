"""Client-side spans around each call the benchmark makes into a layer.

A span records its name, start, end, parent span and op id.  Spans stay in
memory while the run measures and are written out once, when it ends.  The
untraced run uses :data:`OFF`, whose spans record nothing, so both runs
execute the same benchmark code and their throughput difference is the
cost of tracing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Spans:
    """An in-memory span recorder shared by the client threads."""

    def __init__(self):
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        """Time the body as span *name* of op *op*; yields the span id."""
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            with self._lock:
                self._records.append((span_id, parent, op, name, start, end))

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name: duration minus child spans.

        Children of one span run on the same client thread, one after the
        other, so subtracting their durations removes exactly the part of
        the parent's interval they cover.
        """
        with self._lock:
            records = list(self._records)
        child_time: dict[int, float] = defaultdict(float)
        for _id, parent, _op, _name, start, end in records:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _parent, _op, name, start, end in records:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def write(self, path, ops: int) -> dict[str, float]:
        """Write every span and the per-op self times (ms) as JSON lines."""
        summary = {
            name: 1e3 * seconds / max(ops, 1)
            for name, seconds in sorted(self.self_times().items())
        }
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self._records:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")
            handle.write(json.dumps({"self_ms_per_op": summary}) + "\n")
        return summary


class _Off:
    """The untraced recorder: the same interface, no clock reads."""

    @contextmanager
    def span(self, _name: str, _op: int, _parent: int | None = None):
        yield None


OFF = _Off()
