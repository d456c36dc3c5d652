"""The three workloads: seeded op streams, closed-loop clients, answer checks.

Every workload is a closed loop — a client sends its next op only when the
previous answer has arrived — and reaches the program only through its
public entry points: the HTTP front-end of a child ``repro serve`` process
(``pqe-sweep``, ``whatif``) or the in-process ``Server`` API
(``cold-load``).  Answers are recorded during the timed phase and checked
afterwards against references that a serial in-process session computes
outside it; a wrong answer, a non-200 response or a transport error is a
failed op and is never retried.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from child import Client, ServerProcess, WORKERS, scrape
from spans import OFF, Spans

#: Bindings per pqe-sweep request body.
SWEEP_WIDTH = 16
#: pqe-sweep's server keeps this many results (LRU, ``--memo-limit``).
MEMO_LIMIT = 1024
#: Server launches per run, half before the timed phase and half after, so
#: their median, the set-up time, spans the run; HTTP workloads count the
#: measured server's launch among them.
SETUP_LAUNCHES = 9
#: Absolute tolerance for float PQE answers.
TOLERANCE = 1e-9
#: whatif ops checked against a reference (the references cost as much as
#: the ops themselves).
WHATIF_SAMPLE = 12
CLIENTS = 2
#: Good ops per latency window (see :meth:`Phase.end_to_end`).
WINDOW_OPS = 20


@dataclass
class Run:
    """One benchmark invocation: where it runs and what it was asked."""

    root: Path
    seed: int
    seconds: float
    scale: str
    work: Path

    def generate(self, kind: str, name: str) -> Path:
        """Write *kind*'s seeded inputs (see gen.py) to a fresh directory."""
        outdir = self.work / name
        subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "gen.py"),
             kind, str(self.seed), self.scale, str(outdir)],
            check=True, cwd=self.root,
        )
        return outdir


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: list = field(default_factory=list)  # seconds, good ops, in completion order
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    peak_growth_mib: float = 0.0  # growth of this process's peak RSS
    connections: int = 0
    response_bytes: int = 0
    queries: int = 0
    deltas: dict = field(default_factory=dict)  # Prometheus sample deltas
    traces: list = field(default_factory=list)  # flight-recorder entries
    spans: Spans | None = None

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s

    def absorb(self, other: "Phase") -> None:
        """Append a later round of the same untraced run."""
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.connections += other.connections
        self.response_bytes += other.response_bytes
        self.queries += other.queries

    def end_to_end(self) -> dict:
        """Throughput, and latency percentiles averaged over op windows.

        The good ops are cut, in completion order, into windows of
        :data:`WINDOW_OPS`; each percentile is taken per window and
        averaged.  A shared host changes speed for seconds at a time: this
        average moves in proportion to the share of a run's ops that ran
        slow, where the percentile of all the run's ops at once jumps
        between the fast and the slow periods' values as that share
        crosses it.
        """
        windows = _windows(self.latencies, WINDOW_OPS)
        return {
            "ops_per_s": self.ops_per_s,
            "latency_p50_ms": 1e3 * statistics.fmean(
                statistics.median(window) for window in windows
            ),
            "latency_p90_ms": 1e3 * statistics.fmean(
                statistics.quantiles(window, n=10, method="inclusive")[8]
                for window in windows
            ),
        }


def _windows(latencies: list, size: int) -> list[list]:
    """Consecutive windows of *size*; the remainder joins the last one."""
    # quantiles() needs two points; fewer means (nearly) every op failed.
    if len(latencies) < 2:
        latencies = (latencies or [0.0]) * 2
    count = max(1, len(latencies) // size)
    windows = [latencies[index * size:(index + 1) * size] for index in range(count)]
    windows[-1] = latencies[(count - 1) * size:]
    return windows


def closed_loop(clients, check, seconds: float, spans=OFF) -> Phase:
    """Run each client on its own thread until *seconds* have passed.

    A client is ``(ops, perform)``: *ops* yields op descriptions (clients
    may share one :class:`SharedOps`) and ``perform(op, op_id, spans)``
    sends one op and returns its answer.  ``check(op, answer)`` runs after
    the phase, so checking costs the closed loop nothing.  A client whose
    op stream ends stops early.
    """
    records: list[list] = [[] for _ in clients]
    op_ids = itertools.count()
    peak_before = _peak_rss_mib()
    start = time.perf_counter()
    deadline = start + seconds
    ends = [start] * len(clients)

    def loop(index: int, ops, perform) -> None:
        out = records[index]
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            began = time.perf_counter()
            try:
                answer = perform(op, next(op_ids), spans)
            except Exception as error:  # a failed op, never retried
                answer = error
            ended = time.perf_counter()
            out.append((ended, op, answer, ended - began))
        ends[index] = time.perf_counter()

    threads = [
        threading.Thread(target=loop, args=(index, ops, perform), daemon=True)
        for index, (ops, perform) in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Read before the checks run: they may compute references.
    phase = Phase(
        wall_s=max(ends) - start, peak_growth_mib=_peak_rss_mib() - peak_before
    )
    reported = 0
    completed = sorted(itertools.chain.from_iterable(records), key=lambda record: record[0])
    for _ended, op, answer, latency in completed:
        phase.attempted += 1
        try:
            ok = not isinstance(answer, Exception) and check(op, answer)
        except Exception as error:  # a malformed answer is a wrong one
            ok, answer = False, error
        if ok:
            phase.latencies.append(latency)
        else:
            phase.failed += 1
            if reported < 5:
                reported += 1
                print(f"failed op {op!r}: {str(answer)[:300]}", file=sys.stderr)
    return phase


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


class SharedOps:
    """One op stream that several client threads draw from in turn."""

    def __init__(self, ops):
        self._ops = iter(ops)
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._ops)


def _zipf(rng: random.Random, count: int):
    """A Zipf(1) ``() → rank`` draw: weight ``1/(rank+1)``."""
    cumulative = list(itertools.accumulate(1.0 / (k + 1) for k in range(count)))
    total = cumulative[-1]
    return lambda: min(bisect_right(cumulative, rng.random() * total), count - 1)


def hottest_first(pdb) -> list:
    """The values of ``A``, ordered by how many facts each selects."""
    rows: dict = {}
    for fact in pdb.facts():
        rows[fact.values[0]] = rows.get(fact.values[0], 0) + 1
    return sorted(rows, key=lambda value: (-rows[value], value))


def sweep_ops(keys: list, seed: int, client: int):
    """Client *client*'s endless seeded stream of 16-value sweeps."""
    draw = _zipf(random.Random(f"pqe-sweep/{seed}/{client}"), len(keys))
    while True:
        yield tuple(keys[draw()] for _ in range(SWEEP_WIDTH))


def setup_times(launch, count: int) -> list[float]:
    """Set-up seconds of *count* servers from ``launch()``, each stopped at once."""
    times = []
    for _ in range(count):
        with launch() as server:
            times.append(server.setup_s)
    return times


def _delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class HttpWorkload:
    """A closed loop of POST /v1/query ops against a child server."""

    queries_per_op = 1
    #: Options added to every ``repro serve`` launch of the workload.
    serve_args: tuple = ()

    def __init__(self, run: Run, data: Path):
        self.run = run
        self.document = data / "server.json"

    def streams(self, round_: int) -> list:
        """One op iterator per client thread for round *round_*."""
        raise NotImplementedError

    def body(self, op) -> bytes:
        raise NotImplementedError

    def check(self, op, answer) -> bool:
        raise NotImplementedError

    def _server(self, trace_log: Path | None = None) -> ServerProcess:
        return ServerProcess(
            self.run.root, self.document, self.run.work / "logs",
            trace_log=trace_log, serve_args=self.serve_args,
        )

    def _drive(self, server: ServerProcess, seconds: float, spans, round_: int = 0) -> Phase:
        http_clients = [Client(server.port) for _ in range(CLIENTS)]

        def performer(client: Client):
            def perform(op, op_id, spans):
                body = self.body(op)
                with spans.span("op", op_id) as root:
                    with spans.span("http.post", op_id, root):
                        status, payload = client.request("POST", "/v1/query", body)
                return status, payload
            return perform

        # The program runs in the child, so this process only holds the
        # clients and the oracle: keep the collector from rescanning the
        # oracle's objects in the middle of an op.
        gc.collect()
        gc.freeze()
        try:
            phase = closed_loop(
                [(ops, performer(client))
                 for ops, client in zip(self.streams(round_), http_clients)],
                self.check, seconds, spans,
            )
        finally:
            gc.unfreeze()
            for client in http_clients:
                client.close()
        phase.connections = sum(client.connections for client in http_clients)
        phase.response_bytes = sum(client.received for client in http_clients)
        phase.queries = self.queries_per_op * (phase.attempted - phase.failed)
        return phase

    def measure(self) -> tuple[Phase, dict]:
        """The untraced run: rounds of the timed phase amid set-up launches.

        A round drives one fresh server until its op stream ends or the
        run's time is used up.  pqe-sweep's stream never ends, so it runs
        one round; whatif's ends once every fact was asked, and further
        rounds, each on a new server so no answer comes from the memo,
        measure for the rest of the time.  ``rss_mb`` is the first
        round's server peak.
        """
        setups = setup_times(self._server, SETUP_LAUNCHES // 2)
        phase, rss_mb = Phase(), None
        for round_ in itertools.count():
            with self._server() as server:
                done = self._drive(server, self.run.seconds - phase.wall_s, OFF, round_)
            phase.absorb(done)
            if rss_mb is None:
                setups.append(server.setup_s)
                rss_mb = server.peak_rss_mib
            if phase.wall_s >= self.run.seconds or not done.attempted:
                break
        setups += setup_times(self._server, SETUP_LAUNCHES - 1 - SETUP_LAUNCHES // 2)
        metrics = phase.end_to_end()
        metrics["setup_s"] = statistics.median(setups)
        metrics["rss_mb"] = rss_mb
        return phase, metrics

    def measure_traced(self, seconds: float) -> Phase:
        """The traced phase: flight recorder, /metrics deltas, spans."""
        trace_log = self.run.work / "logs" / "trace.jsonl"
        trace_log.unlink(missing_ok=True)
        spans = Spans()
        with self._server(trace_log) as server:
            before = scrape(server.port)
            phase = self._drive(server, seconds, spans)
            phase.deltas = _delta(before, scrape(server.port))
        phase.spans = spans
        # The first line is the set-up request's.
        phase.traces = [
            json.loads(line) for line in trace_log.read_text().splitlines()[1:]
        ]
        return phase

    def measure_untraced(self, seconds: float) -> Phase:
        with self._server() as server:
            return self._drive(server, seconds, OFF)


class PqeSweep(HttpWorkload):
    """Binding sweeps of 16 Zipf(1)-drawn values of ``A``, hottest first.

    The server's result memo holds :data:`MEMO_LIMIT` answers, fewer than
    there are values of ``A``, so the share of bindings it answers settles
    within the first seconds and stays there.  An unbounded memo would
    fill all through the run, and a faster run, finishing more ops, would
    then read cheaper ops.
    """

    queries_per_op = SWEEP_WIDTH
    serve_args = ("--memo-limit", str(MEMO_LIMIT))

    def __init__(self, run: Run, data: Path):
        from repro.db.io import probabilistic_from_dict
        from repro.engine import Engine
        from repro.query.parser import parse_query
        from gen import QUERY

        super().__init__(run, data)
        pdb = probabilistic_from_dict(json.loads((data / "tid.json").read_bytes()))
        self.keys = hottest_first(pdb)
        # The oracle: one grouped (free variable A) pass answers Q(a) for
        # every a at once, by a different code path than the served sweep.
        engine = Engine()
        monoid = engine.create_monoid("probability", exact=False)
        grouped = engine.open(parse_query(QUERY)).grouped(
            ["A"], monoid, pdb.probability, pdb.facts()
        )
        self.reference = {key[0]: value for key, value in grouped.items()}

    def streams(self, _round: int) -> list:
        return [sweep_ops(self.keys, self.run.seed, client) for client in range(CLIENTS)]

    def body(self, op) -> bytes:
        return json.dumps({"requests": [{
            "family": "pqe", "bindings": [{"A": value} for value in op],
        }]}).encode()

    def check(self, op, answer) -> bool:
        status, payload = answer
        if status != 200:
            return False
        document = json.loads(payload)
        results = document["results"]
        return document["failed"] == 0 and len(results) == len(op) and all(
            isinstance(entry.get("value"), float)
            and abs(entry["value"] - self.reference.get(value, 0.0)) <= TOLERANCE
            for entry, value in zip(results, op)
        )


class WhatIf(HttpWorkload):
    """Per-fact attribution plus a repair plan at a budget not yet asked."""

    queries_per_op = 3

    def __init__(self, run: Run, data: Path):
        from repro.db.io import database_from_dict
        from repro.engine import Engine
        from repro.query.parser import parse_query

        super().__init__(run, data)
        document = json.loads(self.document.read_text())
        sources = {
            name: database_from_dict(payload)
            for name, payload in document["data"].items()
        }
        rng = random.Random(f"whatif/{run.seed}")
        facts = sorted(sources["endogenous"].facts(), key=repr)
        rng.shuffle(facts)
        # Op i attributes fact i and plans at budget i: no server is asked
        # a fact or a budget twice, so nothing is answered from the memo.
        # The budgets are 1..ops in a seeded order, so every seed plans the
        # same total work and caches the same annotated databases.
        budgets = list(range(1, len(facts) + 1))
        rng.shuffle(budgets)
        self.ops = [
            (index, fact, budgets[index]) for index, fact in enumerate(facts)
        ]
        session = Engine().open(parse_query(document["query"]), **sources)
        sample = rng.sample(self.ops, min(WHATIF_SAMPLE, len(self.ops)))
        self.reference = {
            index: (
                session.shapley_value(fact),
                session.banzhaf_value(fact),
                session.maximize(budget),
            )
            for index, fact, budget in sample
        }

    def streams(self, round_: int) -> list:
        # Both clients draw from the one sequence, so neither runs out of
        # ops first and the whole round runs at two clients.  Every round
        # asks all the ops, each in its own seeded order, so a round the
        # time cuts short still asks a random sample of them.
        ops = list(self.ops)
        if round_:
            random.Random(f"whatif/{self.run.seed}/round{round_}").shuffle(ops)
        return [SharedOps(ops)] * CLIENTS

    def body(self, op) -> bytes:
        _index, fact, budget = op
        encoded = {"relation": fact.relation, "values": list(fact.values)}
        return json.dumps({"requests": [
            {"family": "shapley_value", "fact": encoded},
            {"family": "banzhaf_value", "fact": encoded},
            {"family": "maximize", "budget": budget},
        ]}).encode()

    def check(self, op, answer) -> bool:
        status, payload = answer
        if status != 200:
            return False
        document = json.loads(payload)
        results = document["results"]
        if document["failed"] or len(results) != 3:
            return False
        try:
            shapley = Fraction(results[0]["value"])
            banzhaf = Fraction(results[1]["value"])
            best = results[2]["value"]
        except (KeyError, ValueError, TypeError):
            return False
        expected = self.reference.get(op[0])
        if expected is None:
            return isinstance(best, int)
        return (shapley, banzhaf, best) == expected


# ----------------------------------------------------------------------
# cold-load: in-process, one client
# ----------------------------------------------------------------------
class ColdLoad:
    """Decode the dataset bytes, open a Server, answer one pqe, close."""

    queries_per_op = 1

    def __init__(self, run: Run, data: Path):
        from repro.query.parser import parse_query
        from gen import QUERY

        self.run = run
        self.document = data / "server.json"
        self.payload = (data / "tid.json").read_bytes()
        self.warmup = (data / "warmup.json").read_bytes()
        self.query = parse_query(QUERY)
        self.reference = None

    def open_op(self, payload: bytes, op_id: int, spans, event_log=None, registries=None):
        from repro.db.io import probabilistic_from_dict
        from repro.serve import Server
        from repro.serve.request import Request

        with spans.span("op", op_id) as root:
            with spans.span("db.decode", op_id, root):
                pdb = probabilistic_from_dict(json.loads(payload))
            with spans.span("serve.open", op_id, root):
                server = Server(
                    self.query, probabilistic=pdb, workers=WORKERS,
                    event_log=event_log,
                )
            try:
                with spans.span("serve.submit", op_id, root):
                    value = server.submit(Request.make("pqe")).result()
                if registries is not None:
                    registries(server)
            finally:
                with spans.span("serve.close", op_id, root):
                    server.close()
        return value

    def _server(self) -> ServerProcess:
        return ServerProcess(self.run.root, self.document, self.run.work / "logs")

    def _phase(self, seconds: float, spans, event_log=None, registries=None) -> Phase:
        perform = lambda _op, op_id, spans: self.open_op(  # noqa: E731
            self.payload, op_id, spans, event_log, registries
        )
        return closed_loop(
            [(itertools.repeat(None), perform)],
            lambda _op, answer: self._check(answer), seconds, spans,
        )

    def _check(self, answer) -> bool:
        if self.reference is None:
            from repro.db.io import probabilistic_from_dict
            from repro.engine import Engine

            pdb = probabilistic_from_dict(json.loads(self.payload))
            self.reference = Engine().open(self.query, probabilistic=pdb).pqe()
        return isinstance(answer, float) and abs(answer - self.reference) <= TOLERANCE

    def measure(self) -> tuple[Phase, dict]:
        setups = setup_times(self._server, SETUP_LAUNCHES // 2)
        phase = self.measure_untraced(self.run.seconds)
        setups += setup_times(self._server, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        metrics = phase.end_to_end()
        metrics["setup_s"] = statistics.median(setups)
        metrics["rss_mb"] = phase.peak_growth_mib
        return phase, metrics

    def measure_untraced(self, seconds: float) -> Phase:
        self.open_op(self.warmup, -1, OFF)
        return self._phase(seconds, OFF)

    def measure_traced(self, seconds: float) -> Phase:
        from repro.obs import EventLog, global_registry, render_prometheus
        from repro.obs.metrics import parse_exposition

        def snapshot(registries) -> dict:
            return parse_exposition(render_prometheus(registries))

        totals: dict = {}

        def per_server(server) -> None:
            for key, value in snapshot([
                server.scheduler.metrics_registry, server.session.metrics_registry,
            ]).items():
                totals[key] = totals.get(key, 0.0) + value

        trace_log = self.run.work / "logs" / "trace.jsonl"
        trace_log.parent.mkdir(parents=True, exist_ok=True)
        trace_log.unlink(missing_ok=True)
        self.open_op(self.warmup, -1, OFF)
        before = snapshot([global_registry()])
        spans = Spans()
        with EventLog(trace_log) as event_log:
            phase = self._phase(seconds, spans, event_log, per_server)
        phase.spans = spans
        phase.deltas = {**_delta(before, snapshot([global_registry()])), **totals}
        phase.traces = [json.loads(line) for line in trace_log.read_text().splitlines()]
        return phase


WORKLOADS = {"pqe-sweep": PqeSweep, "whatif": WhatIf, "cold-load": ColdLoad}
