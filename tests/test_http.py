"""The asyncio HTTP front-end and the scrape-under-load invariant.

Endpoint tests drive a live :class:`repro.serve.http.HttpFrontend` over
a real :class:`~repro.serve.server.Server` with stdlib ``urllib`` —
query/stream semantics, error mapping, Prometheus exposition — and the
Satellite chaos test runs an 8-worker fault-injected workload while a
concurrent scraper hammers ``GET /metrics``, asserting the three
serving-stack observability invariants: answers stay bit-identical,
scrapes stay fast, counters stay monotone.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from fractions import Fraction

import pytest

from repro import Fact, ProbabilisticDatabase, Request, Server, parse_query
from repro.db.database import Database
from repro.engine import Engine
from repro.engine.session import REQUEST_FAMILIES
from repro.exceptions import (
    DeadlineExceeded,
    QueueFullError,
    TransientError,
)
from repro.obs import parse_exposition
from repro.query.families import star_query
from repro.serve import FaultInjector, RetryPolicy
from repro.serve.http import HttpFrontend, decode_body, encode_value
from repro.workloads.generators import random_probabilistic_database


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def _post(url: str, payload) -> tuple[int, str]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


@pytest.fixture(scope="module")
def frontend():
    """One live HTTP front-end over a small probabilistic workload."""
    query = parse_query("Q() :- R(X), S(X)")
    pdb = ProbabilisticDatabase({
        **{Fact("R", (i,)): Fraction(1, 2) for i in range(3)},
        **{Fact("S", (i,)): Fraction(1, 3) for i in range(3)},
    })
    with Server(query, probabilistic=pdb, workers=2) as server:
        with HttpFrontend(server).start() as frontend:
            yield frontend


class TestEncodeValue:
    def test_fractions_become_exact_strings(self):
        assert encode_value(Fraction(1, 3)) == "1/3"

    def test_infinity_becomes_a_string(self):
        assert encode_value(float("inf")) == "inf"

    def test_fact_keyed_mappings(self):
        fact = Fact("R", (1, 2))
        encoded = encode_value({fact: Fraction(1, 2)})
        assert encoded == {str(fact): "1/2"}

    def test_tuples_encode_elementwise(self):
        assert encode_value((0, 3, Fraction(1, 2))) == [0, 3, "1/2"]

    def test_plain_scalars_pass_through(self):
        assert encode_value(0.25) == 0.25
        assert encode_value(7) == 7
        assert encode_value(True) is True
        assert encode_value(None) is None


class TestDecodeBody:
    def test_single_request_object(self):
        requests = decode_body(b'{"family": "pqe", "exact": true}')
        assert [str(r) for r in requests] == ["pqe(exact=True)"]

    def test_batch_with_bindings_sweep(self):
        requests = decode_body(json.dumps({
            "requests": [{"family": "pqe", "bindings": [{"X": 1}, {"X": 2}]}]
        }).encode())
        assert len(requests) == 2

    def test_rejects_non_object_bodies(self):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            decode_body(b"[1, 2]")
        with pytest.raises(SchemaError):
            decode_body(b"not json")
        with pytest.raises(SchemaError):
            decode_body(b'{"requests": []}')

    def test_rejects_unhashable_parameters(self):
        from repro.exceptions import SchemaError

        body = json.dumps(
            {"family": "pqe", "bindings": [{"fact": ["R", [0]]}]}
        ).encode()
        with pytest.raises(SchemaError):
            decode_body(body)


class TestHealthz:
    def test_healthy_server_answers_ok(self, frontend):
        status, body = _get(frontend.url + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["workers"] == 2
        assert health["breaker_open"] == 0


class TestMetricsEndpoint:
    def test_exposition_is_parseable_and_complete(self, frontend):
        # Serve something first so request counters exist.
        _post(frontend.url + "/v1/query", {"family": "pqe"})
        status, text = _get(frontend.url + "/metrics")
        assert status == 200
        parsed = parse_exposition(text)
        names = {name for name, _labels in parsed}
        for required in (
            "repro_requests_total",
            "repro_request_latency_seconds_bucket",
            "repro_request_latency_seconds_count",
            "repro_scheduler_events_total",
            "repro_memo_hits_total",
            "repro_memo_misses_total",
            "repro_queue_depth",
            "repro_pending_flights",
            "repro_scheduler_workers",
            "repro_plan_cache_hits",
            "repro_tier_executions_total",
        ):
            assert required in names, f"missing family {required}"

    def test_help_and_type_headers_present(self, frontend):
        _status, text = _get(frontend.url + "/metrics")
        assert "# HELP repro_requests_total" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_latency_seconds histogram" in text


class TestQueryEndpoint:
    def test_single_request(self, frontend):
        status, body = _post(
            frontend.url + "/v1/query", {"family": "pqe", "exact": True}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["failed"] == 0
        assert payload["results"][0]["value"] == "91/216"

    def test_batch_keeps_input_order(self, frontend):
        status, body = _post(frontend.url + "/v1/query", {"requests": [
            {"family": "expected_count", "exact": True},
            {"family": "pqe", "exact": True},
        ]})
        assert status == 200
        results = json.loads(body)["results"]
        assert [r["request"] for r in results] == [
            "expected_count(exact=True)", "pqe(exact=True)",
        ]

    def test_failed_requests_ride_in_slot(self, frontend):
        # sat_counts needs an endogenous database this server lacks.
        status, body = _post(frontend.url + "/v1/query", {"requests": [
            {"family": "pqe", "exact": True},
            {"family": "sat_counts"},
        ]})
        assert status == 200
        payload = json.loads(body)
        assert payload["failed"] == 1
        assert "value" in payload["results"][0]
        assert payload["results"][1]["error"]["type"] == "ReproError"

    def test_bad_json_is_400(self, frontend):
        request = urllib.request.Request(
            frontend.url + "/v1/query", data=b"{nope"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        assert caught.value.code == 400

    def test_unknown_family_is_400(self, frontend):
        status, body = _post(frontend.url + "/v1/query", {"family": "nope"})
        assert status == 400
        assert "unknown request family" in json.loads(body)["error"]["message"]

    def test_unknown_route_is_404(self, frontend):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(frontend.url + "/nothing", timeout=30)
        assert caught.value.code == 404


class TestStreamEndpoint:
    def test_ndjson_lines_cover_every_request(self, frontend):
        status, body = _post(frontend.url + "/v1/stream", {"requests": [
            {"family": "pqe", "exact": True},
            {"family": "expected_count", "exact": True},
            {"family": "pqe", "bindings": [{"X": 0}, {"X": 1}]},
        ]})
        assert status == 200
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert sorted(entry["index"] for entry in lines) == [0, 1, 2, 3]
        by_index = {entry["index"]: entry for entry in lines}
        assert by_index[0]["value"] == "91/216"
        assert by_index[0]["request"] == "pqe(exact=True)"


class TestLifecycle:
    def test_double_start_raises(self, frontend):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            frontend.start()

    def test_bind_failure_surfaces(self):
        query = parse_query("Q() :- R(X)")
        pdb = ProbabilisticDatabase({Fact("R", (1,)): Fraction(1, 2)})
        with Server(query, probabilistic=pdb, workers=1) as server:
            with pytest.raises(OSError):
                HttpFrontend(server, host="256.1.1.1", port=1).start()


# ----------------------------------------------------------------------
# Satellite: the scrape-under-load chaos invariant
# ----------------------------------------------------------------------
class TestScrapeUnderLoad:
    """8 workers + fault injection + a concurrent /metrics scraper."""

    _ALLOWED = (DeadlineExceeded, TransientError, QueueFullError)

    #: Sample names that must be monotone between consecutive scrapes:
    #: counters, histogram buckets and their count/sum series.
    _MONOTONE_SUFFIXES = ("_total", "_bucket", "_count", "_sum")

    def _workload(self, size: int = 90, endo: int = 4, seed: int = 11):
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
                Request.make("pqe", exact=True),
            ])
        return requests

    def test_bit_identical_answers_fast_scrapes_monotone_counters(self):
        query, data = self._workload()
        requests = self._stream(data, rounds=4)
        unique = {request.signature: request for request in requests}
        serial = {}
        for signature, request in unique.items():
            session = Engine(kernel_mode="auto").open(query, **data)
            handler = REQUEST_FAMILIES[request.family]
            serial[signature] = handler(session, **request.kwargs)

        faults = FaultInjector(
            seed=11,
            kernel_failure_rate=0.15,
            slow_rate=0.10,
            slow_seconds=0.001,
        )
        scrapes: list[dict] = []
        latencies: list[float] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        with Server(
            query,
            engine=Engine(kernel_mode="auto"),
            workers=8,
            retry=RetryPolicy(max_retries=2, base_delay=0.001),
            faults=faults,
            **data,
        ) as server:
            with HttpFrontend(server).start() as frontend:
                url = frontend.url + "/metrics"

                def scrape_loop():
                    try:
                        while not stop.is_set():
                            started = time.perf_counter()
                            _status, text = _get(url)
                            latencies.append(
                                time.perf_counter() - started
                            )
                            scrapes.append(parse_exposition(text))
                    except BaseException as error:  # surface in main thread
                        errors.append(error)

                scraper = threading.Thread(target=scrape_loop, daemon=True)
                scraper.start()
                futures = [
                    (request, server.submit(request))
                    for request in requests
                ]
                for request, future in futures:
                    try:
                        value = future.result(60)
                    except self._ALLOWED:
                        pass
                    else:
                        assert value == serial[request.signature], (
                            f"corrupted answer for {request}"
                        )
                # Stop the scraper first, so no older in-flight scrape can
                # land after the final one, then scrape the drained state.
                stop.set()
                scraper.join(timeout=30)
                _status, text = _get(url)
                scrapes.append(parse_exposition(text))

        assert not errors, f"scraper failed: {errors[0]!r}"
        assert len(scrapes) >= 2
        # Every scrape answered promptly even while 8 workers were busy.
        assert max(latencies, default=0.0) < 5.0
        # Counter-style series never move backwards between scrapes.
        for earlier, later in zip(scrapes, scrapes[1:]):
            for key, value in earlier.items():
                name, _labels = key
                if not name.endswith(self._MONOTONE_SUFFIXES):
                    continue
                if key in later:
                    assert later[key] >= value, (
                        f"counter went backwards: {key}"
                    )
        # The drained exposition accounts for every submitted request.
        final = scrapes[-1]
        served = sum(
            value for (name, _labels), value in final.items()
            if name == "repro_requests_total"
        )
        assert served >= len(requests)
