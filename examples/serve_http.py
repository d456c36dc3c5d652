"""Operating the serving stack over HTTP: queries, streams, metrics.

Scenario: the sensor fleet from ``probabilistic_sensors.py`` goes into
production.  Operations wants three things the Python API alone doesn't
give them — a network endpoint other services can POST queries to, a
``/metrics`` page Prometheus can scrape, and a health probe for the load
balancer.  This script stands up the full stack in-process:

1. a :class:`~repro.serve.server.Server` (scheduler, admission control,
   session memo) over one probabilistic database,
2. an :class:`~repro.serve.http.HttpFrontend` — the stdlib-asyncio HTTP
   layer — on an ephemeral port,

then plays the operations day: a mixed workload over ``POST /v1/query``
(including a bindings sweep that the scheduler fuses into one shared
scan), a ``POST /v1/stream`` request answered as NDJSON in completion
order, a ``GET /healthz`` probe, and finally a ``GET /metrics`` scrape
parsed back with :func:`repro.obs.parse_exposition` to print the
request/memo/tier counters a dashboard would chart.

Usage::

    python examples/serve_http.py
"""

import json
import random
import urllib.request
from fractions import Fraction

from repro import ProbabilisticDatabase, Server, parse_query
from repro.db.fact import Fact
from repro.obs import parse_exposition
from repro.serve.http import HttpFrontend


def build_fleet(gateways: int, seed: int) -> ProbabilisticDatabase:
    """Random coverage/reporting facts with heterogeneous reliabilities."""
    rng = random.Random(seed)
    probabilities = {}
    for gateway in range(gateways):
        for zone in rng.sample(range(50), 3):
            probabilities[Fact("Covers", (gateway, zone))] = Fraction(
                rng.randint(40, 85), 100
            )
        for sensor in rng.sample(range(200), 4):
            probabilities[Fact("Reports", (gateway, sensor))] = Fraction(
                rng.randint(10, 60), 100
            )
    return ProbabilisticDatabase(probabilities)


def post(url: str, payload: dict) -> tuple[int, str]:
    """POST *payload* as JSON; return (status, body text)."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read().decode("utf-8")


def get(url: str) -> tuple[int, str]:
    """GET *url*; return (status, body text)."""
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, response.read().decode("utf-8")


def main() -> None:
    query = parse_query("Alive() :- Covers(G, Z), Reports(G, S)")
    fleet = build_fleet(gateways=6, seed=7)
    print(f"query: {query}")
    print(f"fleet: {len(fleet)} probabilistic facts")
    print()

    with Server(query, probabilistic=fleet, workers=4) as server:
        with HttpFrontend(server).start() as frontend:
            print(f"serving on {frontend.url}")

            # -- the load balancer's probe ----------------------------
            status, body = get(frontend.url + "/healthz")
            health = json.loads(body)
            print(f"GET /healthz -> {status} ok={health['ok']} "
                  f"workers={health['workers']}")
            print()

            # -- one-off queries over POST /v1/query ------------------
            status, body = post(frontend.url + "/v1/query", {
                "requests": [
                    {"family": "pqe"},
                    {"family": "pqe"},            # coalesces / memo-hits
                    {"family": "expected_count"},
                ],
            })
            payload = json.loads(body)
            print(f"POST /v1/query -> {status} "
                  f"({len(payload['results'])} results, "
                  f"{payload['failed']} failed)")
            for entry in payload["results"]:
                print(f"  {entry['request']} = {entry['value']}")
            print()

            # -- a bindings sweep, streamed as NDJSON -----------------
            gateways = sorted({
                fact.values[0]
                for fact in fleet.support_database().facts()
                if fact.relation == "Covers"
            })
            status, body = post(frontend.url + "/v1/stream", {
                "family": "pqe",
                "bindings": [{"G": gateway} for gateway in gateways],
            })
            lines = [json.loads(line) for line in body.splitlines() if line]
            print(f"POST /v1/stream -> {status} "
                  f"(per-gateway sweep, {len(lines)} NDJSON lines, "
                  "completion order)")
            for entry in sorted(lines, key=lambda e: e["index"]):
                print(f"  [{entry['index']}] {entry['request']} = "
                      f"{entry['value']}")
            print()

            # -- the Prometheus scrape --------------------------------
            status, text = get(frontend.url + "/metrics")
            parsed = parse_exposition(text)
            print(f"GET /metrics -> {status} "
                  f"({len(text.splitlines())} exposition lines)")

            def total(name: str) -> float:
                return sum(
                    value for (sample, _labels), value in parsed.items()
                    if sample == name
                )

            ok = sum(
                value for (name, labels), value in parsed.items()
                if name == "repro_requests_total"
                and ("outcome", "ok") in labels
            )
            print(f"  requests ok:       {ok:.0f}")
            print(f"  latency samples:   "
                  f"{total('repro_request_latency_seconds_count'):.0f}")
            print(f"  memo hits/misses:  "
                  f"{total('repro_memo_hits_total'):.0f}/"
                  f"{total('repro_memo_misses_total'):.0f}")
            fused = sum(
                value for (name, labels), value in parsed.items()
                if name == "repro_scheduler_events_total"
                and ("event", "fused_queries") in labels
            )
            print(f"  fused queries:     {fused:.0f}")
            print(f"  queue depth now:   {total('repro_queue_depth'):.0f}")

    print()
    print("front-end closed; scheduler drained")


if __name__ == "__main__":
    main()
