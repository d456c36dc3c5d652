"""Tests for the concurrent serving subsystem (`repro.serve`).

Covers the serving stack bottom-up — request canonicalization and stream
io, session-level result memoization with version-keyed invalidation, the
Scheduler's single-flight/batching guarantees, the Server front-end over
its one session — plus the headline concurrency property:
N worker threads × mixed families produce **bit-identical** answers to
serial one-shot evaluation under every kernel tier (including the
numpy-blocked leg), and the shared caches (plan cache, columnar views)
survive concurrent hammering with the locks added alongside this
subsystem.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro.core.kernels as kernels_module
from repro.algebra.probability import ProbabilityMonoid
from repro.core.kernels import array_kernel_for, numpy_or_none
from repro.core.plan import (
    clear_plan_cache,
    compile_plan,
    plan_cache_info,
    set_plan_cache_size,
)
from repro.db.annotated import KDatabase
from repro.db.database import Database
from repro.db.fact import Fact
from repro.engine import Engine
from repro.engine.session import REQUEST_FAMILIES, register_request_family
from repro.exceptions import ReproError, SchemaError
from repro.obs import trace_of
from repro.query.families import star_query
from repro.query.parser import parse_query
from repro.serve import (
    Request,
    Scheduler,
    Server,
    load_request_stream,
    request_from_dict,
    serve_requests,
)
from repro.serve.admission import MAX_WORKER_COUNT, validate_worker_count
from repro.serve.io import requests_from_dict
from repro.workloads.generators import random_probabilistic_database


# ----------------------------------------------------------------------
# Shared workload builders
# ----------------------------------------------------------------------
def _workload(size: int = 90, endo: int = 6, seed: int = 11):
    """One probabilistic database + endo/exo split over the 2-branch star."""
    query = star_query(2)
    database = random_probabilistic_database(
        query, facts_per_relation=size // 3,
        domain_size=max(4, size // 6), seed=seed,
    )
    facts = list(database.support_database().facts())
    random.Random(seed).shuffle(facts)
    endogenous = Database(facts[:endo])
    exogenous = Database(facts[endo:])
    data = {
        "probabilistic": database,
        "exogenous": exogenous,
        "endogenous": endogenous,
    }
    return query, data


def _mixed_stream(data, rounds: int = 4) -> list[Request]:
    endo_facts = list(data["endogenous"].facts())
    requests = []
    for index in range(rounds):
        requests.extend([
            Request.make("pqe"),
            Request.make("expected_count"),
            Request.make("sat_vector"),
            Request.make("resilience"),
            Request.make(
                "shapley_value", fact=endo_facts[index % len(endo_facts)]
            ),
            Request.make(
                "banzhaf_value",
                fact=endo_facts[(index + 1) % len(endo_facts)],
            ),
            Request.make("sat_counts"),
            Request.make("pqe", exact=True),
        ])
    return requests


def _serial_answers(query, data, requests, kernel_mode="auto"):
    """The one-shot baseline: a throwaway session per request."""
    answers = []
    for request in requests:
        session = Engine(kernel_mode=kernel_mode).open(query, **data)
        handler = REQUEST_FAMILIES[request.family].handler
        answers.append(handler(session, **request.kwargs))
    return answers


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of every Shapley sweep a session runs from now on."""
    import repro.engine.session as session_module

    sweep = session_module.leaf_adjoints
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(session_module, "leaf_adjoints", counted)
    return calls


@pytest.fixture
def plan_cache_guard():
    """Restore the plan-cache size and contents after a test resizes it."""
    yield
    set_plan_cache_size(256)
    clear_plan_cache()


@pytest.fixture
def custom_family():
    """Register a throwaway request family; unregister on exit."""
    registered = []

    def register(name, handler, **declaration):
        register_request_family(name, handler, **declaration)
        registered.append(name)

    yield register
    for name in registered:
        REQUEST_FAMILIES.pop(name, None)


# ----------------------------------------------------------------------
# Request objects and stream io
# ----------------------------------------------------------------------
class TestRequest:
    def test_make_canonicalizes_parameter_order(self):
        left = Request.make("bagset_profile", budget=3, vector_length=5)
        right = Request.make("bagset_profile", vector_length=5, budget=3)
        assert left == right
        assert left.signature == right.signature
        assert left.kwargs == {"budget": 3, "vector_length": 5}

    def test_unknown_family_rejected_on_validate(self):
        with pytest.raises(ReproError, match="unknown request family"):
            Request.make("nonsense").validate()

    def test_str_shows_family_and_params(self):
        rendered = str(Request.make("pqe", exact=True))
        assert "pqe" in rendered and "exact=True" in rendered

    def test_requests_are_hashable_keys(self):
        assert len({Request.make("pqe"), Request.make("pqe")}) == 1
        with pytest.raises(SchemaError, match="hashable"):
            Request.make("pqe", exact=[1])

    def test_explicit_defaults_share_the_signature(self):
        """pqe(exact=False) must coalesce/memo-hit with the bare pqe()."""
        assert Request.make("pqe") == Request.make("pqe", exact=False)
        assert Request.make("pqe") != Request.make("pqe", exact=True)
        assert (
            Request.make("bagset_profile", budget=3)
            == Request.make("bagset_profile", budget=3, vector_length=None)
        )


class TestStreamIO:
    def _stream_payload(self):
        return {
            "query": "Q() :- R(X), S(X, Y)",
            "data": {
                "probabilistic": {"facts": [
                    {"relation": "R", "values": [1], "probability": 0.5},
                    {"relation": "S", "values": [1, 2], "probability": "1/2"},
                ]},
                "endogenous": {"relations": {"R": [[1]]}},
                "exogenous": {"relations": {"S": [[1, 2]]}},
            },
            "requests": [
                {"family": "pqe"},
                {"family": "pqe", "exact": True},
                {"family": "shapley_value",
                 "fact": {"relation": "R", "values": [1]}},
            ],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(self._stream_payload()))
        query, data, requests = load_request_stream(path)
        assert str(query.atoms[0].relation) == "R"
        assert set(data) == {"probabilistic", "endogenous", "exogenous"}
        assert requests[1].kwargs == {"exact": True}
        assert requests[2].kwargs == {"fact": Fact("R", (1,))}

    def test_unknown_data_source_rejected(self, tmp_path):
        payload = self._stream_payload()
        payload["data"]["mystery"] = {"relations": {}}
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="unknown data source"):
            load_request_stream(path)

    def test_malformed_fact_rejected(self):
        with pytest.raises(SchemaError, match="'fact' parameter"):
            request_from_dict({"family": "shapley_value", "fact": [1, 2]})

    def test_missing_family_rejected(self):
        with pytest.raises(SchemaError, match="'family'"):
            request_from_dict({"fact": {"relation": "R", "values": [1]}})

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"family": "maximize"}, "missing parameter.*budget"),
            ({"family": "pqe", "bogus": 1}, "unknown parameter.*bogus"),
            ({"family": "pqe", "deadline": 1}, "unknown parameter"),
            ({"family": ["pqe"]}, "unknown request family"),
            ({"family": "pqe", "exact": "false"}, "'exact' parameter"),
            ({"family": "expected_count", "exact": 1}, "'exact' parameter"),
        ],
    )
    def test_bad_parameters_rejected_at_decode(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            request_from_dict(payload)

    def test_sweep_decodes_like_one_entry_per_binding(self):
        """A ``bindings`` sweep decoded from one checked template equals
        its entries decoded one by one, and fails the same way."""
        entry = {"family": "pqe", "exact": True, "deadline_ms": 250}
        bindings = [{"X": 1}, [["X", 2]], {"X": "a"}]
        swept = requests_from_dict({**entry, "bindings": bindings})
        single = [
            request_from_dict({**entry, "binding": binding})
            for binding in bindings
        ]
        assert swept == single
        assert [str(r) for r in swept] == [str(r) for r in single]
        assert [r.deadline for r in swept] == [0.25] * 3
        for bad in ([["X"]], 5):
            with pytest.raises(SchemaError) as from_sweep:
                requests_from_dict({**entry, "bindings": [{"X": 1}, bad]})
            with pytest.raises(SchemaError) as from_entry:
                request_from_dict({**entry, "binding": bad})
            assert str(from_sweep.value) == str(from_entry.value)
        with pytest.raises(SchemaError, match="'exact' parameter"):
            requests_from_dict(
                {"family": "pqe", "exact": "no", "bindings": [{"X": 1}]}
            )

    def test_parameters_follow_the_handler_signature(self, custom_family):
        """Accepted names and defaults come from the handler itself."""
        custom_family("scaled", lambda session, factor=2: factor)
        assert Request.make("scaled", factor=2) == Request.make("scaled")
        assert request_from_dict(
            {"family": "scaled", "factor": 3}
        ).kwargs == {"factor": 3}
        with pytest.raises(SchemaError, match="unknown parameter"):
            request_from_dict({"family": "scaled", "scale": 3})


# ----------------------------------------------------------------------
# Session-level result memoization
# ----------------------------------------------------------------------
class TestSessionMemo:
    def test_repeat_requests_hit_the_memo(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        first = session.request("pqe")
        evaluations = session.stats()["evaluations"]
        assert session.request("pqe") == first
        # An explicitly-spelled default is the same signature.
        assert session.request("pqe", exact=False) == first
        stats = session.stats()
        assert stats["evaluations"] == evaluations  # no extra run
        assert stats["memo"]["hits"] == 2
        assert stats["memo"]["misses"] == 1

    def test_sat_counts_derive_from_sat_vector(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        vector = session.request("sat_vector")
        evaluations = session.stats()["evaluations"]
        assert session.request("sat_counts") == vector.true_counts
        assert session.stats()["evaluations"] == evaluations

    def test_banzhaf_free_after_shapley(self):
        """Both attributions of one fact consume the same two #Sat runs."""
        query, data = _workload()
        session = Engine().open(query, **data)
        fact = next(iter(data["endogenous"].facts()))
        session.request("shapley_value", fact=fact)
        evaluations = session.stats()["evaluations"]
        session.request("banzhaf_value", fact=fact)
        assert session.stats()["evaluations"] == evaluations

    def test_per_fact_values_derive_from_memoized_sweep(self):
        query, data = _workload(endo=4)
        session = Engine().open(query, **data)
        sweep = session.request("shapley_values")
        evaluations = session.stats()["evaluations"]
        for fact in data["endogenous"].facts():
            assert session.request("shapley_value", fact=fact) == sweep[fact]
        assert session.stats()["evaluations"] == evaluations

    def test_explicit_invalidate_forces_recompute(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        session.request("pqe")
        session.request("pqe")
        session.invalidate("pqe")
        session.request("pqe")
        assert session.stats()["memo"]["misses"] == 2

    def test_version_change_evicts_automatically(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        monoid = ProbabilityMonoid()
        annotated = KDatabase.annotate(
            query, monoid,
            [Fact("R", (1,)), Fact("S", (1, 2))],
            lambda fact: 0.5,
        )
        session = Engine().open(query, annotated=annotated)
        assert session.request("run") == pytest.approx(0.25)
        annotated.set(Fact("R", (1,)), 1.0)
        assert session.request("run") == pytest.approx(0.5)
        assert session.stats()["memo"]["misses"] == 2

    def test_shapley_flips_do_not_poison_other_memo_entries(self):
        """The mutate-restore cycle restores the version fingerprint, so a
        memoized sat_vector stays valid across shapley_value calls."""
        query, data = _workload()
        session = Engine().open(query, **data)
        vector = session.request("sat_vector")
        fact = next(iter(data["endogenous"].facts()))
        session.request("shapley_value", fact=fact)
        evaluations = session.stats()["evaluations"]
        assert session.request("sat_vector") == vector
        assert session.stats()["evaluations"] == evaluations

    def test_mutation_during_execution_is_not_memoized_stale(
        self, custom_family
    ):
        """A mutation landing while a handler runs must not pin the stale
        answer under the post-mutation fingerprint."""
        query = parse_query("Q() :- R(X), S(X, Y)")
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(),
            [Fact("R", (1,)), Fact("S", (1, 2))],
            lambda fact: 0.5,
        )

        def racy(session):
            value = session.run()
            # Simulate a concurrent writer sneaking in mid-execution.
            annotated.set(Fact("R", (1,)), 1.0)
            return value

        custom_family("racy_run", racy)
        session = Engine().open(query, annotated=annotated)
        assert session.request("racy_run") == pytest.approx(0.25)
        # The stale 0.25 was not stored under the new fingerprint: the next
        # plain run sees the mutated database.
        assert session.request("run") == pytest.approx(0.5)
        assert session.stats()["memo"]["entries"] == 1  # only "run"

    def test_unknown_family_raises(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        with pytest.raises(ReproError, match="unknown request family"):
            session.request("nonsense")

    @pytest.mark.parametrize("family", ["pqe", "expected_count"])
    def test_non_bool_exact_is_rejected_before_any_build(self, family):
        query, data = _workload()
        session = Engine().open(query, **data)
        for spelling in ("false", "no", 1, 0):
            with pytest.raises(SchemaError, match="'exact' parameter"):
                session.request(family, exact=spelling)
            with pytest.raises(SchemaError, match="'exact' parameter"):
                Request.make(family, exact=spelling).validate()
        assert session.stats()["annotation_builds"] == 0

    def test_declared_check_and_state(self, custom_family):
        """A family's ``check`` rejects at submission and at the session;
        its ``state`` scopes which mutations invalidate its answers."""
        calls = []

        def scaled(session, factor=1):
            calls.append(factor)
            return session.pqe() * factor

        def check(params):
            if params.get("factor", 1) < 0:
                raise ReproError("factor must be non-negative")

        custom_family(
            "scaled", scaled, check=check,
            state=lambda params: (("pqe", False),),
        )
        query, data = _workload()
        session = Engine().open(query, **data)
        with pytest.raises(ReproError, match="non-negative"):
            Request.make("scaled", factor=-1).validate()
        with pytest.raises(ReproError, match="non-negative"):
            session.request("scaled", factor=-1)
        assert calls == []
        first = session.request("scaled", factor=2)
        fact = data["probabilistic"].facts()[0]
        session._probability_annotated("expected_count", False).set(fact, 0.5)
        assert session.request("scaled", factor=2) == first
        assert calls == [2]  # a mutation outside its state: still a hit
        session._probability_annotated("pqe", False).set(fact, 0.5)
        session.request("scaled", factor=2)
        assert calls == [2, 2]  # its own state moved: recomputed

    def test_custom_family_memoized(self, custom_family):
        calls = []

        def handler(session, tag="x"):
            calls.append(tag)
            return f"handled-{tag}"

        custom_family("custom", handler)
        query, data = _workload()
        session = Engine().open(query, **data)
        assert session.request("custom", tag="a") == "handled-a"
        assert session.request("custom", tag="a") == "handled-a"
        assert calls == ["a"]


# ----------------------------------------------------------------------
# Scheduler: single-flight and sweep batching
# ----------------------------------------------------------------------
class TestScheduler:
    def test_duplicate_in_flight_requests_execute_once(self, custom_family):
        """The single-flight guarantee: 8 concurrent identical requests,
        one execution, one shared answer."""
        calls = []
        started = threading.Event()
        release = threading.Event()

        def gated(session):
            calls.append(1)
            started.set()
            assert release.wait(10)
            return 42

        custom_family("gated", gated)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=2)
        try:
            futures = [
                scheduler.submit(Request.make("gated"))
                for _ in range(8)
            ]
            assert started.wait(10)
            release.set()
            assert [future.result(10) for future in futures] == [42] * 8
            assert len(calls) == 1
            stats = scheduler.stats()
            assert stats["coalesced"] == 7
            assert stats["executed"] == 1
        finally:
            release.set()
            scheduler.close()

    def test_memo_hit_resolves_at_submit_with_every_worker_gated(
        self, custom_family
    ):
        """With both workers blocked, a memoized request is answered
        inside ``submit``: never queued, never claimed."""
        gate = threading.Event()
        started = threading.Semaphore(0)

        def gated(session, index):
            started.release()
            return gate.wait(10)

        custom_family("gated", gated)
        query, data = _workload()
        expected = _serial_answers(query, data, [Request.make("pqe")])[0]
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=2)
        try:
            assert scheduler.submit(Request.make("pqe")).result(30) == expected
            blockers = [
                scheduler.submit(Request.make("gated", index=index))
                for index in range(2)
            ]
            assert started.acquire(timeout=10)
            assert started.acquire(timeout=10)
            hit = scheduler.submit(Request.make("pqe", deadline=0.0))
            assert hit.done()
            assert hit.result(0) == expected
            assert [stage for stage, _t, _f in trace_of(hit).marks] == [
                "submitted", "memo_hit", "resolved",
            ]
            stats = scheduler.stats()
            assert (stats["submitted"], stats["executed"]) == (4, 1)
            assert stats["timeouts"] == 0
            gate.set()
            assert [future.result(10) for future in blockers] == [True] * 2
        finally:
            gate.set()
            scheduler.close()

    def test_annotated_mutation_is_never_served_stale_at_submit(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(),
            [Fact("R", (1,)), Fact("S", (1, 2))],
            lambda fact: 0.5,
        )

        def stages(future):
            return [stage for stage, _t, _f in trace_of(future).marks]

        with Server(query, annotated=annotated, workers=2) as server:
            assert server.submit(Request.make("run")).result(30) == 0.25
            hit = server.submit(Request.make("run"))
            assert hit.done() and hit.result(0) == 0.25
            annotated.set(Fact("R", (1,)), 1.0)
            fresh = server.submit(Request.make("run"))
            assert fresh.result(30) == 0.5
            assert "memo_hit" not in stages(fresh)
            assert "executed" in stages(fresh)
            again = server.submit(Request.make("run"))
            assert again.done() and again.result(0) == 0.5
            assert stages(again) == ["submitted", "memo_hit", "resolved"]

    def test_pending_shapley_requests_batch_into_one_sweep(
        self, custom_family
    ):
        gate = threading.Event()
        custom_family("gate", lambda session: gate.wait(10))
        query, data = _workload(endo=4)
        facts = list(data["endogenous"].facts())
        serial = {
            fact: _serial_answers(
                query, data, [Request.make("shapley_value", fact=fact)]
            )[0]
            for fact in facts
        }
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=1)
        try:
            blocker = scheduler.submit(Request.make("gate"))
            futures = {
                fact: scheduler.submit(
                    Request.make("shapley_value", fact=fact)
                )
                for fact in facts
            }
            gate.set()
            blocker.result(10)
            for fact, future in futures.items():
                assert future.result(10) == serial[fact]
            # One sweep (a single evaluation) answered every fact.
            assert session.stats()["evaluations"] == 1
        finally:
            gate.set()
            scheduler.close()

    def test_per_request_errors_do_not_poison_the_batch(self):
        query, data = _workload()
        stranger = Fact("R", ("not", "present"))
        with Server(query, workers=2, **data) as server:
            good = server.submit(Request.make("pqe"))
            bad = server.submit(Request.make("shapley_value", fact=stranger))
            assert 0.0 <= good.result(10) <= 1.0
            with pytest.raises(ReproError, match="not an endogenous fact"):
                bad.result(10)

    def test_cancelled_future_does_not_kill_the_worker(self, custom_family):
        """Cancelling a queued future must not strand the worker thread —
        later requests on the same (sole) worker must still be served."""
        release = threading.Event()
        started = threading.Event()

        def gated(session):
            started.set()
            assert release.wait(10)
            return "gated"

        custom_family("gated", gated)
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=1)
        try:
            blocker = scheduler.submit(Request.make("gated"))
            assert started.wait(10)
            victim = scheduler.submit(Request.make("pqe"))
            assert victim.cancel()
            survivor = scheduler.submit(Request.make("resilience"))
            release.set()
            assert blocker.result(10) == "gated"
            assert survivor.result(10) == session.resilience()
            assert victim.cancelled()
        finally:
            release.set()
            scheduler.close()

    def test_submit_after_close_raises(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        scheduler = Scheduler(session, workers=1)
        scheduler.close()
        with pytest.raises(ReproError, match="closed"):
            scheduler.submit(Request.make("pqe"))

    def test_invalid_worker_count_rejected(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        with pytest.raises(ReproError, match="worker count"):
            Scheduler(session, workers=0)


# ----------------------------------------------------------------------
# The shared worker-count validator (Scheduler workers= / CLI --workers)
# ----------------------------------------------------------------------
class TestValidateWorkerCount:
    def test_accepts_the_valid_range(self):
        for value in (1, 4, MAX_WORKER_COUNT):
            assert validate_worker_count(value) == value

    @pytest.mark.parametrize(
        "value", [0, -1, MAX_WORKER_COUNT + 1, True, False, "4", 2.5, None]
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ReproError, match="worker count"):
            validate_worker_count(value)

    def test_scheduler_and_serve_share_the_helper(self):
        from repro.serve.scheduler import (
            validate_worker_count as scheduler_validate,
        )

        assert scheduler_validate is validate_worker_count

    def test_scheduler_rejects_bad_workers(self):
        query, data = _workload()
        session = Engine().open(query, **data)
        for value in (0, MAX_WORKER_COUNT + 1, True, "4"):
            with pytest.raises(ReproError, match="worker count"):
                Scheduler(session, workers=value)


# ----------------------------------------------------------------------
# Server front-end
# ----------------------------------------------------------------------
class TestServer:
    def test_attribution_flood_runs_one_sweep(self, sweeps):
        """Every fact's Shapley and Banzhaf value, submitted at once to a
        fresh server, come from one sweep, and the Shapley database is
        never mutated."""
        query, data = _workload(endo=8)
        requests = [
            Request.make(family, fact=fact)
            for fact in data["endogenous"].facts()
            for family in ("shapley_value", "banzhaf_value")
        ]
        serial = _serial_answers(query, data, requests)
        sweeps.clear()
        with Server(query, workers=2, **data) as server:
            futures = [server.submit(request) for request in requests]
            assert [future.result(30) for future in futures] == serial
            session = server.session
            assert len(sweeps) == 1
            assert session.stats()["evaluations"] == 1
            versions = {
                relation.atom.relation: relation._version
                for relation in session._annotated["shapley"].relations()
            }
        fresh = Engine().open(query, **data)
        fresh.sat_counts()
        assert versions == {
            relation.atom.relation: relation._version
            for relation in fresh._annotated["shapley"].relations()
        }

    def test_map_preserves_input_order(self):
        query, data = _workload()
        requests = _mixed_stream(data, rounds=2)
        serial = _serial_answers(query, data, requests)
        with Server(query, workers=4, **data) as server:
            assert server.map(requests) == serial

    def test_serve_requests_convenience(self):
        query, data = _workload()
        requests = [Request.make("pqe"), Request.make("resilience")]
        assert serve_requests(query, requests, **data) == _serial_answers(
            query, data, requests
        )

    def test_stats_shape(self):
        query, data = _workload()
        with Server(query, workers=2, **data) as server:
            server.map([Request.make("pqe")])
            stats = server.stats()
            assert set(stats) == {"scheduler", "session"}
            assert stats["scheduler"]["executed"] == 1

    def test_annotated_mutation_evicts_only_dependent_answers(self):
        """Mutating the bound pre-annotated database makes ``run`` stale
        but leaves the memoized ``pqe`` (built from the TID) a memo hit."""
        query = parse_query("Q() :- R(X), S(X, Y)")
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(),
            [Fact("R", (1,)), Fact("S", (1, 2))],
            lambda fact: 0.5,
        )
        pdb = random_probabilistic_database(
            query, facts_per_relation=6, domain_size=3, seed=5
        )
        with Server(
            query, annotated=annotated, probabilistic=pdb, workers=2
        ) as server:
            assert server.submit(Request.make("run")).result(30) == (
                pytest.approx(0.25)
            )
            pqe = server.submit(Request.make("pqe")).result(30)
            annotated.set(Fact("R", (1,)), 1.0)
            before = server.session.stats()
            assert server.submit(Request.make("run")).result(30) == (
                pytest.approx(0.5)
            )
            assert server.submit(Request.make("pqe")).result(30) == pqe
            after = server.session.stats()
        # Only the re-asked run executed; pqe came from the memo.
        assert after["evaluations"] == before["evaluations"] + 1
        assert after["memo"]["hits"] == before["memo"]["hits"] + 1

    def test_closed_server_frees_its_data_without_the_cyclic_gc(self):
        """No reference cycle keeps a closed server's TID or annotated
        databases alive: with the cyclic collector off, they are freed by
        reference counting the moment the last handle goes."""

        def serve_once():
            query, data = _workload()
            server = Server(query, workers=2, **data)
            server.submit(Request.make("pqe")).result(30)
            server.submit(Request.make("resilience")).result(30)
            refs = [
                weakref.ref(data["probabilistic"]),
                weakref.ref(server.session._annotated[("pqe", False)]),
                weakref.ref(server.session),
                weakref.ref(server.scheduler),
            ]
            server.close()
            return refs

        gc.collect()
        gc.disable()
        try:
            refs = serve_once()
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Concurrency stress: bit-identical to serial, on every tier
# ----------------------------------------------------------------------
class TestConcurrencyStress:
    @pytest.mark.parametrize("kernel_mode", ["auto", "batched", "scalar"])
    def test_workers_match_serial_one_shot_bit_identically(self, kernel_mode):
        query, data = _workload(size=120, endo=6)
        requests = _mixed_stream(data, rounds=4)
        serial = _serial_answers(query, data, requests, kernel_mode)
        with Server(
            query, engine=Engine(kernel_mode=kernel_mode), workers=8, **data
        ) as server:
            served = server.map(requests)
        assert served == serial  # bit-identical, not approximately equal

    def test_numpy_blocked_leg_matches_serial(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        kernels_module._reset_numpy_probe()
        try:
            assert numpy_or_none() is None
            query, data = _workload(size=90, endo=4)
            requests = _mixed_stream(data, rounds=3)
            serial = _serial_answers(query, data, requests, "auto")
            with Server(
                query, engine=Engine(kernel_mode="auto"), workers=8, **data
            ) as server:
                assert server.map(requests) == serial
        finally:
            monkeypatch.undo()
            kernels_module._reset_numpy_probe()

    def test_concurrent_threads_share_one_session_state(self):
        """Many threads × one session: answers stay correct while every
        cache build is shared."""
        query, data = _workload(size=120, endo=6)
        expected = _serial_answers(
            query, data,
            [Request.make("pqe"), Request.make("resilience"),
             Request.make("sat_counts")],
        )
        session = Engine().open(query, **data)
        errors = []

        def hammer():
            try:
                assert session.pqe() == expected[0]
                assert session.resilience() == expected[1]
                assert session.sat_counts() == expected[2]
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # One shared annotation build per family, not one per thread.
        assert session.stats()["annotation_builds"] == 3

    def test_threads_share_one_sweep_and_one_profile(self, sweeps):
        """8 threads × one session under a short switch interval: the
        build latches hand every thread the same sweep and profile."""
        query, data = _workload(size=120, endo=6)
        data = {**data, "database": data["exogenous"],
                "repair": data["endogenous"]}
        facts = list(data["endogenous"].facts())
        budgets = list(range(len(facts) + 2))
        reference = Engine().open(query, **data)
        expected = {
            fact: (reference.shapley_value(fact), reference.banzhaf_value(fact))
            for fact in facts
        }
        best = {budget: reference.maximize(budget) for budget in budgets}
        sweeps.clear()
        session = Engine().open(query, **data)
        barrier = threading.Barrier(8)
        errors = []

        def hammer(offset):
            try:
                barrier.wait(10)
                for index in range(len(budgets)):
                    fact = facts[(offset + index) % len(facts)]
                    budget = budgets[(offset * 3 + index) % len(budgets)]
                    assert session.shapley_value(fact) == expected[fact][0]
                    assert session.banzhaf_value(fact) == expected[fact][1]
                    assert session.maximize(budget) == best[budget]
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(8)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(sweeps) == 1
        assert session.stats()["annotated_databases"] == 2


# ----------------------------------------------------------------------
# Locked shared caches under concurrency
# ----------------------------------------------------------------------
class TestLockedCaches:
    def test_plan_cache_survives_concurrent_compiles_and_resizes(
        self, plan_cache_guard
    ):
        clear_plan_cache()
        errors = []
        stop = threading.Event()

        def compiler(index):
            try:
                for step in range(40):
                    query = parse_query(
                        f"Q() :- R{index}x{step}(X), S{index}x{step}(X, Y)"
                    )
                    plan = compile_plan(query)
                    assert plan.final_relation
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        def resizer():
            try:
                while not stop.is_set():
                    set_plan_cache_size(2)
                    set_plan_cache_size(64)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=compiler, args=(index,))
            for index in range(6)
        ]
        shrinker = threading.Thread(target=resizer)
        shrinker.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        shrinker.join()
        assert not errors
        info = plan_cache_info()
        assert info["size"] <= info["max_size"]

    @pytest.mark.skipif(
        numpy_or_none() is None, reason="columnar tier needs numpy"
    )
    def test_concurrent_columnar_materialization_builds_one_view(self):
        query, data = _workload()
        monoid = ProbabilityMonoid()
        source = data["probabilistic"]
        annotated = KDatabase.annotate(
            query, monoid, source.facts(), source.probability
        )
        kernel = array_kernel_for(monoid)
        name = query.atoms[0].relation
        views = []
        barrier = threading.Barrier(8)

        def materialize():
            barrier.wait(5)
            views.append(annotated.columnar_relation(name, kernel))

        threads = [threading.Thread(target=materialize) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(view) for view in views}) == 1
        assert annotated.columnar_cache_info()["relations"] == 1


# ----------------------------------------------------------------------
# Columnar bulk ψ-annotation (array-mode seeding)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    numpy_or_none() is None, reason="columnar tier needs numpy"
)
class TestColumnarSeeding:
    def test_bulk_annotate_seeds_views_from_the_fact_stream(self):
        query, data = _workload()
        monoid = ProbabilityMonoid()
        source = data["probabilistic"]
        seeded = KDatabase.annotate(
            query, monoid, source.facts(), source.probability, columnar=True
        )
        # Views exist before any plan execution touched the database.
        assert seeded.columnar_cache_info()["relations"] == len(query.atoms)
        lazy = KDatabase.annotate(
            query, monoid, source.facts(), source.probability
        )
        assert lazy.columnar_cache_info()["relations"] == 0
        from repro.core.algorithm import execute_plan
        from repro.core.plan import compile_plan as compile_q

        plan = compile_q(query)
        assert (
            execute_plan(plan, seeded, kernel_mode="array").result
            == execute_plan(plan, lazy, kernel_mode="array").result
        )

    def test_seeded_views_match_lazy_materialization(self):
        query, data = _workload()
        monoid = ProbabilityMonoid()
        source = data["probabilistic"]
        seeded = KDatabase.annotate(
            query, monoid, source.facts(), source.probability, columnar=True
        )
        lazy = KDatabase.annotate(
            query, monoid, source.facts(), source.probability
        )
        kernel = array_kernel_for(monoid)
        np = kernel.np
        for atom in query.atoms:
            mine = seeded.columnar_relation(atom.relation, kernel)
            theirs = lazy.columnar_relation(atom.relation, kernel)
            assert np.array_equal(mine.annotations, theirs.annotations)
            for left, right in zip(mine.columns, theirs.columns):
                assert np.array_equal(left, right)

    def test_duplicate_and_zero_facts_seed_the_loaded_support(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        monoid = ProbabilityMonoid()
        facts = [
            Fact("R", (1,)), Fact("R", (1,)),  # duplicate key
            Fact("S", (1, 2)), Fact("S", (2, 2)),
        ]
        psi = {
            Fact("R", (1,)): 0.5,
            Fact("S", (1, 2)): 0.8,
            Fact("S", (2, 2)): 0.0,  # ⊕-identity: dropped from the support
        }
        annotated = KDatabase.annotate(
            query, monoid, facts, psi.__getitem__, columnar=True
        )
        # The support is exactly the per-fact semantics…
        assert annotated.relation("R").annotation((1,)) == 0.5
        assert annotated.relation("S").support() == {(1, 2)}
        # …and both views were seeded with exactly that support.
        assert annotated.columnar_cache_info()["relations"] == 2
        kernel = array_kernel_for(monoid)
        for atom in query.atoms:
            relation = annotated.relation(atom.relation)
            view = annotated.columnar_relation(atom.relation, kernel)
            assert list(view.to_krelation().items()) == list(relation.items())

    def test_array_sessions_seed_during_annotation(self):
        query, data = _workload()
        session = Engine(kernel_mode="array").open(query, **data)
        session.pqe()
        annotated = session._annotated[("pqe", False)]
        # All views present and tagged with the untouched relation versions.
        assert (
            annotated.columnar_cache_info()["relations"] == len(query.atoms)
        )


# ----------------------------------------------------------------------
# CLI + bench integration
# ----------------------------------------------------------------------
class TestServeCLI:
    def _write_stream(self, tmp_path, requests):
        payload = {
            "query": "Q() :- R(X), S(X, Y)",
            "data": {
                "probabilistic": {"facts": [
                    {"relation": "R", "values": [1], "probability": 0.5},
                    {"relation": "S", "values": [1, 2], "probability": 0.8},
                ]},
                "endogenous": {"relations": {"R": [[1]]}},
                "exogenous": {"relations": {"S": [[1, 2]]}},
            },
            "requests": requests,
        }
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(payload))
        return path

    def test_cli_serves_stream(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_stream(tmp_path, [
            {"family": "pqe"},
            {"family": "pqe"},
            {"family": "sat_counts"},
            {"family": "shapley_value",
             "fact": {"relation": "R", "values": [1]}},
        ])
        code = main([
            "serve", "--requests", str(path), "--workers", "2", "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[0] pqe() = 0.4" in out
        assert "served 4 requests" in out
        assert "coalesced:" in out

    @pytest.mark.parametrize(
        "entry",
        [
            {"family": "maximize"},
            {"family": "pqe", "bogus": 1},
            {"family": "pqe", "exact": [1]},
            {"family": "pqe", "exact": "false"},
            {"family": "expected_count", "exact": 1},
        ],
    )
    def test_cli_rejects_bad_parameters_before_serving(
        self, tmp_path, capsys, entry
    ):
        from repro.cli import main

        path = self._write_stream(tmp_path, [{"family": "pqe"}, entry])
        code = main(["serve", "--requests", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert "parameter" in captured.err
        assert "[0]" not in captured.out  # rejected before serving

    @pytest.mark.parametrize("budget", ["abc", 2.5, True])
    def test_cli_reports_a_bad_budget_as_a_failed_request(
        self, tmp_path, capsys, budget
    ):
        """A budget that is not a natural number fails its own request:
        no traceback, and the other requests are still served."""
        from repro.cli import main

        path = tmp_path / "whatif.json"
        path.write_text(json.dumps({
            "query": "Q() :- R(X), S(X, Y)",
            "data": {
                "database": {"relations": {"R": [[1]], "S": [[1, 2]]}},
                "repair": {"relations": {"R": [[2]], "S": [[2, 2]]}},
            },
            "requests": [
                {"family": "maximize", "budget": 1},
                {"family": "maximize", "budget": budget},
                {"family": "maximize", "budget": 2},
            ],
        }))
        code = main(["serve", "--requests", str(path), "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 1  # some request failed
        assert "[0] maximize(budget=1) = 1" in out
        assert f"[1] maximize(budget={budget!r}) failed: budget" in out
        assert "[2] maximize(budget=2) = 2" in out
        assert out.count("failed:") == 1

    def test_cli_reports_request_failures(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_stream(tmp_path, [
            {"family": "pqe"},
            {"family": "shapley_value",
             "fact": {"relation": "R", "values": [999]}},
        ])
        code = main(["serve", "--requests", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed: " in out

    def test_cli_reports_a_handler_exception_on_its_line(
        self, tmp_path, capsys, custom_family
    ):
        """A handler raising a non-``ReproError`` fails its own request;
        the later requests are still answered, as over HTTP."""
        from repro.cli import main

        def broken(session):
            raise TypeError("handler broke")

        custom_family("broken", broken)
        path = self._write_stream(tmp_path, [
            {"family": "pqe"},
            {"family": "broken"},
            {"family": "pqe", "exact": True},
        ])
        code = main(["serve", "--requests", str(path), "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[0] pqe() = 0.4" in out
        assert "[1] broken() failed: handler broke" in out
        assert "[2] pqe(exact=True) = 2/5" in out
        assert out.count("failed:") == 1

    @pytest.mark.skipif(
        sys.platform == "win32", reason="needs POSIX signal inheritance"
    )
    def test_http_listener_stops_on_sigint_it_was_started_ignoring(
        self, tmp_path
    ):
        """A non-interactive shell starts background jobs with SIGINT
        ignored; ``kill -INT`` must still shut the HTTP listener down."""
        path = self._write_stream(tmp_path, [{"family": "pqe"}])
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        # An ignored disposition survives fork and exec, as it does for a
        # shell's background job.
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--requests",
                 str(path), "--workers", "1", "--http", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            for line in process.stdout:
                if line.startswith("listening on"):
                    break
            process.send_signal(signal.SIGINT)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0, output
        assert "shutting down" in output


class TestServeBench:
    def test_quick_scenario_agrees_and_reports_latency(self):
        from repro.bench.perf import perf_serve

        result = perf_serve(quick=True, repeats=1)
        assert result["agree"]
        for run in result["runs"]:
            assert run["identical"]
            for entry in run["workers"].values():
                assert entry["throughput_rps"] > 0
                assert entry["p95_ms"] >= entry["p50_ms"] >= 0

    def test_suite_includes_serve(self):
        from repro.bench.perf import PERF_EXPERIMENTS, SCHEMA_VERSION

        assert "serve" in PERF_EXPERIMENTS
        assert SCHEMA_VERSION >= 4  # the serve scenario landed in v4
