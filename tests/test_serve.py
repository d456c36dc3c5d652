"""Tests for the concurrent serving subsystem (`repro.serve`).

Covers the serving stack bottom-up — request canonicalization and stream
io, session-level result memoization with version-keyed invalidation, the
SessionPool's shared state and eviction hooks, the Scheduler's
single-flight/batching guarantees — plus the headline concurrency property:
N worker threads × mixed families produce **bit-identical** answers to
serial one-shot evaluation under every kernel tier (including the
numpy-blocked leg), and the shared caches (plan cache, columnar views)
survive concurrent hammering with the locks added alongside this
subsystem.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import threading
import weakref

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
from repro.query.families import star_query
from repro.query.parser import parse_query
from repro.serve import (
    Request,
    Scheduler,
    Server,
    SessionPool,
    load_request_stream,
    request_from_dict,
    serve_requests,
)
from repro.serve.admission import MAX_WORKER_COUNT, validate_worker_count
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
        handler = REQUEST_FAMILIES[request.family]
        answers.append(handler(session, **request.kwargs))
    return answers


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

    def register(name, handler):
        register_request_family(name, handler)
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
# SessionPool: shared state + invalidation hooks
# ----------------------------------------------------------------------
class TestSessionPool:
    def test_same_sources_share_annotated_state(self):
        query, data = _workload()
        pool = SessionPool()
        first = pool.session(query, **data)
        second = pool.session(query, **data)
        assert first is not second
        assert first._annotated is second._annotated
        first.pqe()
        # The sibling session serves from the shared annotation build.
        second.pqe()
        assert second.stats()["annotation_builds"] == 1
        assert second.stats()["evaluations"] == 2

    def test_different_source_objects_get_fresh_state(self):
        query, data = _workload()
        other = dict(data)
        other["probabilistic"] = random_probabilistic_database(
            query, facts_per_relation=20, domain_size=8, seed=99
        )
        pool = SessionPool()
        first = pool.session(query, probabilistic=data["probabilistic"])
        second = pool.session(query, probabilistic=other["probabilistic"])
        assert first._annotated is not second._annotated
        assert pool.stats()["entries"] == 2

    def test_mutation_hook_evicts_memoized_results(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(),
            [Fact("R", (1,)), Fact("S", (1, 2))],
            lambda fact: 0.5,
        )
        pool = SessionPool()
        session = pool.session(query, annotated=annotated)
        session.request("run")
        assert session.stats()["memo"]["entries"] == 1
        annotated.set(Fact("S", (1, 2)), 0.75)
        # Eager eviction through the version-keyed invalidation hook.
        assert session.stats()["memo"]["entries"] == 0
        assert session.request("run") == pytest.approx(0.375)
        pool.close()

    def test_close_removes_hooks(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(), [Fact("R", (1,))], lambda fact: 0.5
        )
        pool = SessionPool()
        pool.session(query, annotated=annotated)
        assert annotated._invalidation_hooks
        pool.close()
        assert not annotated._invalidation_hooks
        assert all(
            relation._on_mutate is None for relation in annotated.relations()
        )

    def test_pool_stats_shape(self):
        query, data = _workload()
        with SessionPool() as pool:
            pool.session(query, **data)
            stats = pool.stats()
            assert stats["entries"] == 1
            assert stats["sessions"] == 1
            assert stats["keys"][0]["sources"] == [
                "endogenous", "exogenous", "probabilistic"
            ]


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
        scheduler = Scheduler(workers=2)
        try:
            futures = [
                scheduler.submit(session, Request.make("gated"))
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
        scheduler = Scheduler(workers=1)
        try:
            blocker = scheduler.submit(session, Request.make("gate"))
            futures = {
                fact: scheduler.submit(
                    session, Request.make("shapley_value", fact=fact)
                )
                for fact in facts
            }
            gate.set()
            blocker.result(10)
            for fact, future in futures.items():
                assert future.result(10) == serial[fact]
            batching = scheduler.stats()["batching"]
            assert batching["sweeps"] == 1
            assert batching["swept_requests"] == len(facts)
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
        scheduler = Scheduler(workers=1)
        try:
            blocker = scheduler.submit(session, Request.make("gated"))
            assert started.wait(10)
            victim = scheduler.submit(session, Request.make("pqe"))
            assert victim.cancel()
            survivor = scheduler.submit(session, Request.make("resilience"))
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
        scheduler = Scheduler(workers=1)
        scheduler.close()
        with pytest.raises(ReproError, match="closed"):
            scheduler.submit(session, Request.make("pqe"))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ReproError, match="worker count"):
            Scheduler(workers=0)


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
        for value in (0, MAX_WORKER_COUNT + 1, True, "4"):
            with pytest.raises(ReproError, match="worker count"):
                Scheduler(workers=value)


# ----------------------------------------------------------------------
# Server front-end
# ----------------------------------------------------------------------
class TestServer:
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

    def test_engine_and_pool_are_mutually_exclusive(self):
        query, data = _workload()
        with SessionPool() as pool:
            with pytest.raises(ReproError, match="either engine= or pool="):
                Server(query, engine=Engine(), pool=pool, **data)

    def test_shared_pool_reuses_annotated_state(self):
        query, data = _workload()
        with SessionPool() as pool:
            with Server(query, pool=pool, workers=2, **data) as first:
                first.map([Request.make("pqe")])
            with Server(query, pool=pool, workers=2, **data) as second:
                second.map([Request.make("pqe")])
                assert second.session.stats()["annotation_builds"] == 1
                assert second.session.stats()["memo"]["hits"] >= 1

    def test_stats_shape(self):
        query, data = _workload()
        with Server(query, workers=2, **data) as server:
            server.map([Request.make("pqe")])
            stats = server.stats()
            assert {"scheduler", "session", "pool"} <= set(stats)
            assert stats["scheduler"]["executed"] == 1

    def test_failed_construction_leaves_no_hooks_behind(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(), [Fact("R", (1,))], lambda fact: 0.5
        )
        with pytest.raises(ReproError, match="worker count"):
            Server(query, annotated=annotated, workers=0)
        assert not annotated._invalidation_hooks
        assert all(
            relation._on_mutate is None for relation in annotated.relations()
        )

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

    def test_concurrent_sessions_over_shared_pool_state(self):
        """Many threads × sibling pooled sessions: answers stay correct
        while every cache build is shared."""
        query, data = _workload(size=120, endo=6)
        expected = _serial_answers(
            query, data,
            [Request.make("pqe"), Request.make("resilience"),
             Request.make("sat_counts")],
        )
        pool = SessionPool()
        errors = []

        def hammer():
            try:
                session = pool.session(query, **data)
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
        canonical = pool.session(query, **data)
        # One shared annotation build per family, not one per thread.
        assert canonical.stats()["annotation_builds"] == 3
        pool.close()


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
