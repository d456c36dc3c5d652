"""Tests for bound queries over their sections (``repro.core.fused`` and
the engine/serve layers above it).

The load-bearing property is **bit-identicality within a kernel tier**: a
batch of bound tasks must produce byte-for-byte the answers a sequential
per-binding loop produces under the same tier, and those of the plan run
over a database filtered to each binding's section — exact ``==``, never
``approx``.  The suite checks that over every flat-carrier kernel family
and the packed vector kernels, checks the section index (row order,
intersection of several bound positions, invalidation when a fact enters
or leaves a section), and checks the decline conditions (unbound tasks,
batched/scalar modes, numpy-blocked runs) run the fallback with correct,
positionally aligned results.  On top sit binding sweeps through the
session's one request path (``EngineSession.request``: memo discipline,
mutation invalidation), binding validation, the JSON ``bindings`` sweep
expansion, and the scheduler/server legs — including a gated deterministic
sibling claim and an 8-worker stress run.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from fractions import Fraction

import pytest

import repro.core.kernels as kernels_module
from repro.algebra.bagset import BagSetMonoid
from repro.algebra.boolean import BooleanSemiring
from repro.algebra.counting import CountingSemiring
from repro.algebra.probability import ExactProbabilityMonoid, ProbabilityMonoid
from repro.algebra.real import RealSemiring
from repro.algebra.resilience import ResilienceMonoid
from repro.algebra.shapley import ShapleyMonoid
from repro.algebra.tropical import MinPlusSemiring
from repro.core.algorithm import (
    _PLAN_SECONDS,
    _TIER_EXECUTIONS,
    KERNEL_MODES,
    _array_kernel_if_selected,
    compile_for_database,
    execute_plan,
)
from repro.core.fused import FusedTask, execute_fused
from repro.core.kernels import array_kernel_for, numpy_or_none
from repro.core.plan import binding_occurrences, compile_plan
from repro.db.annotated import KDatabase
from repro.db.fact import Fact
from repro.engine import Engine
from repro.engine.session import (
    REQUEST_FAMILIES,
    canonical_binding,
    register_request_family,
)
from repro.exceptions import ReproError, SchemaError
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.query.families import q_h, star_query
from repro.query.parser import parse_query
from repro.serve import Request, Scheduler, Server, load_request_stream
from repro.serve.io import requests_from_dict
from repro.workloads.generators import (
    random_database,
    random_probabilistic_database,
)

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="columnar tier needs numpy"
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _masked(annotated: KDatabase, query, binding) -> KDatabase:
    """Independent serial reference: the binding's section of *annotated*.

    Deliberately re-implements σ_{X=c} over the support dicts (mirroring
    ``EngineSession._masked_database``) so the expectation does not lean on
    the code under test.
    """
    values = dict(binding)
    occurrences = binding_occurrences(query, tuple(values))
    masked = KDatabase(query, annotated.monoid)
    for relation in annotated.relations():
        positions = occurrences.get(relation.atom.relation, ())
        keys, annotations = [], []
        for key, annotation in relation._annotations.items():
            if all(key[pos] == values[var] for pos, var in positions):
                keys.append(key)
                annotations.append(annotation)
        masked.relation(relation.atom.relation).bulk_load(keys, annotations)
    return masked


def _fact_weight(fact: Fact) -> int:
    return sum(value for value in fact.values if isinstance(value, int))


#: (id, monoid factory, ψ) per flat-carrier 2-monoid.  Every ψ is a pure
#: function of the fact.
FLAT_FAMILIES = [
    ("probability", ProbabilityMonoid, lambda f: (_fact_weight(f) % 7 + 1) / 10),
    (
        "probability-exact",
        ExactProbabilityMonoid,
        lambda f: Fraction(_fact_weight(f) % 7 + 1, 10),
    ),
    ("boolean", BooleanSemiring, lambda f: _fact_weight(f) % 4 != 0),
    ("counting", CountingSemiring, lambda f: 1 + _fact_weight(f) % 3),
    ("expectation", RealSemiring, lambda f: float(_fact_weight(f) % 5) + 0.5),
    (
        "resilience",
        ResilienceMonoid,
        lambda f: (1, 2, math.inf)[_fact_weight(f) % 3],
    ),
    ("min-plus", MinPlusSemiring, lambda f: float(_fact_weight(f) % 6)),
]


def _star_workload(make_monoid, psi, seed: int = 3):
    query = star_query(2)
    database = random_database(
        query, facts_per_relation=40, domain_size=8, seed=seed
    )
    annotated = KDatabase.annotate(
        query, make_monoid(), database.facts(), psi
    )
    hubs = sorted(
        {fact.values[0] for fact in database.facts() if fact.relation == "R1"}
    )
    bindings = [(("X", value),) for value in hubs[:5]]
    bindings.append((("X", "unseen-value"),))
    return query, annotated, bindings


def _tasks_for(plan, annotated, query, bindings, *, kernel_mode="auto"):
    return [
        FusedTask(
            plan=plan,
            annotated=annotated,
            binding=binding,
            fallback=lambda binding=binding: execute_plan(
                plan,
                _masked(annotated, query, binding),
                kernel_mode=kernel_mode,
            ).result,
        )
        for binding in bindings
    ]


# ----------------------------------------------------------------------
# Core: section runs ≡ masked-serial, bit for bit, over every flat kernel
# ----------------------------------------------------------------------
class TestFusedFlatKernels:
    @pytest.mark.parametrize(
        "make_monoid,psi",
        [pytest.param(m, p, id=name) for name, m, p in FLAT_FAMILIES],
    )
    def test_fused_matches_masked_serial_bitwise(self, make_monoid, psi):
        query, annotated, bindings = _star_workload(make_monoid, psi)
        plan = compile_plan(query)
        expected = [
            execute_plan(plan, _masked(annotated, query, binding)).result
            for binding in bindings
        ]
        results = execute_fused(_tasks_for(plan, annotated, query, bindings))
        assert results == expected  # exact ==, even for floats

    @pytest.mark.parametrize(
        "make_monoid,psi",
        [pytest.param(m, p, id=name) for name, m, p in FLAT_FAMILIES],
    )
    def test_width_one_equals_width_k_columns(self, make_monoid, psi):
        """Each member of a fused batch answers exactly as it would alone."""
        query, annotated, bindings = _star_workload(make_monoid, psi)
        plan = compile_plan(query)
        alone = [
            execute_fused(_tasks_for(plan, annotated, query, [binding]))[0]
            for binding in bindings
        ]
        together = execute_fused(_tasks_for(plan, annotated, query, bindings))
        assert together == alone

    def test_unseen_binding_value_answers_zero(self):
        query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )
        results = execute_fused(
            _tasks_for(compile_plan(query), annotated, query, bindings[-1:])
        )
        assert results == [annotated.monoid.zero]


# ----------------------------------------------------------------------
# Decline conditions
# ----------------------------------------------------------------------
class TestDeclineConditions:
    def test_empty_batch(self):
        assert execute_fused([]) == []

    def test_single_task_is_not_counted_as_fusion(self):
        query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )
        plan = compile_plan(query)
        results = execute_fused(
            _tasks_for(plan, annotated, query, bindings[:1])
        )
        assert results == [
            execute_plan(plan, _masked(annotated, query, bindings[0])).result
        ]

    @needs_numpy
    @pytest.mark.parametrize(
        "make_monoid", [lambda: BagSetMonoid(3), lambda: ShapleyMonoid(3)],
        ids=["bagset", "shapley"],
    )
    def test_packed_vector_kernels_take_the_section_path(self, make_monoid):
        """Packed carriers run over their sections too: no task falls back,
        and each answer is the packed tier's answer on the filtered
        database."""
        monoid = make_monoid()
        query, annotated, bindings = _star_workload(
            lambda: monoid,
            lambda f: monoid.star if _fact_weight(f) % 3 else monoid.one,
        )
        plan = compile_plan(query)
        expected = [
            execute_plan(plan, _masked(annotated, query, binding)).result
            for binding in bindings
        ]

        def declined():
            raise AssertionError("a packed bound task ran its fallback")

        tasks = [
            FusedTask(plan, annotated, declined, binding)
            for binding in bindings
        ]
        assert execute_fused(tasks) == expected

    def test_unbound_tasks_take_the_fallback(self):
        query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )
        plan = compile_plan(query)
        tasks = _tasks_for(plan, annotated, query, bindings[:2])
        sentinel = object()
        tasks.insert(1, FusedTask(plan, annotated, lambda: sentinel))
        results = execute_fused(tasks)
        assert results[1] is sentinel
        expected = [
            execute_plan(plan, _masked(annotated, query, binding)).result
            for binding in bindings[:2]
        ]
        assert [results[0], results[2]] == expected

    @pytest.mark.parametrize("mode", ["batched", "scalar"])
    def test_non_columnar_modes_decline(self, mode):
        query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )
        plan = compile_plan(query)
        results = execute_fused(
            _tasks_for(plan, annotated, query, bindings, kernel_mode=mode),
            kernel_mode=mode,
        )
        assert results == [
            execute_plan(
                plan, _masked(annotated, query, binding), kernel_mode=mode
            ).result
            for binding in bindings
        ]

    def test_numpy_blocked_batch_still_answers(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        kernels_module._reset_numpy_probe()
        try:
            assert numpy_or_none() is None
            query, annotated, bindings = _star_workload(
                ProbabilityMonoid, lambda f: 0.5
            )
            plan = compile_plan(query)
            results = execute_fused(
                _tasks_for(plan, annotated, query, bindings)
            )
            assert results == [
                execute_plan(
                    plan, _masked(annotated, query, binding)
                ).result
                for binding in bindings
            ]
        finally:
            monkeypatch.undo()
            kernels_module._reset_numpy_probe()

    @needs_numpy
    def test_incompatible_signatures_never_cross_fuse(self):
        """Two query shapes in one call: each task runs its own plan over
        its own section."""
        star, star_db, star_bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.4
        )
        chain = q_h()
        chain_facts = random_database(
            chain, facts_per_relation=30, domain_size=6, seed=9
        )
        chain_db = KDatabase.annotate(
            chain, ProbabilityMonoid(), chain_facts.facts(), lambda f: 0.6
        )
        chain_bindings = [(("X", value),) for value in (0, 1)]
        star_plan, chain_plan = compile_plan(star), compile_plan(chain)
        tasks = (
            _tasks_for(star_plan, star_db, star, star_bindings[:2])
            + _tasks_for(chain_plan, chain_db, chain, chain_bindings)
        )
        expected = [task.fallback() for task in tasks]
        assert execute_fused(tasks) == expected

    @needs_numpy
    def test_distinct_database_objects_never_cross_fuse(self):
        query, first, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5, seed=3
        )
        _, second, _ = _star_workload(ProbabilityMonoid, lambda f: 0.5, seed=4)
        plan = compile_plan(query)
        tasks = _tasks_for(plan, first, query, bindings[:1]) + _tasks_for(
            plan, second, query, bindings[:1]
        )
        assert execute_fused(tasks) == [task.fallback() for task in tasks]


# ----------------------------------------------------------------------
# The section index
# ----------------------------------------------------------------------
def _rows(view) -> list[tuple]:
    """A columnar view's keys, decoded, in row order."""
    decode = view.interner.decode
    columns = [column.tolist() for column in view.columns]
    return [tuple(decode(code) for code in row) for row in zip(*columns)]


@needs_numpy
class TestSectionIndex:
    def _hub_view(self):
        _query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )
        kernel = array_kernel_for(annotated.monoid)
        return annotated, kernel, bindings[0][0][1]

    def test_section_keeps_matching_rows_in_row_order(self):
        annotated, kernel, hub = self._hub_view()
        view = annotated.columnar_relation("R1", kernel)
        section = view.section([(0, hub)])
        support = annotated.relation("R1")._annotations
        expected = [key for key in support if key[0] == hub]
        assert expected and _rows(section) == expected
        assert section.annotations.tolist() == [
            support[key] for key in expected
        ]
        assert len(view.section([(0, "unseen-value")])) == 0

    def test_index_lives_with_the_view_until_a_version_bump(self):
        annotated, kernel, hub = self._hub_view()
        view = annotated.columnar_relation("R1", kernel)
        view.section([(0, hub)])
        index = view._sort_cache[("section", 0)]
        view.section([(0, "unseen-value")])
        assert view._sort_cache[("section", 0)] is index
        annotated.set(Fact("R1", (hub, "entering")), 0.5)
        fresh = annotated.columnar_relation("R1", kernel)
        assert fresh is not view
        assert ("section", 0) not in fresh._sort_cache
        assert (hub, "entering") in _rows(fresh.section([(0, hub)]))

    def test_several_bound_positions_intersect(self):
        query = parse_query("Q() :- R(X, Y), S(X)")
        facts = [
            Fact("R", (x, y)) for x in (1, 2, 3) for y in (1, 2, 3)
        ] + [Fact("S", (x,)) for x in (1, 2)]
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(), facts,
            lambda f: (_fact_weight(f) % 4 + 1) / 8,
        )
        kernel = array_kernel_for(annotated.monoid)
        view = annotated.columnar_relation("R", kernel)
        assert _rows(view.section([(0, 2), (1, 3)])) == [(2, 3)]
        assert len(view.section([(0, 2), (1, 7)])) == 0
        plan = compile_plan(query)
        bindings = [
            (("X", 2), ("Y", 3)), (("X", 3), ("Y", 1)), (("X", 2), ("Y", 9)),
        ]
        results = execute_fused(_tasks_for(plan, annotated, query, bindings))
        assert results == [
            execute_plan(plan, _masked(annotated, query, binding)).result
            for binding in bindings
        ]
        assert results[1] == 0.0  # X=3 has no S fact

    def test_facts_entering_and_leaving_a_section_are_seen(self):
        """Each mutation bumps a relation version; the next bound answer
        (memo bypassed) reads a fresh index, never a stale one."""
        query, database, hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        annotated = session._probability_annotated("pqe", False)
        plan = compile_for_database(query, annotated, session.engine.policy)
        hub = hubs[0]
        binding = (("X", hub),)

        def answer_and_reference():
            return (
                session.pqe(binding=binding),
                execute_plan(plan, _masked(annotated, query, binding)).result,
            )

        before, reference = answer_and_reference()
        assert before == reference
        annotated.set(Fact("R2", (hub, "entering")), 0.5)
        entered, reference = answer_and_reference()
        assert entered == reference and entered != before
        leaving = next(
            key for key in annotated.relation("R1")._annotations
            if key[0] == hub
        )
        annotated.set(Fact("R1", leaving), 0.0)
        left, reference = answer_and_reference()
        assert left == reference and left != entered


class TestExecutionCounts:
    @pytest.mark.parametrize("mode", ["auto", "batched"])
    def test_one_bound_pqe_is_one_plan_execution(self, mode):
        query, database, hubs = _session_workload()
        session = Engine(kernel_mode=mode).open(query, probabilistic=database)
        session.pqe()  # build the annotated database outside the count
        kernel = _array_kernel_if_selected(mode, ProbabilityMonoid())
        tier = "array" if kernel is not None else "batched"
        executions = _TIER_EXECUTIONS.labels(tier=tier)
        seconds = _PLAN_SECONDS.labels(tier=tier)
        before = executions.value, seconds.count
        total = sum(
            _TIER_EXECUTIONS.labels(tier=name).value
            for name in ("array", "batched", "scalar")
        )
        session.pqe(binding={"X": hubs[0]})
        assert (executions.value, seconds.count) == (
            before[0] + 1, before[1] + 1,
        )
        assert sum(
            _TIER_EXECUTIONS.labels(tier=name).value
            for name in ("array", "batched", "scalar")
        ) == total + 1


# ----------------------------------------------------------------------
# Engine session: binding sweeps through request(), memo discipline
# ----------------------------------------------------------------------
def _session_workload(size: int = 120, seed: int = 7):
    query = star_query(2)
    database = random_probabilistic_database(
        query, facts_per_relation=size // 2, domain_size=10,
        seed=seed, skew=0.6,
    )
    hubs = sorted(
        {
            fact.values[0]
            for fact in database.support_database().facts()
            if fact.relation == "R1"
        }
    )
    return query, database, hubs[:6]


def _sweep(session, requests) -> list:
    """Answer ``(family, params)`` pairs through the session memo."""
    return [session.request(family, **params) for family, params in requests]


class TestSessionBatching:
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_request_sweep_matches_serial_loop_bitwise(self, mode):
        query, database, hubs = _session_workload()
        serial_session = Engine(kernel_mode=mode).open(
            query, probabilistic=database
        )
        serial = [
            serial_session.pqe(binding={"X": hub}) for hub in hubs
        ] + [serial_session.expected_count(binding={"X": hub}) for hub in hubs]
        session = Engine(kernel_mode=mode).open(query, probabilistic=database)
        requests = [("pqe", {"binding": {"X": hub}}) for hub in hubs] + [
            ("expected_count", {"binding": {"X": hub}}) for hub in hubs
        ]
        assert _sweep(session, requests) == serial  # exact, within the tier
        memo = session.stats()["memo"]
        assert (memo["hits"], memo["misses"]) == (0, len(requests))

    def test_mixed_batch_with_unbound_requests(self):
        query, database, hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        requests = [
            ("pqe", {}),
            ("pqe", {"binding": {"X": hubs[0]}}),
            ("expected_count", {}),
            ("pqe", {"binding": {"X": hubs[1]}}),
        ]
        results = _sweep(session, requests)
        assert results[0] == session.pqe()
        assert results[1] == session.pqe(binding={"X": hubs[0]})
        assert results[2] == session.expected_count()
        assert results[3] == session.pqe(binding={"X": hubs[1]})

    def test_second_batch_is_served_from_the_memo(self):
        query, database, hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        requests = [("pqe", {"binding": {"X": hub}}) for hub in hubs]
        first = _sweep(session, requests)
        evaluations = session.stats()["evaluations"]
        hits = session.stats()["memo"]["hits"]
        second = _sweep(session, requests)
        assert second == first
        assert session.stats()["evaluations"] == evaluations
        assert session.stats()["memo"]["hits"] == hits + len(hubs)

    def test_mutation_between_batches_invalidates(self):
        query = parse_query("Q() :- R(X), S(X, Y)")
        database = ProbabilisticDatabase(
            {
                Fact("R", (1,)): 0.5,
                Fact("S", (1, 2)): 0.4,
                Fact("R", (2,)): 0.5,
                Fact("S", (2, 3)): 0.8,
            }
        )
        session = Engine().open(query, probabilistic=database)
        requests = [
            ("pqe", {"binding": {"X": 1}}),
            ("pqe", {"binding": {"X": 2}}),
        ]
        first = _sweep(session, requests)
        assert first[0] == pytest.approx(0.2)
        assert first[1] == pytest.approx(0.4)
        # Mutate the annotated database behind the memoized answers: the
        # version fingerprint changes, so the next sweep re-evaluates with
        # freshly built columnar views.
        session._probability_annotated("pqe", False).set(
            Fact("R", (1,)), 1.0
        )
        second = _sweep(session, requests)
        assert second[0] == pytest.approx(0.4)
        assert second[1] == pytest.approx(0.4)

    def test_unseen_binding_value_is_zero(self):
        query, database, _hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        assert session.pqe(binding={"X": "never-seen"}) == 0.0
        assert session.expected_count(binding={"X": "never-seen"}) == 0.0

    def test_binding_on_unmentioned_variable_raises(self):
        query, database, _hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        with pytest.raises(ReproError, match="Z"):
            session.pqe(binding={"Z": 1})

    def test_unknown_family_raises_one_schema_error_everywhere(self):
        """The session, ``Request.validate`` and the JSON decoder share
        one lookup, so an unknown family fails alike in each."""
        query, database, _hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        errors = []
        for attempt in (
            lambda: session.request("nope"),
            lambda: Request.make("nope").validate(),
            lambda: requests_from_dict({"family": "nope"}),
        ):
            with pytest.raises(SchemaError) as caught:
                attempt()
            errors.append(str(caught.value))
        assert len(set(errors)) == 1
        assert errors[0].startswith("unknown request family 'nope'")


class TestCanonicalBinding:
    def test_spellings_collapse(self):
        as_dict = canonical_binding({"X": 1, "A": 2})
        as_pairs = canonical_binding([("A", 2), ("X", 1)])
        as_tuple = canonical_binding((("X", 1), ("A", 2)))
        assert as_dict == as_pairs == as_tuple == (("A", 2), ("X", 1))

    def test_empty_and_none_mean_unbound(self):
        assert canonical_binding(None) is None
        assert canonical_binding({}) is None
        assert canonical_binding(()) is None

    @pytest.mark.parametrize(
        "binding", [5, [["X"]], ["X1"], [["X", 1], ["X", 2]], {"X": [1]}],
        ids=["scalar", "short-pair", "string-item", "twice", "unhashable"],
    )
    def test_malformed_bindings_are_rejected(self, binding):
        with pytest.raises(SchemaError):
            canonical_binding(binding)
        query, database, _hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        with pytest.raises(ReproError):
            session.pqe(binding=binding)

    def test_request_objects_canonicalize_bindings(self):
        first = Request.make("pqe", binding={"X": 1, "A": 2})
        second = Request.make("pqe", binding=[("A", 2), ("X", 1)])
        assert first == second
        assert first.kwargs["binding"] == (("A", 2), ("X", 1))


# ----------------------------------------------------------------------
# JSON streams: the `bindings` sweep spelling
# ----------------------------------------------------------------------
class TestBindingsStream:
    def test_expansion_preserves_shared_parameters(self):
        requests = requests_from_dict(
            {
                "family": "pqe",
                "exact": True,
                "bindings": [{"X": 1}, [["X", 2]]],
            }
        )
        assert [r.kwargs for r in requests] == [
            {"exact": True, "binding": (("X", 1),)},
            {"exact": True, "binding": (("X", 2),)},
        ]

    def test_entry_without_bindings_is_unchanged(self):
        assert len(requests_from_dict({"family": "pqe"})) == 1

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"family": "pqe", "bindings": []}, "non-empty list"),
            ({"family": "pqe", "bindings": {"X": 1}}, "non-empty list"),
            (
                {
                    "family": "pqe",
                    "binding": {"X": 1},
                    "bindings": [{"X": 2}],
                },
                "not both",
            ),
        ],
    )
    def test_malformed_bindings_rejected(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            requests_from_dict(payload)

    def test_stream_round_trip_serves_expanded_sweep(self, tmp_path):
        query, database, hubs = _session_workload(size=60)
        facts = [
            {
                "relation": fact.relation,
                "values": list(fact.values),
                "probability": probability,
            }
            for fact, probability in (
                (fact, database.probability(fact))
                for fact in database.facts()
            )
        ]
        document = {
            "query": "Q() :- R1(X, Y1), R2(X, Y2)",
            "data": {"probabilistic": {"facts": facts}},
            "requests": [
                {"family": "pqe", "bindings": [{"X": hub} for hub in hubs]}
            ],
        }
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        loaded_query, data, requests = load_request_stream(path)
        assert len(requests) == len(hubs)
        serial = Engine().open(query, probabilistic=database)
        expected = [serial.pqe(binding={"X": hub}) for hub in hubs]
        with Server(loaded_query, workers=2, **data) as server:
            assert server.map(requests) == expected


# ----------------------------------------------------------------------
# Scheduler and server
# ----------------------------------------------------------------------
@pytest.fixture
def custom_family():
    registered = []

    def register(name, handler, **declaration):
        register_request_family(name, handler, **declaration)
        registered.append(name)

    yield register
    for name in registered:
        REQUEST_FAMILIES.pop(name, None)


class TestScheduledFusion:
    def test_stats_expose_batching_counters_once(self):
        query, database, _hubs = _session_workload()
        session = Engine().open(query, probabilistic=database)
        scheduler = Scheduler(session, workers=1)
        try:
            stats = scheduler.stats()
            batching = stats["batching"]
            assert set(batching) == {"fused_batches", "fused_queries"}
            assert not set(batching) & set(stats)  # no flat duplicates
        finally:
            scheduler.close()

    def test_gated_queue_drains_as_one_fused_batch(self, custom_family):
        """Hold the sole worker, queue a binding sweep, release: the claim
        takes every bound sibling, answers bit-identically, and each
        flight is answered once (one memo miss, never a hit)."""
        gate = threading.Event()
        custom_family("gate", lambda session: gate.wait(10))
        query, database, hubs = _session_workload()
        serial = Engine().open(query, probabilistic=database)
        expected = [serial.pqe(binding={"X": hub}) for hub in hubs]
        session = Engine().open(query, probabilistic=database)
        scheduler = Scheduler(session, workers=1)
        try:
            blocker = scheduler.submit(Request.make("gate"))
            futures = [
                scheduler.submit(Request.make("pqe", binding={"X": hub}))
                for hub in hubs
            ]
            gate.set()
            blocker.result(10)
            assert [future.result(10) for future in futures] == expected
            batching = scheduler.stats()["batching"]
            assert batching["fused_batches"] == 1
            assert batching["fused_queries"] == len(hubs)
            memo = session.stats()["memo"]
            # The gate's own miss, then one miss per bound flight.
            assert (memo["hits"], memo["misses"]) == (0, 1 + len(hubs))
        finally:
            gate.set()
            scheduler.close()

    def test_eight_worker_stress_is_bit_identical(self):
        """The headline serve leg: 8 workers × an expanded binding sweep ×
        mixed families answers exactly like a serial one-shot loop."""
        query, database, hubs = _session_workload(size=150, seed=13)
        entries = [
            {"family": "pqe", "bindings": [{"X": hub} for hub in hubs]},
            {
                "family": "expected_count",
                "bindings": [{"X": hub} for hub in hubs],
            },
            {"family": "pqe"},
        ]
        requests = [
            request
            for entry in entries
            for request in requests_from_dict(entry)
        ] * 2
        serial_session = Engine().open(query, probabilistic=database)
        serial = [
            serial_session.request(request.family, **request.kwargs)
            for request in requests
        ]
        with Server(query, workers=8, probabilistic=database) as server:
            served = server.map(requests)
            stats = server.stats()
        assert served == serial  # bit-identical, not approximately equal
        assert "batching" in stats["scheduler"]
