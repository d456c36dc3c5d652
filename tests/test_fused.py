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
import random
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
from repro.db.annotated import ColumnarKRelation, KDatabase
from repro.db.fact import Fact
from repro.engine import Engine
from repro.engine.session import (
    REQUEST_FAMILIES,
    canonical_binding,
    register_request_family,
)
from repro.exceptions import ReproError, SchemaError, TransientError
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.query.families import q_h, star_query
from repro.query.parser import parse_query
from repro.serve import (
    FaultInjector,
    Request,
    Scheduler,
    Server,
    load_request_stream,
)
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
# The union pass: root-bound tasks of one call share one run
# ----------------------------------------------------------------------
SWEEP_QUERY = parse_query("Q() :- R(A, B), S(A, C), T(A, C, D)")


def _flipping_tid(seed: int) -> ProbabilisticDatabase:
    """Five values of the root ``A`` whose sections disagree on which
    operand of ``S ⊗ T'`` is larger: even values hold few ``S`` rows and
    many ``T`` rows, odd values the reverse, so whichever operand the
    union makes larger, some section makes it the smaller."""
    rng = random.Random(seed)
    probabilities = {}
    for a in range(5):
        wide, narrow = rng.randint(20, 30), rng.randint(8, 14)
        s_count, t_count = (wide, narrow) if a % 2 else (narrow, wide)
        cs = rng.sample(range(60), max(s_count, t_count))
        for b in rng.sample(range(20), 2):
            probabilities[Fact("R", (a, b))] = rng.uniform(0.05, 0.95)
        for c in cs[:s_count]:
            probabilities[Fact("S", (a, c))] = rng.uniform(0.05, 0.95)
        for c in cs[:t_count]:
            for d in range(rng.randint(1, 2)):
                probabilities[Fact("T", (a, c, d))] = rng.uniform(0.05, 0.95)
    return ProbabilisticDatabase(probabilities)


def _array_executions() -> int:
    return _TIER_EXECUTIONS.labels(tier="array").value


@needs_numpy
class TestUnionPass:
    @pytest.mark.parametrize("family", ["pqe", "expected_count"])
    def test_grouped_answers_equal_one_task_calls(self, family):
        """Bit for bit, on TIDs where the per-value sections and the union
        disagree on which merge operand is larger, and where a section's
        row order is not the interner's code order."""
        flipped = unordered = 0
        for seed in range(20):
            pdb = _flipping_tid(seed)
            alone = Engine().open(SWEEP_QUERY, probabilistic=pdb)
            expected = [
                getattr(alone, family)(binding={"A": a}) for a in range(5)
            ]
            session = Engine().open(SWEEP_QUERY, probabilistic=pdb)
            before = _array_executions()
            outcomes = session.request_batch(
                [(family, {"binding": {"A": a}}, None) for a in range(5)]
            )
            assert _array_executions() == before + 1
            assert outcomes == [(value, None) for value in expected], seed
            annotated = session._probability_annotated(family, False)
            kernel = array_kernel_for(annotated.monoid)
            s_view = annotated.columnar_relation("S", kernel)
            t_sizes = [
                len({row[:2] for row in _rows(
                    annotated.columnar_relation("T", kernel)
                    .section([(0, a)])
                )})
                for a in range(5)
            ]
            s_sizes = [len(s_view.section([(0, a)])) for a in range(5)]
            flipped += any(
                (s > t) != (sum(s_sizes) > sum(t_sizes))
                for s, t in zip(s_sizes, t_sizes)
            )
            unordered += any(
                (codes := s_view.section([(0, a)]).columns[1].tolist())
                != sorted(codes)
                for a in range(5)
            )
        assert flipped == 20 and unordered > 0  # the data is adversarial

    def test_duplicates_and_an_unseen_value_in_one_call(self):
        _query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: (_fact_weight(f) % 7 + 1) / 10
        )
        seen = [binding[0][1] for binding in bindings[:3]]
        values = [seen[0], seen[1], seen[0], "unseen-value", seen[2], seen[1]]
        plan = compile_plan(annotated.query)
        tasks = [
            FusedTask(
                plan, annotated,
                lambda: pytest.fail("a task ran its fallback"),
                (("X", value),),
            )
            for value in values
        ]
        alone = [execute_fused([task])[0] for task in tasks]
        before = _array_executions()
        together = execute_fused(tasks)
        assert _array_executions() == before + 1
        assert together == alone
        assert together[3] == annotated.monoid.zero
        assert together[0] == together[2] and together[1] == together[5]

    def test_one_call_mixes_every_kind_of_task(self):
        """Root-bound, non-root-bound, two-variable, unbound and exact
        requests in one batch answer as they do alone; only the root-bound
        ones share a pass."""
        pdb = _flipping_tid(3)
        b = next(f.values[1] for f in pdb.facts() if f.relation == "R")
        c = next(f.values[1] for f in pdb.facts() if f.relation == "S")
        requests = [
            ("pqe", {"binding": {"A": 1}}),
            ("pqe", {"binding": {"C": c}}),
            ("pqe", {"binding": {"A": 0, "B": b}}),
            ("pqe", {}),
            ("pqe", {"binding": {"A": 2}}),
            ("pqe", {"binding": {"A": 1}, "exact": True}),
            ("expected_count", {"binding": {"A": 3}}),
            ("expected_count", {"binding": {"A": 0}}),
        ]
        alone = Engine().open(SWEEP_QUERY, probabilistic=pdb)
        expected = [
            alone.request(family, **params) for family, params in requests
        ]
        session = Engine().open(SWEEP_QUERY, probabilistic=pdb)
        session.pqe()
        session.expected_count()
        session.pqe(exact=True)
        array, batched = (
            _TIER_EXECUTIONS.labels(tier=tier) for tier in ("array", "batched")
        )
        before = array.value, batched.value, session.stats()["evaluations"]
        outcomes = session.request_batch(
            [(family, params, None) for family, params in requests]
        )
        assert outcomes == [(value, None) for value in expected]
        assert all(expected[:3])  # the bound values occur in the data
        # One union pass per family, two section runs, the unbound run on
        # the array tier; the exact request on the batched tier.
        assert (array.value, batched.value) == (before[0] + 5, before[1] + 1)
        assert session.stats()["evaluations"] == before[2] + len(requests)

    def test_an_error_costs_no_sibling_its_answer(self, custom_family):
        """A bad binding fails at task build, a raising task fails the
        shared call and is retried alone: either way only that request
        gets an error."""
        pdb = _flipping_tid(1)

        def boom():
            raise RuntimeError("a task that cannot answer")

        def task(session, binding=None):
            annotated = session._probability_annotated("pqe", False)
            return FusedTask(compile_plan(SWEEP_QUERY), annotated, boom)

        custom_family("boom", lambda session, binding=None: None, task=task)
        requests = [
            ("pqe", {"binding": {"A": 1}}),
            ("pqe", {"binding": {"Z": 1}}),
            ("boom", {}),
            ("pqe", {"binding": {"A": 2}}),
        ]
        alone = Engine().open(SWEEP_QUERY, probabilistic=pdb)
        expected = [alone.pqe(binding={"A": a}) for a in (1, 2)]
        session = Engine().open(SWEEP_QUERY, probabilistic=pdb)
        outcomes = session.request_batch(
            [(family, params, None) for family, params in requests]
        )
        assert [outcomes[0], outcomes[3]] == [(v, None) for v in expected]
        assert isinstance(outcomes[1][1], ReproError)
        assert isinstance(outcomes[2][1], RuntimeError)

    def test_a_declined_database_leaves_every_task_its_fallback(self):
        _query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )
        annotated.decline_columnar(array_kernel_for(annotated.monoid))
        sentinel = object()
        tasks = [
            FusedTask(compile_plan(annotated.query), annotated,
                      lambda: sentinel, binding)
            for binding in bindings
        ]
        before = _array_executions()
        assert execute_fused(tasks) == [sentinel] * len(tasks)
        assert _array_executions() == before

    def test_an_overflowing_union_leaves_every_task_its_fallback(
        self, monkeypatch
    ):
        _query, annotated, bindings = _star_workload(
            ProbabilityMonoid, lambda f: 0.5
        )

        def overflow(*_args):
            raise OverflowError("annotation outside the kernel dtype")

        monkeypatch.setattr(ColumnarKRelation, "union_section", overflow)
        sentinel = object()
        tasks = [
            FusedTask(compile_plan(annotated.query), annotated,
                      lambda: sentinel, binding)
            for binding in bindings
        ]
        assert execute_fused(tasks) == [sentinel] * len(tasks)
        assert annotated.columnar_declined(array_kernel_for(annotated.monoid))

    def test_union_section_holds_each_section_in_order(self):
        session = Engine().open(SWEEP_QUERY, probabilistic=_flipping_tid(0))
        database = session._probability_annotated("pqe", False)
        view = database.columnar_relation(
            "S", array_kernel_for(database.monoid)
        )
        values = [3, "unseen-value", 0, 4]
        union = _rows(view.union_section(0, values))
        assert union == [
            row
            for value in values
            for row in _rows(view.section([(0, value)]))
        ]


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
            session.pqe()  # the annotated database, outside the count
            executions = _array_executions()
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
            # Each binding's answer is memoized under its own signature
            # (plus the gate's), and with numpy the claimed sweep is one
            # union pass.
            assert memo["entries"] == 1 + len(hubs)
            if numpy_or_none() is not None:
                assert _array_executions() == executions + 1
        finally:
            gate.set()
            scheduler.close()

    def test_an_injected_failure_fails_only_its_flight(self, custom_family):
        """One fault draw per claimed flight, in claim order: the flights
        drawn to fail get the injected error, and the others still share
        one union pass and answer bit-identically."""
        gate = threading.Event()
        custom_family("gate", lambda session: gate.wait(10))
        query, database, hubs = _session_workload()

        def draws(seed):
            rng = random.Random(seed)
            return [rng.random() < 0.5 for _ in range(1 + len(hubs))]

        seed = next(
            seed for seed in range(100)
            if not draws(seed)[0] and 1 <= sum(draws(seed)) <= len(hubs) - 2
        )
        fails = draws(seed)[1:]
        serial = Engine().open(query, probabilistic=database)
        expected = [serial.pqe(binding={"X": hub}) for hub in hubs]
        session = Engine().open(query, probabilistic=database)
        session.pqe()
        faults = FaultInjector(seed=seed, kernel_failure_rate=0.5)
        scheduler = Scheduler(session, workers=1, faults=faults)
        try:
            blocker = scheduler.submit(Request.make("gate"))
            futures = [
                scheduler.submit(Request.make("pqe", binding={"X": hub}))
                for hub in hubs
            ]
            executions = _array_executions()
            gate.set()
            assert blocker.result(10) is True
            for future, fail, value in zip(futures, fails, expected):
                if fail:
                    with pytest.raises(TransientError):
                        future.result(10)
                else:
                    assert future.result(10) == value
            if numpy_or_none() is not None:
                assert _array_executions() == executions + 1
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
