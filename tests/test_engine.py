"""Tests for the unified evaluation engine (Engine / EngineSession).

Covers the tentpole guarantees of the subsystem:

* one session answers every problem family with outputs identical to the
  one-shot front-ends (bit-identical for the exact carriers);
* the bulk ψ-annotation path is equivalent to the per-fact ``set`` loop;
* the Shapley mutate-restore reduction leaves the session state intact and
  reuses packed big-int operands across requests;
* ``IncrementalEvaluator`` maintains identical results under both
  ``kernel_mode`` settings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from repro.algebra.bagset import BagSetMonoid
from repro.algebra.counting import CountingSemiring
from repro.algebra.probability import ExactProbabilityMonoid, ProbabilityMonoid
from repro.algebra.resilience import ResilienceMonoid
from repro.algebra.shapley import ShapleyMonoid
from repro.algebra.tropical import MaxPlusSemiring
from repro.core.incremental import IncrementalEvaluator
from repro.core.kernels import kernel_for
from repro.core.plan import PLAN_CACHE_SIZE, set_plan_cache_size
from repro.db.annotated import KDatabase, KRelation
from repro.db.database import Database
from repro.db.fact import Fact
from repro.engine import Engine
from repro.exceptions import ReproError, SchemaError
from repro.problems.expected_count import expected_answer_count
from repro.problems.pqe import marginal_probability
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.problems.resilience import ResilienceInstance, resilience
from repro.problems.shapley import (
    ShapleyInstance,
    annotation_psi,
    banzhaf_value_brute_force,
    efficiency_gap,
    sat_counts,
    shapley_value_by_permutations,
)
from repro.query.families import q_eq1, star_query
from repro.query.parser import parse_query
from repro.workloads.generators import (
    random_probabilistic_database,
    random_shapley_instance,
)


def _split(query, exogenous: int, endogenous: int, seed: int):
    """A probabilistic database plus an exo/endo split of its support."""
    database = random_probabilistic_database(
        query,
        facts_per_relation=(exogenous + endogenous) // 2 + 2,
        domain_size=8,
        seed=seed,
    )
    facts = list(database.support_database().facts())
    random.Random(seed).shuffle(facts)
    endo = Database(facts[:endogenous])
    exo = Database(facts[endogenous:endogenous + exogenous])
    return database, exo, endo


class TestEngineConfig:
    def test_rejects_unknown_kernel_mode(self):
        with pytest.raises(ReproError, match="kernel mode"):
            Engine(kernel_mode="vectorized")

    def test_rejects_unknown_policy_name(self):
        with pytest.raises(ReproError, match="policy"):
            Engine(policy="fastest_first")

    def test_accepts_callable_policy(self):
        engine = Engine(policy=lambda steps1, steps2: (steps1 + steps2)[0])
        assert callable(engine.policy)

    def test_unknown_monoid_family(self):
        with pytest.raises(ReproError, match="no monoid registered"):
            Engine().create_monoid("lattice")

    def test_register_monoid_is_per_engine(self):
        engine = Engine()
        engine.register_monoid("tropical", MaxPlusSemiring)
        assert "tropical" in engine.monoid_families()
        assert "tropical" not in Engine().monoid_families()

    def test_default_families(self):
        families = Engine().monoid_families()
        for family in ("probability", "expectation", "shapley", "bagset",
                       "resilience"):
            assert family in families

    def test_plan_cache_size_configuration(self):
        original = PLAN_CACHE_SIZE
        try:
            Engine(plan_cache_size=7)
            assert Engine().plan_cache_info()["max_size"] == 7
            with pytest.raises(ReproError, match="positive"):
                set_plan_cache_size(0)
        finally:
            set_plan_cache_size(original)

    def test_repr_mentions_policy_and_mode(self):
        text = repr(Engine(policy="min_support", kernel_mode="scalar"))
        assert "min_support" in text and "scalar" in text


class TestBulkAnnotation:
    """`KDatabase.annotate` (bulk) ≡ the per-fact ``set`` loop."""

    MONOIDS = [
        ProbabilityMonoid(),
        ExactProbabilityMonoid(),
        CountingSemiring(),
        ResilienceMonoid(),
        ShapleyMonoid(5),
        BagSetMonoid(4),
    ]

    @pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
    def test_matches_per_fact_loop(self, monoid):
        query = q_eq1()
        rng = random.Random(17)
        facts = [
            Fact("R", (rng.randrange(4), rng.randrange(4))) for _ in range(20)
        ] + [
            Fact("S", (rng.randrange(4), rng.randrange(4))) for _ in range(20)
        ] + [
            Fact("T", (rng.randrange(4), rng.randrange(4), rng.randrange(4)))
            for _ in range(20)
        ]
        choices = [monoid.zero, monoid.one]
        if hasattr(monoid, "star"):
            choices.append(monoid.star)

        def psi(fact):
            return choices[hash((fact.relation, fact.values, 13)) % len(choices)]

        bulk = KDatabase.annotate(query, monoid, facts, psi)
        per_fact = KDatabase(query, monoid)
        for fact in facts:
            per_fact.set(fact, psi(fact))
        for left, right in zip(bulk.relations(), per_fact.relations()):
            assert left.atom == right.atom
            assert list(left.items()) == list(right.items())

    def test_last_occurrence_wins(self):
        query = parse_query("Q() :- R(X)")
        monoid = CountingSemiring()
        facts = [Fact("R", (1,)), Fact("R", (1,))]
        annotations = iter([3, 7])
        annotated = KDatabase.annotate(
            query, monoid, facts, lambda _fact: next(annotations)
        )
        assert annotated.annotation(Fact("R", (1,))) == 7

    def test_trailing_zero_deletes(self):
        query = parse_query("Q() :- R(X)")
        monoid = CountingSemiring()
        annotations = iter([3, 0])
        annotated = KDatabase.annotate(
            query, monoid, [Fact("R", (1,)), Fact("R", (1,))],
            lambda _fact: next(annotations),
        )
        assert annotated.size() == 0

    def test_bulk_load_merges_with_set_semantics(self):
        monoid = CountingSemiring()
        query = parse_query("Q() :- R(X)")
        relation = KRelation(query.atoms[0], monoid)
        relation.bulk_load([(1,), (2,)], [5, 6])
        relation.bulk_load([(2,), (3,)], [0, 9])  # zero deletes (2,)
        assert dict(relation.items()) == {(1,): 5, (3,): 9}

    def test_bulk_load_arity_mismatch(self):
        monoid = CountingSemiring()
        query = parse_query("Q() :- R(X)")
        relation = KRelation(query.atoms[0], monoid)
        with pytest.raises(SchemaError, match="arity"):
            relation.bulk_load([(1, 2)], [1])

    def test_bulk_load_length_mismatch(self):
        monoid = CountingSemiring()
        query = parse_query("Q() :- R(X)")
        relation = KRelation(query.atoms[0], monoid)
        with pytest.raises(SchemaError, match="annotations"):
            relation.bulk_load([(1,), (2,)], [1])

    def test_unknown_relation_raises(self):
        query = parse_query("Q() :- R(X)")
        with pytest.raises(SchemaError, match="U"):
            KDatabase.annotate(
                query, CountingSemiring(), [Fact("U", (1,))], lambda _f: 1
            )

    def test_relation_copy_is_independent(self):
        monoid = CountingSemiring()
        query = parse_query("Q() :- R(X)")
        relation = KRelation(query.atoms[0], monoid, {(1,): 4})
        clone = relation.copy()
        clone.set((1,), 9)
        assert relation.annotation((1,)) == 4


class TestSessionReuse:
    """One session, many requests — identical to the one-shot front-ends."""

    def test_pqe_then_shapley_then_resilience_same_database(self):
        query = star_query(2)
        database, exo, endo = _split(query, exogenous=14, endogenous=8, seed=3)
        instance = ShapleyInstance(exogenous=exo, endogenous=endo)
        rinstance = ResilienceInstance(exogenous=exo, endogenous=endo)

        session = Engine().open(
            query, probabilistic=database, exogenous=exo, endogenous=endo
        )
        assert session.pqe() == marginal_probability(query, database)
        assert session.sat_counts() == sat_counts(query, instance)
        assert session.resilience() == resilience(query, rinstance)
        # Bit-identical exact carriers on the same session.
        assert session.pqe(exact=True) == marginal_probability(
            query, database, exact=True
        )
        assert session.expected_count() == expected_answer_count(
            query, database
        )
        assert session.expected_count(exact=True) == expected_answer_count(
            query, database, exact=True
        )

    def test_annotation_built_once_per_family(self):
        query = star_query(2)
        database, exo, endo = _split(query, exogenous=10, endogenous=6, seed=5)
        session = Engine().open(
            query, probabilistic=database, exogenous=exo, endogenous=endo
        )
        for _ in range(4):
            session.pqe()
            session.sat_vector()
            session.resilience()
        stats = session.stats()
        assert stats["evaluations"] == 12
        assert stats["annotation_builds"] == 3  # pqe + shapley + resilience
        assert stats["annotated_databases"] == 3

    def test_shapley_values_match_shifted_instance_reduction(self):
        """The mutate-restore loop ≡ the literal forced/removed reduction."""
        query = q_eq1()
        instance = random_shapley_instance(
            query, facts_per_relation=5, endogenous_fraction=0.6,
            domain_size=3, seed=11,
        )
        session = Engine().open(
            query, exogenous=instance.exogenous, endogenous=instance.endogenous
        )
        n = instance.endogenous_count
        n_factorial = math.factorial(n)
        for fact in instance.endogenous.facts():
            without = instance.endogenous.without_facts([fact])
            forced = ShapleyInstance(
                exogenous=instance.exogenous.with_facts([fact]),
                endogenous=without,
            )
            removed = ShapleyInstance(
                exogenous=instance.exogenous, endogenous=without
            )
            with_f = sat_counts(query, forced)
            without_f = sat_counts(query, removed)
            expected = sum(
                (
                    Fraction(
                        math.factorial(k) * math.factorial(n - k - 1),
                        n_factorial,
                    )
                    * (with_f[k] - without_f[k])
                    for k in range(n)
                ),
                Fraction(0),
            )
            assert session.shapley_value(fact) == expected

    def test_shapley_axioms_on_session(self):
        query = q_eq1()
        instance = random_shapley_instance(
            query, facts_per_relation=4, endogenous_fraction=0.5,
            domain_size=3, seed=23,
        )
        assert efficiency_gap(query, instance) == 0
        session = Engine().open(
            query, exogenous=instance.exogenous, endogenous=instance.endogenous
        )
        facts = list(instance.endogenous.facts())[:2]
        for fact in facts:
            assert session.shapley_value(fact) == shapley_value_by_permutations(
                query, instance, fact
            )
            assert session.banzhaf_value(fact) == banzhaf_value_brute_force(
                query, instance, fact
            )

    def test_mutation_is_restored_after_value_requests(self):
        query = q_eq1()
        instance = random_shapley_instance(
            query, facts_per_relation=4, endogenous_fraction=0.5,
            domain_size=3, seed=29,
        )
        session = Engine().open(
            query, exogenous=instance.exogenous, endogenous=instance.endogenous
        )
        before = session.sat_vector()
        session.shapley_values()
        session.banzhaf_values()
        assert session.sat_vector() == before

    def test_shapley_value_rejects_non_endogenous_fact(self):
        query = parse_query("Q() :- R(X)")
        session = Engine().open(
            query,
            exogenous=Database([Fact("R", (1,))]),
            endogenous=Database([Fact("R", (2,))]),
        )
        with pytest.raises(ReproError, match="endogenous"):
            session.shapley_value(Fact("R", (1,)))

    def test_bagset_profiles_share_annotation_per_length(self, fig1_query,
                                                         fig1_instance):
        from repro.problems.bagset_max import maximize_profile

        session = Engine().open(
            fig1_query,
            database=fig1_instance.database,
            repair=fig1_instance.repair_database,
        )
        for budget in (0, 1, 2):
            expected = maximize_profile(
                fig1_query,
                type(fig1_instance)(
                    fig1_instance.database,
                    fig1_instance.repair_database,
                    budget,
                ),
            )
            assert session.bagset_profile(budget) == expected
        assert session.maximize(2) == 4  # the Figure 1 optimum

    def test_maximize_reads_the_longest_profile(self, fig1_query,
                                                fig1_instance):
        from repro.problems.bagset_max import maximize_profile

        session = Engine().open(
            fig1_query,
            database=fig1_instance.database,
            repair=fig1_instance.repair_database,
        )
        addable = len(fig1_instance.addable_facts())  # 4
        full = maximize_profile(
            fig1_query,
            type(fig1_instance)(
                fig1_instance.database,
                fig1_instance.repair_database,
                addable,
            ),
        )
        assert session.maximize(9) == full[addable]  # built at |addable|+1
        builds = session.stats()["annotation_builds"]
        for budget in (0, 1, 2, 3, 4, 5):
            assert session.maximize(budget) == full[min(budget, addable)]
        assert session.bagset_profile(2) == full[:3]
        stats = session.stats()
        assert stats["annotation_builds"] == builds  # all sliced
        assert stats["annotated_databases"] == 1

    @pytest.mark.parametrize("budget", ["abc", 2.5, True, -1, None])
    def test_non_natural_budgets_rejected(self, fig1_query, fig1_instance,
                                          budget):
        session = Engine().open(
            fig1_query,
            database=fig1_instance.database,
            repair=fig1_instance.repair_database,
        )
        assert session.request("maximize", budget=1) == session.maximize(1)
        for call in (
            lambda: session.maximize(budget),
            lambda: session.request("maximize", budget=budget),
            lambda: session.bagset_profile(budget),
            lambda: session.bagset_profile(1, vector_length=budget or -1),
        ):
            with pytest.raises(ReproError, match="non-negative integer"):
                call()

    def test_attributions_share_one_sweep(self):
        query = q_eq1()
        instance = random_shapley_instance(
            query, facts_per_relation=5, endogenous_fraction=0.6,
            domain_size=3, seed=11,
        )
        session = Engine().open(
            query, exogenous=instance.exogenous, endogenous=instance.endogenous
        )
        values = session.shapley_values()
        assert session.banzhaf_values() == {
            fact: session.banzhaf_value(fact) for fact in values
        }
        assert values == {
            fact: session.shapley_value(fact) for fact in values
        }
        assert session.stats()["evaluations"] == 1

    def test_grouped_requests(self):
        from repro.core.grouped import evaluate_grouped

        query = parse_query("Q() :- R(X,Y), S(X)")
        database = Database.from_relations(
            {"R": [(1, 1), (1, 2), (2, 5)], "S": [(1,), (2,)]}
        )
        monoid = CountingSemiring()
        session = Engine().open(query, database=database)
        answer = session.grouped(["X"], monoid)
        reference = evaluate_grouped(
            query, ["X"], monoid, database.facts(), lambda _fact: 1
        )
        assert dict(answer.items()) == dict(reference.items())
        # The compiled grouped plan is session-cached.
        assert session.grouped_plan(["X"]) is session.grouped_plan(["X"])

    def test_raw_annotated_run(self, fig1_query):
        monoid = CountingSemiring()
        annotated = KDatabase.from_database(
            fig1_query,
            monoid,
            Database.from_relations(
                {"R": [(1, 5)], "S": [(1, 1), (1, 2)], "T": [(1, 2, 4)]}
            ),
        )
        session = Engine().open(fig1_query, annotated=annotated)
        assert session.run() == 1  # the Figure 1 "no repair" count

    def test_missing_sources_raise(self, fig1_query):
        session = Engine().open(fig1_query)
        with pytest.raises(ReproError, match="probabilistic"):
            session.pqe()
        with pytest.raises(ReproError, match="endogenous"):
            session.sat_vector()
        with pytest.raises(ReproError, match="resilience"):
            session.resilience()
        with pytest.raises(ReproError, match="base database"):
            session.bagset_profile(1)
        with pytest.raises(ReproError, match="pre-annotated"):
            session.run()

    def test_policies_and_kernel_modes_agree_on_session(self):
        query = star_query(2)
        database, exo, endo = _split(query, exogenous=12, endogenous=6, seed=7)
        reference = None
        for policy in ("rule1_first", "rule2_first", "min_support"):
            for kernel_mode in ("auto", "scalar"):
                session = Engine(
                    policy=policy, kernel_mode=kernel_mode
                ).open(query, probabilistic=database,
                       exogenous=exo, endogenous=endo)
                outcome = (session.sat_counts(), session.resilience())
                if reference is None:
                    reference = outcome
                else:
                    assert outcome == reference

    def test_clear_drops_cached_state(self):
        query = star_query(2)
        database, exo, endo = _split(query, exogenous=8, endogenous=4, seed=9)
        session = Engine().open(
            query, probabilistic=database, exogenous=exo, endogenous=endo
        )
        before = session.pqe()
        session.clear()
        assert session.stats()["annotated_databases"] == 0
        assert session.pqe() == before


class TestPackedOperandReuse:
    def test_session_reuses_packed_operands_across_requests(self):
        query = star_query(2)
        _, exo, endo = _split(query, exogenous=20, endogenous=12, seed=13)
        # Pin the batched tier: it owns the packed-operand caches under
        # test (the default auto mode now serves this workload from the
        # packed columnar tier, which only consults them on overflow).
        session = Engine(kernel_mode="batched").open(
            query, exogenous=exo, endogenous=endo
        )
        first = session.sat_vector()
        kernel = kernel_for(session._monoids["shapley"])
        warm = kernel.cache_info()
        # Packed operands were already reused across fold steps in run one …
        assert warm["packed"] > 0
        assert warm["pack_hits"] > 0
        second = session.sat_vector()
        assert second == first
        hot = kernel.cache_info()
        # … and the second run is served from the caches: cached products
        # short-circuit the convolutions, so nothing is ever re-packed.
        assert hot["pack_misses"] == warm["pack_misses"]
        assert hot["products"] > 0
        assert session.stats()["shapley_kernel"] == hot

    def test_cache_clear_preserves_results(self):
        query = star_query(2)
        _, exo, endo = _split(query, exogenous=10, endogenous=8, seed=19)
        session = Engine().open(query, exogenous=exo, endogenous=endo)
        first = session.sat_vector()
        kernel = kernel_for(session._monoids["shapley"])
        kernel.clear_caches()
        assert kernel.cache_info()["packed"] == 0
        assert session.sat_vector() == first


class TestIncrementalKernelModes:
    MONOIDS = [
        ("probability", ProbabilityMonoid(), lambda rng: rng.random()),
        ("counting", CountingSemiring(), lambda rng: rng.randrange(5)),
    ]

    def _updates(self, query, rng, count=12):
        atoms = list(query.atoms)
        for _ in range(count):
            atom = rng.choice(atoms)
            values = tuple(rng.randrange(3) for _ in range(atom.arity))
            yield Fact(atom.relation, values)

    @pytest.mark.parametrize(
        "monoid,draw", [(m, d) for _n, m, d in MONOIDS],
        ids=[n for n, _m, _d in MONOIDS],
    )
    def test_auto_and_scalar_evaluators_agree(self, monoid, draw):
        query = q_eq1()
        auto = IncrementalEvaluator(
            query, KDatabase(query, monoid), kernel_mode="auto"
        )
        scalar = IncrementalEvaluator(
            query, KDatabase(query, monoid), kernel_mode="scalar"
        )
        rng = random.Random(31)
        for fact in self._updates(query, rng):
            annotation = draw(rng)
            assert auto.update(fact, annotation) == pytest.approx(
                scalar.update(fact, annotation)
            )

    def test_shapley_evaluator_agrees_across_modes(self):
        query = q_eq1()
        instance = random_shapley_instance(
            query, facts_per_relation=4, endogenous_fraction=0.5,
            domain_size=3, seed=37,
        )
        monoid = ShapleyMonoid(instance.endogenous_count + 1)
        psi = annotation_psi(instance, monoid)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = KDatabase.annotate(query, monoid, facts, psi)
        auto = IncrementalEvaluator(query, annotated, kernel_mode="auto")
        scalar = IncrementalEvaluator(query, annotated, kernel_mode="scalar")
        assert auto.result == scalar.result
        for fact in list(instance.endogenous.facts())[:3]:
            assert auto.delete(fact) == scalar.delete(fact)

    def test_session_incremental_matches_fresh_runs(self):
        from repro.core.algorithm import run_algorithm

        query = parse_query("Q() :- R(X), S(X,Y)")
        database = Database.from_relations(
            {"R": [(1,), (2,)], "S": [(1, 1), (2, 3)]}
        )
        monoid = CountingSemiring()
        session = Engine(kernel_mode="scalar").open(query, database=database)
        evaluator = session.incremental(monoid)
        rng = random.Random(41)
        for fact in self._updates(query, rng, count=8):
            annotation = rng.randrange(4)
            result = evaluator.update(fact, annotation)
            fresh = KDatabase(query, monoid)
            for atom in query.atoms:
                relation = evaluator._stages[atom.relation]
                fresh._relations[atom.relation] = relation.copy()
            assert result == run_algorithm(query, fresh)


class TestEngineBenchScenario:
    def test_quick_engine_scenario_agrees(self):
        from repro.bench.perf import run_perf_suite

        document = run_perf_suite(["engine"], quick=True, repeats=1)
        experiment = document["experiments"]["engine"]
        assert experiment["agree"]
        assert experiment["annotation"]["identical"]
        assert document["summary"]["engine"]["agree"]
