"""Seeded differential test: every executor on every tier ≡ the scalar plan.

Each example draws a random hierarchical query (nullary atoms included),
a random database (uniform or Zipf-skewed values) and a random ψ, then runs
every 2-monoid that registers a kernel under the ``auto``, ``batched`` and
``scalar`` tiers and checks:

* :func:`execute_plan`, :func:`execute_grouped_plan` with ``F = ∅`` and
  :class:`IncrementalEvaluator` against the scalar :func:`execute_plan`
  answer;
* :func:`execute_fused` on one variable ``X`` at three seen values and one
  unseen value, plus two variables of one atom bound at once (the section
  index's intersect path): the width-k call equals the width-1 calls bit
  for bit, and each answer equals the scalar answer on the database
  filtered to the binding — the packed bag-set and Shapley kernels run
  these bound too;
* when ``|D| ≤ 10``, exact PQE against possible-world enumeration.

When the plan's last step folds a variable that occurs in every atom (a
root variable), a further test binds it to every seen value (one of them
twice) and one unseen value in one :func:`execute_fused` call: the call
is one union pass over the sections, equal bit for bit to the one-task
calls, and each answer agrees with the scalar plan on its section.

A second test splits a random database into at most 5 endogenous facts and
the rest, then checks an engine session on every tier against the
definitional references: Shapley values by permutations, Banzhaf values,
resilience and bag-set maximization by subset enumeration.

Two more check the sweeps answers derive from: every fact's ``#Sat`` pair
from the one forward and reverse pass against ``sat_counts`` of the forced
and removed instances built from scratch (at most 12 endogenous facts,
both policies, ``Q() :- R()`` included), and ``maximize(b)`` for every
budget, asked in random order, against a fresh profile at ``b``.

Exact carriers compare with ``==``; floats agree within 1e-9.  CI reruns
the file under several ``--hypothesis-seed`` values for a longer leg.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algebra.bagset import BagSetMonoid
from repro.algebra.boolean import BooleanSemiring
from repro.algebra.counting import CountingSemiring
from repro.algebra.probability import ExactProbabilityMonoid, ProbabilityMonoid
from repro.algebra.real import RealSemiring
from repro.algebra.resilience import ResilienceMonoid
from repro.algebra.shapley import SatVector, ShapleyMonoid
from repro.algebra.tropical import (
    MaxPlusSemiring,
    MaxTimesSemiring,
    MinPlusSemiring,
)
from repro.core.algorithm import (
    _TIER_EXECUTIONS,
    _array_kernel_if_selected,
    execute_plan,
)
from repro.core.fused import FusedTask, execute_fused
from repro.core.grouped import compile_grouped_plan, execute_grouped_plan
from repro.core.incremental import IncrementalEvaluator
from repro.core.plan import ProjectStep, compile_plan
from repro.db.annotated import KDatabase
from repro.db.database import Database
from repro.engine import Engine
from repro.problems.bagset_max import (
    BagSetInstance,
    maximize_brute_force,
    maximize_profile,
)
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.problems.pqe import (
    marginal_probability,
    marginal_probability_brute_force,
)
from repro.problems.resilience import ResilienceInstance, resilience_brute_force
from repro.problems.shapley import (
    ShapleyInstance,
    banzhaf_value_brute_force,
    sat_counts,
    shapley_value_by_permutations,
)
from repro.query.families import random_hierarchical_query
from repro.query.parser import parse_query
from repro.workloads.generators import random_database

TIERS = ("auto", "batched", "scalar")
POLICIES = ("rule1_first", "min_support")
TOLERANCE = 1e-9


def _satvector(monoid, rng):
    return SatVector(
        tuple(rng.randrange(0, 4) for _ in range(monoid.length)),
        tuple(rng.randrange(0, 4) for _ in range(monoid.length)),
    )


def _bagset_vector(monoid, rng):
    return tuple(sorted(rng.randrange(0, 5) for _ in range(monoid.length)))


def _spiky(monoid, draw_vector):
    """ψ for the packed vector carriers: mostly 1/★/0, sometimes a vector."""

    def sample(rng):
        choice = rng.random()
        if choice < 0.4:
            return monoid.one
        if choice < 0.75:
            return monoid.star
        if choice < 0.85:
            return monoid.zero
        return draw_vector(monoid, rng)

    return sample


def _cases(rng):
    """``(name, monoid, ψ sampler, exact)`` for every monoid with a kernel."""
    bagset = BagSetMonoid(rng.randint(1, 4))
    shapley = ShapleyMonoid(rng.randint(1, 4))
    return [
        (
            "probability",
            ProbabilityMonoid(),
            lambda rng: rng.choice([0.25, 0.5, 1.0, rng.random()]),
            False,
        ),
        (
            "probability-exact",
            ExactProbabilityMonoid(),
            lambda rng: Fraction(rng.randint(0, 8), 8),
            True,
        ),
        ("counting", CountingSemiring(), lambda rng: rng.randrange(0, 6), True),
        ("boolean", BooleanSemiring(), lambda rng: rng.random() < 0.8, True),
        (
            "reals-exact",
            RealSemiring(exact=True),
            lambda rng: Fraction(rng.randrange(0, 9), 4),
            True,
        ),
        (
            "min-plus",
            MinPlusSemiring(),
            lambda rng: rng.choice([0, 1, math.inf, rng.randrange(0, 9)]),
            True,
        ),
        ("max-times", MaxTimesSemiring(), lambda rng: rng.randrange(0, 6), True),
        (
            "max-plus",
            MaxPlusSemiring(),
            lambda rng: rng.choice([0, -math.inf, rng.randrange(0, 9)]),
            True,
        ),
        (
            "resilience",
            ResilienceMonoid(),
            lambda rng: rng.choice([math.inf, 0, 1, rng.randrange(1, 5)]),
            True,
        ),
        ("bagset", bagset, _spiky(bagset, _bagset_vector), True),
        ("shapley", shapley, _spiky(shapley, _satvector), True),
    ]


def _agree(actual, expected, exact: bool) -> bool:
    if exact:
        return actual == expected
    return abs(actual - expected) <= TOLERANCE


def _annotate(query, monoid, facts, psi):
    return KDatabase.annotate(query, monoid, facts, psi.__getitem__)


def _section(query, facts, binding):
    """The facts of ``σ_binding``: an independent reference filter."""
    values = dict(binding)
    positions = {
        atom.relation: [
            (index, values[name])
            for index, name in enumerate(atom.variables)
            if name in values
        ]
        for atom in query.atoms
    }
    return [
        fact for fact in facts
        if all(
            fact.values[index] == value
            for index, value in positions[fact.relation]
        )
    ]


def _bindings(query, facts, rng):
    """One variable ``X``: three seen values (as many as exist) + one unseen."""
    variable = rng.choice(sorted(query.variables))
    seen = sorted({
        fact.values[atom.variables.index(variable)]
        for atom in query.atoms if variable in atom.variables
        for fact in facts if fact.relation == atom.relation
    })
    values = rng.sample(seen, min(3, len(seen))) + ["unseen"]
    return variable, values


def _pair_binding(query, facts, rng):
    """Two variables of one atom bound to one of its facts' values (an
    unseen pair when the atom has no fact), or ``None``."""
    atoms = [atom for atom in query.atoms if len(atom.variables) >= 2]
    if not atoms:
        return None
    atom = rng.choice(atoms)
    chosen = rng.sample(sorted(atom.variables), 2)
    rows = [fact for fact in facts if fact.relation == atom.relation]
    if not rows:
        return tuple((variable, "unseen") for variable in sorted(chosen))
    fact = rng.choice(rows)
    return tuple(sorted(
        (variable, fact.values[atom.variables.index(variable)])
        for variable in chosen
    ))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_executor_and_tier_matches_the_scalar_plan(seed):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng, max_variables=4, max_atoms=4)
    database = random_database(
        query,
        facts_per_relation=rng.randint(0, 8),
        domain_size=rng.randint(1, 5),
        seed=rng,
        skew=rng.choice([0.0, 0.8]),
    )
    facts = tuple(database.facts())
    plan = compile_plan(query)
    grouped = compile_grouped_plan(query, ())
    variable, values = _bindings(query, facts, rng)
    bindings = [((variable, value),) for value in values]
    pair = _pair_binding(query, facts, random.Random(f"{seed}/pair"))
    if pair is not None:
        bindings.append(pair)
    for name, monoid, sample, exact in _cases(rng):
        psi = {fact: sample(rng) for fact in facts}
        annotated = _annotate(query, monoid, facts, psi)
        expected = execute_plan(plan, annotated, kernel_mode="scalar").result
        sections = [
            _annotate(query, monoid, _section(query, facts, binding), psi)
            for binding in bindings
        ]
        references = [
            execute_plan(plan, section, kernel_mode="scalar").result
            for section in sections
        ]
        for mode in TIERS:
            where = f"seed={seed} {name} {mode} {query}"
            actual = execute_plan(plan, annotated, kernel_mode=mode).result
            assert _agree(actual, expected, exact), (where, actual, expected)
            answer = execute_grouped_plan(grouped, annotated, kernel_mode=mode)
            actual = answer.annotation(())
            assert _agree(actual, expected, exact), (where, actual, expected)
            actual = IncrementalEvaluator(
                query, annotated, kernel_mode=mode
            ).result
            assert _agree(actual, expected, exact), (where, actual, expected)

            tasks = [
                FusedTask(
                    plan=plan,
                    annotated=annotated,
                    binding=binding,
                    fallback=lambda section=section, mode=mode: execute_plan(
                        plan, section, kernel_mode=mode
                    ).result,
                )
                for binding, section in zip(bindings, sections)
            ]
            wide = execute_fused(tasks, kernel_mode=mode)
            narrow = [
                execute_fused([task], kernel_mode=mode)[0]
                for task in tasks
            ]
            assert wide == narrow, (where, wide, narrow)
            for binding, actual, reference in zip(bindings, wide, references):
                assert _agree(actual, reference, exact), (
                    where, binding, actual, reference,
                )

    if len(facts) <= 10:
        probabilistic = ProbabilisticDatabase(
            {fact: Fraction(rng.randint(1, 4), 4) for fact in facts}
        )
        truth = marginal_probability_brute_force(
            query, probabilistic, exact=True
        )
        for mode in TIERS:
            answer = marginal_probability(
                query, probabilistic, exact=True, kernel_mode=mode
            )
            assert answer == truth, (seed, mode, query, answer, truth)


def _root_variable(plan):
    """The variable the plan's last step folds into ``()`` when it occurs
    in every atom, else ``None``."""
    last = plan.steps[-1] if plan.steps else None
    if (
        isinstance(last, ProjectStep)
        and last.target.arity == 0
        and all(
            last.variable in atom.variable_set for atom in plan.query.atoms
        )
    ):
        return last.variable
    return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_root_variable_sweep_runs_as_one_pass(seed):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng, max_variables=4, max_atoms=4)
    plan = compile_plan(query)
    root = _root_variable(plan)
    assume(root is not None)
    database = random_database(
        query,
        facts_per_relation=rng.randint(0, 60),
        domain_size=rng.randint(1, 8),
        seed=rng,
        skew=rng.choice([0.0, 0.8]),
    )
    # Insertion order away from the interner's code order.
    facts = rng.sample(tuple(database.facts()), len(database))
    seen = sorted({
        fact.values[atom.variables.index(root)]
        for atom in query.atoms
        for fact in facts if fact.relation == atom.relation
    })
    values = seen + seen[:1] + ["unseen"]
    executions = _TIER_EXECUTIONS.labels(tier="array")
    floats = [
        ("probability-float", ProbabilityMonoid(), random.Random.random, False),
        ("reals-float", RealSemiring(), lambda r: 4 * r.random(), False),
    ]
    for name, monoid, sample, exact in floats + _cases(rng):
        psi = {fact: sample(rng) for fact in facts}
        annotated = _annotate(query, monoid, facts, psi)
        sections = [
            _annotate(query, monoid, _section(query, facts, ((root, v),)), psi)
            for v in values
        ]
        tasks = [
            FusedTask(
                plan=plan,
                annotated=annotated,
                binding=((root, value),),
                fallback=lambda section=section: execute_plan(
                    plan, section
                ).result,
            )
            for value, section in zip(values, sections)
        ]
        before = executions.value
        wide = execute_fused(tasks)
        where = f"seed={seed} {name} {query} {root}"
        kernel = _array_kernel_if_selected("auto", monoid)
        passes = int(
            kernel is not None and not annotated.columnar_declined(kernel)
        )
        assert executions.value == before + passes, where
        if not exact:  # exact answers meet the scalar reference below
            narrow = [execute_fused([task])[0] for task in tasks]
            assert wide == narrow, (where, wide, narrow)
        for value, actual, section in zip(values, wide, sections):
            reference = execute_plan(plan, section, kernel_mode="scalar").result
            assert _agree(actual, reference, exact), (
                where, value, actual, reference,
            )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_tier_matches_the_brute_force_references(seed):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng, max_variables=3, max_atoms=3)
    database = random_database(
        query,
        facts_per_relation=rng.randint(2, 4),
        domain_size=rng.randint(1, 3),
        seed=rng,
    )
    facts = list(database.facts())
    rng.shuffle(facts)
    split = min(len(facts), rng.randint(1, 5))
    endogenous = Database(facts[:split])
    exogenous = Database(facts[split:])
    budget = rng.randint(0, 3)
    shapley = ShapleyInstance(exogenous=exogenous, endogenous=endogenous)
    expected = {
        "shapley": {
            fact: shapley_value_by_permutations(query, shapley, fact)
            for fact in endogenous.facts()
        },
        "banzhaf": {
            fact: banzhaf_value_brute_force(query, shapley, fact)
            for fact in endogenous.facts()
        },
        "resilience": resilience_brute_force(
            query, ResilienceInstance(exogenous=exogenous, endogenous=endogenous)
        ),
        # Bag-set: the exogenous facts are D, the endogenous ones Dr.
        "maximize": maximize_brute_force(
            query, BagSetInstance(exogenous, endogenous, budget)
        ),
    }
    for mode in TIERS:
        session = Engine(kernel_mode=mode).open(
            query,
            exogenous=exogenous,
            endogenous=endogenous,
            database=exogenous,
            repair=endogenous,
        )
        actual = {
            "shapley": {
                fact: session.shapley_value(fact)
                for fact in endogenous.facts()
            },
            "banzhaf": {
                fact: session.banzhaf_value(fact)
                for fact in endogenous.facts()
            },
            "resilience": session.resilience(),
            "maximize": session.maximize(budget),
        }
        assert actual == expected, (seed, mode, query, actual, expected)


def _split_database(rng, endogenous_limit: int):
    """A random hierarchical query (sometimes ``Q() :- R()``) and a split of
    a random database into endogenous facts (at most *endogenous_limit*)
    and the rest."""
    if rng.random() < 0.15:
        query = parse_query("Q() :- R()")
    else:
        query = random_hierarchical_query(rng, max_variables=4, max_atoms=4)
    database = random_database(
        query,
        facts_per_relation=rng.randint(1, 6),
        domain_size=rng.randint(1, 4),
        seed=rng,
    )
    facts = list(database.facts())
    rng.shuffle(facts)
    split = min(len(facts), rng.randint(1, endogenous_limit))
    return query, Database(facts[:split]), Database(facts[split:])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sweep_pairs_match_the_forced_and_removed_instances(seed):
    rng = random.Random(seed)
    query, endogenous, exogenous = _split_database(rng, 12)
    for policy in POLICIES:
        expected = {}
        for fact in endogenous.facts():
            rest = endogenous.without_facts([fact])
            forced = ShapleyInstance(exogenous.with_facts([fact]), rest)
            removed = ShapleyInstance(exogenous, rest)
            # The shifted instances count subsets of |Dn| − 1 facts; the
            # session's vectors are one entry longer, and that entry is 0.
            expected[fact] = (
                sat_counts(query, forced, policy=policy) + (0,),
                sat_counts(query, removed, policy=policy) + (0,),
            )
        for mode in TIERS:
            session = Engine(policy=policy, kernel_mode=mode).open(
                query, exogenous=exogenous, endogenous=endogenous
            )
            pairs, _weights = session._sat_sweep()
            assert pairs == expected, (seed, policy, mode, query)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_maximize_reads_one_profile_for_every_budget(seed):
    rng = random.Random(seed)
    query, repair, database = _split_database(rng, 12)
    addable = BagSetInstance(database, repair, 0).addable_facts()
    budgets = list(range(len(addable) + 2))
    rng.shuffle(budgets)
    for mode in TIERS:
        session = Engine(kernel_mode=mode).open(
            query, database=database, repair=repair
        )
        for budget in budgets:
            fresh = maximize_profile(
                query, BagSetInstance(database, repair, budget),
                kernel_mode=mode,
            )
            assert session.maximize(budget) == fresh[budget], (
                seed, mode, query, budget,
            )
        assert session.stats()["annotated_databases"] == 1
