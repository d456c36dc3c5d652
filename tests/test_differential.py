"""Seeded differential test: every executor on every tier ≡ the scalar plan.

Each example draws a random hierarchical query (nullary atoms included),
a random database (uniform or Zipf-skewed values) and a random ψ, then runs
every 2-monoid that registers a kernel under the ``auto``, ``batched`` and
``scalar`` tiers and checks:

* :func:`execute_plan`, :func:`execute_grouped_plan` with ``F = ∅`` and
  :class:`IncrementalEvaluator` against the scalar :func:`execute_plan`
  answer;
* :func:`execute_fused` on one variable ``X`` at three seen values and one
  unseen value: the width-k pass equals the width-1 passes bit for bit,
  and each answer equals the scalar answer on the database filtered to
  ``X = c``;
* when ``|D| ≤ 10``, exact PQE against possible-world enumeration.

Exact carriers compare with ``==``; floats agree within 1e-9.  CI reruns
the file under several ``--hypothesis-seed`` values for a longer leg.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import given, settings
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
from repro.core.algorithm import execute_plan
from repro.core.fused import FusedTask, execute_fused
from repro.core.grouped import compile_grouped_plan, execute_grouped_plan
from repro.core.incremental import IncrementalEvaluator
from repro.core.plan import compile_plan
from repro.db.annotated import KDatabase
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.problems.pqe import (
    marginal_probability,
    marginal_probability_brute_force,
)
from repro.query.families import random_hierarchical_query
from repro.workloads.generators import random_database

TIERS = ("auto", "batched", "scalar")
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


def _section(query, facts, variable, value):
    """The facts of ``σ_{variable=value}``: an independent reference filter."""
    positions = {
        atom.relation: [
            index for index, name in enumerate(atom.variables)
            if name == variable
        ]
        for atom in query.atoms
    }
    return [
        fact for fact in facts
        if all(fact.values[index] == value for index in positions[fact.relation])
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
    for name, monoid, sample, exact in _cases(rng):
        psi = {fact: sample(rng) for fact in facts}
        annotated = _annotate(query, monoid, facts, psi)
        expected = execute_plan(plan, annotated, kernel_mode="scalar").result
        sections = [
            _annotate(
                query, monoid, _section(query, facts, variable, value), psi
            )
            for value in values
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
                    binding=((variable, value),),
                    fallback=lambda section=section, mode=mode: execute_plan(
                        plan, section, kernel_mode=mode
                    ).result,
                )
                for value, section in zip(values, sections)
            ]
            wide = execute_fused(tasks, kernel_mode=mode).results
            narrow = [
                execute_fused([task], kernel_mode=mode).results[0]
                for task in tasks
            ]
            assert wide == narrow, (where, wide, narrow)
            for value, actual, reference in zip(values, wide, references):
                assert _agree(actual, reference, exact), (
                    where, variable, value, actual, reference,
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
