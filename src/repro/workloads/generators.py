"""Workload generators: random databases and problem instances.

Everything is seeded (callers pass a :class:`random.Random` or a seed), so
benchmark workloads and property-test instances are reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from repro.db.database import Database
from repro.db.fact import Fact
from repro.problems.bagset_max import BagSetInstance
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.problems.shapley import ShapleyInstance
from repro.query.bcq import BCQ


def _as_rng(seed_or_rng: int | random.Random) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _value_sampler(rng: random.Random, domain_size: int, skew: float):
    """A ``() → value`` draw over ``range(domain_size)``, optionally skewed.

    ``skew == 0`` is the uniform ``rng.randrange`` draw (bit-compatible
    with the historical generators, so existing seeds reproduce their
    databases unchanged).  ``skew > 0`` draws from a Zipf/power law —
    value ``k`` with weight ``1/(k+1)**skew`` — via one cumulative table
    and a binary search per draw, still fully determined by *rng*.  Skewed
    draws contend on the low values: hot keys with large sections, next to
    a long tail of small ones.
    """
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew!r}")
    if skew == 0:
        return lambda: rng.randrange(domain_size)
    cumulative = list(
        accumulate(1.0 / (k + 1) ** skew for k in range(domain_size))
    )
    total = cumulative[-1]
    return lambda: bisect_right(cumulative, rng.random() * total)


def random_database(
    query: BCQ,
    facts_per_relation: int,
    domain_size: int,
    seed: int | random.Random = 0,
    skew: float = 0.0,
) -> Database:
    """Sample ≈ *facts_per_relation* distinct facts per atom of *query*.

    Values are integers in ``range(domain_size)``; duplicate samples collapse
    (databases are sets), so small domains may yield fewer facts.  A
    positive *skew* draws values from a seeded Zipf distribution instead of
    uniformly (see :func:`_value_sampler`) — heavier collapse on the hot
    low values, contended join keys.
    """
    rng = _as_rng(seed)
    draw = _value_sampler(rng, domain_size, skew)
    facts: list[Fact] = []
    for atom in query.atoms:
        seen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(seen) < facts_per_relation and attempts < 20 * facts_per_relation:
            attempts += 1
            values = tuple(draw() for _ in range(atom.arity))
            seen.add(values)
        facts.extend(Fact(atom.relation, values) for values in seen)
    return Database(facts)


def correlated_database(
    query: BCQ,
    shared_values: int,
    branch_values: int,
    seed: int | random.Random = 0,
) -> Database:
    """A join-friendly database: join variables draw from a small pool.

    Variables occurring in more than one atom draw from
    ``range(shared_values)``; private variables draw from a wider pool.
    Small shared pools force joins to hit, producing many satisfying
    assignments — the regime where bag-set counting is interesting.
    """
    rng = _as_rng(seed)
    occurrences: dict[str, int] = {}
    for atom in query.atoms:
        for variable in atom.variables:
            occurrences[variable] = occurrences.get(variable, 0) + 1
    facts: list[Fact] = []
    for atom in query.atoms:
        for _ in range(shared_values * 2):
            values = tuple(
                rng.randrange(shared_values)
                if occurrences[variable] > 1
                else rng.randrange(branch_values)
                for variable in atom.variables
            )
            facts.append(Fact(atom.relation, values))
    return Database(facts)


def random_probabilistic_database(
    query: BCQ,
    facts_per_relation: int,
    domain_size: int,
    seed: int | random.Random = 0,
    exact: bool = False,
    skew: float = 0.0,
) -> ProbabilisticDatabase:
    """A TID over a random database, probabilities uniform in (0, 1).

    *skew* shapes the fact values exactly as in :func:`random_database`.
    """
    rng = _as_rng(seed)
    base = random_database(query, facts_per_relation, domain_size, rng, skew)
    probabilities = {}
    for fact in base.facts():
        if exact:
            probabilities[fact] = Fraction(rng.randrange(1, 100), 100)
        else:
            probabilities[fact] = rng.uniform(0.01, 0.99)
    return ProbabilisticDatabase(probabilities)


def random_bagset_instance(
    query: BCQ,
    base_facts_per_relation: int,
    repair_facts_per_relation: int,
    budget: int,
    domain_size: int,
    seed: int | random.Random = 0,
) -> BagSetInstance:
    """A random ``(D, Dr, θ)`` instance with disjoint-ish repair facts."""
    rng = _as_rng(seed)
    base = random_database(query, base_facts_per_relation, domain_size, rng)
    repair_pool = random_database(
        query, repair_facts_per_relation, domain_size, rng
    )
    repair = Database(
        fact for fact in repair_pool.facts() if fact not in base
    )
    return BagSetInstance(database=base, repair_database=repair, budget=budget)


def random_shapley_instance(
    query: BCQ,
    facts_per_relation: int,
    domain_size: int,
    endogenous_fraction: float = 0.5,
    seed: int | random.Random = 0,
) -> ShapleyInstance:
    """Split a random database into exogenous/endogenous parts."""
    rng = _as_rng(seed)
    base = random_database(query, facts_per_relation, domain_size, rng)
    endogenous: list[Fact] = []
    exogenous: list[Fact] = []
    for fact in base.facts():
        if rng.random() < endogenous_fraction:
            endogenous.append(fact)
        else:
            exogenous.append(fact)
    if not endogenous:
        # Shapley needs at least one endogenous fact to attribute to.
        endogenous, exogenous = exogenous[:1], exogenous[1:]
    return ShapleyInstance(
        exogenous=Database(exogenous), endogenous=Database(endogenous)
    )


def star_database(
    query: BCQ, hubs: int, spokes_per_hub: int
) -> Database:
    """Deterministic workload for star queries ``Ri(X, Yi)``.

    Every hub value joins with *spokes_per_hub* spokes in each branch
    relation, so the bag-set value is ``hubs · spokes^branches`` — handy for
    closed-form correctness checks at benchmark scale.
    """
    facts = [
        Fact(atom.relation, (hub, (hub, atom.relation, spoke)))
        for atom in query.atoms
        for hub in range(hubs)
        for spoke in range(spokes_per_hub)
    ]
    return Database(facts)


def scale_database(database: Database, relations: Iterable[str]) -> dict[str, int]:
    """Per-relation fact counts (reporting helper for benchmark tables)."""
    return {relation: len(database.tuples(relation)) for relation in relations}
