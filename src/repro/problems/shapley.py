"""Shapley Value Computation (Section 5.6, Theorem 5.16).

The database splits into exogenous facts ``Dx`` (always present) and
endogenous facts ``Dn``.  The Shapley value of an endogenous fact ``f`` is
the probability, over a uniformly random permutation of ``Dn``, that
inserting ``f`` flips ``Q`` from false to true (Definition 5.12).

Following Livshits–Bertossi–Kimelfeld–Sebag, the value reduces to the counts
``#Sat(k)`` — the number of size-``k`` endogenous subsets making ``Q`` true
(Definition 5.13) — which the unified algorithm computes with the
Definition 5.14 2-monoid and the Definition 5.15 ψ-annotation
(exogenous ↦ 1, endogenous ↦ ★).

Baselines:

* :func:`sat_counts_brute_force` — subset enumeration;
* :func:`shapley_value_by_permutations` — the Definition 5.12 formula verbatim;
* :func:`shapley_value_monte_carlo` — sampled permutations (experiment E7
  measures its convergence against the exact algorithm).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from repro.algebra.provenance import evaluate_tree
from repro.algebra.shapley import SatVector, ShapleyMonoid
from repro.core.lineage import read_once_lineage
from repro.db.database import Database
from repro.db.evaluation import evaluates_true
from repro.db.fact import Fact
from repro.exceptions import ReproError
from repro.query.bcq import BCQ
from repro.query.elimination import Policy


@dataclass(frozen=True)
class ShapleyInstance:
    """A database split into exogenous and endogenous parts (Definition 5.12)."""

    exogenous: Database
    endogenous: Database

    def __post_init__(self) -> None:
        overlap = [
            fact for fact in self.endogenous.facts() if fact in self.exogenous
        ]
        if overlap:
            raise ReproError(
                f"facts cannot be both exogenous and endogenous: {overlap[:3]}"
            )

    def validate_against(self, query: BCQ) -> None:
        self.exogenous.validate_against(query)
        self.endogenous.validate_against(query)

    @property
    def endogenous_count(self) -> int:
        return len(self.endogenous)

    def full_database(self) -> Database:
        return self.exogenous.union(self.endogenous)


def annotation_psi(instance: ShapleyInstance, monoid: ShapleyMonoid):
    """The ψ of Definition 5.15: exogenous ↦ 1, endogenous ↦ ★, else 0."""
    exogenous = frozenset(instance.exogenous.facts())
    endogenous = frozenset(instance.endogenous.facts())

    def psi(fact: Fact) -> SatVector:
        if fact in exogenous:
            return monoid.one
        if fact in endogenous:
            return monoid.star
        return monoid.zero

    return psi


def sat_vector(
    query: BCQ,
    instance: ShapleyInstance,
    *,
    policy: str = "rule1_first",
    kernel_mode: str = "auto",
) -> SatVector:
    """Run Algorithm 1 and return the full ``#Sat`` vector (Theorem 5.16).

    ``kernel_mode="auto"`` routes the ⊕/⊗ batches through the Kronecker
    convolution kernel; ``"scalar"`` runs the per-tuple Definition 5.14
    convolutions (the benchmark baseline).  Both produce bit-identical
    exact integer vectors.
    """
    return _session(
        query, instance, policy=policy, kernel_mode=kernel_mode
    ).sat_vector()


def _session(
    query: BCQ,
    instance: ShapleyInstance,
    *,
    policy: Policy | str = "rule1_first",
    kernel_mode: str = "auto",
):
    """A throwaway engine session bound to *instance*'s split."""
    from repro.engine import Engine

    return Engine(policy=policy, kernel_mode=kernel_mode).open(
        query, exogenous=instance.exogenous, endogenous=instance.endogenous
    )


def sat_counts(
    query: BCQ,
    instance: ShapleyInstance,
    *,
    policy: str = "rule1_first",
    kernel_mode: str = "auto",
) -> tuple[int, ...]:
    """``#Sat(k)`` for ``k = 0 .. |Dn|`` via the unified algorithm."""
    return sat_vector(
        query, instance, policy=policy, kernel_mode=kernel_mode
    ).true_counts


def sat_counts_via_lineage(query: BCQ, instance: ShapleyInstance) -> tuple[int, ...]:
    """Theorem 6.4 φ-route through the read-once lineage (cross-check path).

    The φ of Section 6.5 counts subsets of ``Dn[F]`` — the endogenous facts
    *appearing* in the lineage formula — whereas Definition 5.13 counts
    subsets of all of ``Dn``.  Endogenous facts absent from the lineage
    (dangling facts) never change the truth value but do shift subset sizes,
    so we pad the tree's vector with one irrelevant-fact factor per unused
    endogenous fact: ``u(0, true) = u(1, true) = 1``.
    """
    instance.validate_against(query)
    monoid = ShapleyMonoid(instance.endogenous_count + 1)
    psi = annotation_psi(instance, monoid)
    tree = read_once_lineage(query, instance.full_database())
    value = evaluate_tree(tree, monoid, psi)
    unused = [
        fact for fact in instance.endogenous.facts() if fact not in tree.support
    ]
    if unused:
        length = monoid.length
        irrelevant_true = (1, 1) + (0,) * (length - 2) if length > 1 else (1,)
        irrelevant = SatVector(
            false_counts=(0,) * length, true_counts=irrelevant_true
        )
        for _ in unused:
            value = monoid.mul(value, irrelevant)
    return value.true_counts


def sat_counts_brute_force(
    query: BCQ, instance: ShapleyInstance
) -> tuple[int, ...]:
    """Subset enumeration of Definition 5.13 (exponential baseline)."""
    instance.validate_against(query)
    endogenous = list(instance.endogenous.facts())
    counts = [0] * (len(endogenous) + 1)
    for size in range(len(endogenous) + 1):
        for chosen in combinations(endogenous, size):
            world = instance.exogenous.with_facts(chosen)
            if evaluates_true(query, world):
                counts[size] += 1
    return tuple(counts)


# ----------------------------------------------------------------------
# From #Sat to Shapley values (the Livshits et al. reduction, Section 5.6)
# ----------------------------------------------------------------------
def shapley_weights(n: int) -> tuple[tuple[int, ...], int]:
    """``((k!·(n−k−1)! for k < n), n!)``: the Section 5.6 weights as ints.

    >>> shapley_weights(3)
    ((2, 1, 2), 6)
    """
    factorials = [1]
    for k in range(1, n + 1):
        factorials.append(factorials[-1] * k)
    terms = tuple(factorials[k] * factorials[n - k - 1] for k in range(n))
    return terms, factorials[n]


def shapley_from_counts(with_f, without_f, weights) -> Fraction:
    """``Σ_k k!(n−k−1)!/n! · (with_f[k] − without_f[k])`` for ``k < n``.

    *weights* is :func:`shapley_weights` ``(n)``; the sum is one integer,
    divided once by ``n!``, equal to the sum of the ``Fraction`` terms.
    """
    terms, n_factorial = weights
    return Fraction(
        sum(w * (a - b) for w, a, b in zip(terms, with_f, without_f)),
        n_factorial,
    )


def banzhaf_from_counts(with_f, without_f, n: int) -> Fraction:
    """``(Σ_{k<n} with_f[k] − Σ_{k<n} without_f[k]) / 2^(n−1)``."""
    if n == 0:
        return Fraction(0)
    return Fraction(sum(with_f[:n]) - sum(without_f[:n]), 2 ** (n - 1))


def shapley_value(
    query: BCQ,
    instance: ShapleyInstance,
    fact: Fact,
    *,
    policy: str = "rule1_first",
) -> Fraction:
    """Exact Shapley value of *fact* via two ``#Sat`` computations.

    Implements the summation at the end of Section 5.6::

        Shapley(f) = Σ_k  k!·(n−k−1)!/n! · (#Sat_{Dx∪{f}, Dn∖{f}}(k)
                                            − #Sat_{Dx, Dn∖{f}}(k))

    with ``n = |Dn|``, using the unified algorithm for both counts.  An
    engine session computes every fact's two counts at once, from one
    forward and one reverse pass over one ψ-annotated database.
    """
    return _session(query, instance, policy=policy).shapley_value(fact)


def shapley_values(
    query: BCQ,
    instance: ShapleyInstance,
    *,
    policy: str = "rule1_first",
) -> dict[Fact, Fraction]:
    """Shapley values of *all* endogenous facts.

    One engine session answers all of them from one sweep: a forward and a
    reverse pass over one annotated database, not ``2·|Dn|`` #Sat runs.
    """
    return _session(query, instance, policy=policy).shapley_values()


def shapley_value_by_permutations(
    query: BCQ, instance: ShapleyInstance, fact: Fact
) -> Fraction:
    """Definition 5.12 verbatim: average the flip indicator over all |Dn|!
    permutations.  Factorial-time; tests only."""
    if fact not in instance.endogenous:
        raise ReproError(f"{fact} is not an endogenous fact of the instance")
    endogenous = list(instance.endogenous.facts())
    flips = 0
    total = 0
    for order in permutations(endogenous):
        total += 1
        position = order.index(fact)
        before = instance.exogenous.with_facts(order[:position])
        if evaluates_true(query, before):
            continue
        if evaluates_true(query, before.with_facts([fact])):
            flips += 1
    return Fraction(flips, total)


def shapley_value_monte_carlo(
    query: BCQ,
    instance: ShapleyInstance,
    fact: Fact,
    samples: int,
    seed: int = 0,
) -> float:
    """Sampled-permutation estimate of the Shapley value (experiment E7)."""
    if fact not in instance.endogenous:
        raise ReproError(f"{fact} is not an endogenous fact of the instance")
    if samples < 1:
        raise ReproError("at least one sample is required")
    rng = random.Random(seed)
    endogenous = list(instance.endogenous.facts())
    flips = 0
    for _ in range(samples):
        order = endogenous[:]
        rng.shuffle(order)
        position = order.index(fact)
        before = instance.exogenous.with_facts(order[:position])
        if evaluates_true(query, before):
            continue
        if evaluates_true(query, before.with_facts([fact])):
            flips += 1
    return flips / samples


def banzhaf_value(
    query: BCQ,
    instance: ShapleyInstance,
    fact: Fact,
    *,
    policy: str = "rule1_first",
) -> Fraction:
    """The Banzhaf power index of *fact* — a second attribution from #Sat.

    ``Banzhaf(f) = 2^{-(|Dn|-1)} · Σ_{D' ⊆ Dn∖{f}} (Q(Dx ∪ D' ∪ {f}) −
    Q(Dx ∪ D'))``: the probability that *f* flips the query when every other
    endogenous fact is included independently with probability 1/2.  It
    falls out of the same two ``#Sat`` vectors the Shapley reduction uses —
    the unifying algorithm pays nothing extra for it.
    """
    return _session(query, instance, policy=policy).banzhaf_value(fact)


def banzhaf_value_brute_force(
    query: BCQ, instance: ShapleyInstance, fact: Fact
) -> Fraction:
    """Banzhaf by direct subset enumeration (exponential baseline)."""
    if fact not in instance.endogenous:
        raise ReproError(f"{fact} is not an endogenous fact of the instance")
    others = [f for f in instance.endogenous.facts() if f != fact]
    flips = 0
    for size in range(len(others) + 1):
        for chosen in combinations(others, size):
            base = instance.exogenous.with_facts(chosen)
            if evaluates_true(query, base):
                continue
            if evaluates_true(query, base.with_facts([fact])):
                flips += 1
    return Fraction(flips, 2 ** len(others))


def efficiency_gap(query: BCQ, instance: ShapleyInstance) -> Fraction:
    """The efficiency axiom residual (should be zero).

    The Shapley values of all endogenous facts must sum to
    ``1[Q(Dx ∪ Dn)] − 1[Q(Dx)]``; tests assert this gap vanishes.
    """
    total = sum(shapley_values(query, instance).values(), Fraction(0))
    grand = Fraction(1 if evaluates_true(query, instance.full_database()) else 0)
    baseline = Fraction(1 if evaluates_true(query, instance.exogenous) else 0)
    return total - (grand - baseline)
