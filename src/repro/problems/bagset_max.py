"""Bag-Set Maximization (Definitions 4.1/4.2, Theorem 5.11).

Given ``(D, Dr, θ)``, maximize the bag-set value ``Q(D′)`` over all repairs
``D ⊆ D′ ⊆ D ∪ Dr`` adding at most ``θ`` facts.  For hierarchical queries the
unified algorithm instantiates the Definition 5.9 2-monoid of monotone
vectors with the ψ-annotation of Definition 5.10 (present facts ↦ 1 = all
ones, repair facts ↦ ★ = (0, 1, 1, ...)) and reads off entry ``θ`` of the
output vector.

Baselines:

* :func:`maximize_brute_force` — enumerate all ≤θ-subsets of ``Dr \\ D``
  (exponential; and the only sound option for non-hierarchical queries,
  which is the content of the Theorem 4.4 dichotomy);
* :func:`maximize_greedy` — add the single best fact θ times (a natural
  heuristic that experiment E5 shows is *not* optimal in general).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.algebra.bagset import BagSetMonoid, BagSetVector
from repro.algebra.provenance import evaluate_tree
from repro.core.lineage import read_once_lineage
from repro.db.database import Database
from repro.db.evaluation import count_satisfying_assignments
from repro.db.fact import Fact
from repro.exceptions import ReproError
from repro.query.bcq import BCQ


def check_budget(budget, vector_length=None) -> None:
    """:class:`ReproError` unless the budget θ and a given truncation
    length are natural numbers (``True`` is not one)."""
    for name, value in (
        ("budget", budget),
        ("vector_length", 0 if vector_length is None else vector_length),
    ):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ReproError(
                f"{name} must be a non-negative integer, got {value!r}"
            )


@dataclass(frozen=True)
class BagSetInstance:
    """An input ``(D, Dr, θ)`` of the Bag-Set Maximization problem."""

    database: Database
    repair_database: Database
    budget: int

    def __post_init__(self) -> None:
        check_budget(self.budget)

    def addable_facts(self) -> tuple[Fact, ...]:
        """The facts of ``Dr`` not already in ``D`` (the real repair choices)."""
        return tuple(
            fact
            for fact in self.repair_database.facts()
            if fact not in self.database
        )

    def validate_against(self, query: BCQ) -> None:
        self.database.validate_against(query)
        self.repair_database.validate_against(query)


def annotation_psi(instance: BagSetInstance, monoid: BagSetMonoid):
    """The ψ of Definition 5.10 as a fact-annotation function.

    Facts of ``D`` get 1 (multiplicity 1 for free at every budget); facts of
    ``Dr \\ D`` get ★ (multiplicity 1 from budget 1 on); everything else
    implicitly gets 0.
    """
    present = frozenset(instance.database.facts())
    addable = frozenset(instance.addable_facts())

    def psi(fact: Fact) -> BagSetVector:
        if fact in present:
            return monoid.one
        if fact in addable:
            return monoid.star
        return monoid.zero

    return psi


def maximize_profile(
    query: BCQ,
    instance: BagSetInstance,
    vector_length: int | None = None,
    *,
    policy: str = "rule1_first",
    kernel_mode: str = "auto",
) -> BagSetVector:
    """The full budget profile: entry ``i`` = best value at repair cost ≤ i.

    Parameters
    ----------
    vector_length:
        Truncation length of the bag-set vectors; defaults to ``θ + 1``
        (sufficient by monotonicity and the cost bound of Theorem 5.11).
        Experiment E9 passes larger lengths to measure the truncation lever.
    policy:
        Elimination policy (``"min_support"`` uses relation statistics).
    kernel_mode:
        ``"auto"`` for batched kernels, ``"scalar"`` for the per-tuple
        baseline (benchmarking).
    """
    from repro.engine import Engine

    session = Engine(policy=policy, kernel_mode=kernel_mode).open(
        query,
        database=instance.database,
        repair=instance.repair_database,
    )
    return session.bagset_profile(instance.budget, vector_length=vector_length)


def maximize(query: BCQ, instance: BagSetInstance) -> int:
    """The answer to Bag-Set Maximization: ``q(θ)`` (Theorem 5.11)."""
    profile = maximize_profile(query, instance)
    return profile[min(instance.budget, len(profile) - 1)]


def decide(query: BCQ, instance: BagSetInstance, target: int) -> bool:
    """The decision version (Definition 4.2): is the optimum at least τ?"""
    return maximize(query, instance) >= target


def maximize_via_lineage(query: BCQ, instance: BagSetInstance) -> int:
    """Theorem 6.4 φ-route: evaluate the read-once lineage of ``D ∪ Dr``.

    Independent code path used for cross-validation in the tests.
    """
    instance.validate_against(query)
    monoid = BagSetMonoid(instance.budget + 1)
    psi = annotation_psi(instance, monoid)
    full = instance.database.union(instance.repair_database)
    tree = read_once_lineage(query, full)
    profile = evaluate_tree(tree, monoid, psi)
    return profile[instance.budget]


def optimal_repair(
    query: BCQ, instance: BagSetInstance
) -> tuple[int, frozenset[Fact]]:
    """An optimal repair *witness*: the value **and** a fact set achieving it.

    The plain 2-monoid run returns only the optimum value; downstream users
    of a repair system need the repair itself.  We run the same dynamic
    program over the read-once lineage (Lemma 6.3 guarantees disjoint
    supports, so budget splits across subtrees are independent), carrying a
    witness fact-set alongside every vector entry.

    Returns ``(value, added_facts)`` with ``len(added_facts) ≤ θ`` and
    ``Q(D ∪ added_facts) = value``.
    """
    from repro.algebra.provenance import NodeKind, ProvTree

    instance.validate_against(query)
    length = instance.budget + 1
    present = frozenset(instance.database.facts())
    addable = frozenset(instance.addable_facts())
    empty: frozenset[Fact] = frozenset()
    Entry = tuple[int, frozenset]

    def leaf_entries(fact: Fact) -> list[Entry]:
        if fact in present:
            return [(1, empty)] * length
        if fact in addable:
            if length == 1:
                return [(0, empty)]
            return [(0, empty)] + [(1, frozenset({fact}))] * (length - 1)
        return [(0, empty)] * length

    def combine(
        left: list[Entry], right: list[Entry], multiply: bool
    ) -> list[Entry]:
        out: list[Entry] = []
        for i in range(length):
            best: Entry | None = None
            for j in range(i + 1):
                lv, lw = left[j]
                rv, rw = right[i - j]
                value = lv * rv if multiply else lv + rv
                if best is None or value > best[0]:
                    best = (value, lw | rw)
            assert best is not None
            out.append(best)
        return out

    def solve(tree: ProvTree) -> list[Entry]:
        if tree.is_false:
            return [(0, empty)] * length
        if tree.is_true:
            return [(1, empty)] * length
        if tree.kind is NodeKind.LEAF:
            return leaf_entries(tree.symbol)
        entries = solve(tree.children[0])
        multiply = tree.kind is NodeKind.AND
        for child in tree.children[1:]:
            entries = combine(entries, solve(child), multiply)
        return entries

    full = instance.database.union(instance.repair_database)
    lineage = read_once_lineage(query, full)
    value, witness = solve(lineage)[instance.budget]
    return value, witness


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def maximize_brute_force(query: BCQ, instance: BagSetInstance) -> int:
    """Exhaustive search over all repairs of cost ≤ θ (exponential baseline).

    This is also the generic solver for non-hierarchical queries, where no
    polynomial algorithm exists unless P = NP (Theorem 4.4).
    """
    instance.validate_against(query)
    addable = instance.addable_facts()
    best = count_satisfying_assignments(query, instance.database)
    max_size = min(instance.budget, len(addable))
    for size in range(1, max_size + 1):
        for chosen in combinations(addable, size):
            repaired = instance.database.with_facts(chosen)
            best = max(best, count_satisfying_assignments(query, repaired))
    return best


def maximize_greedy(query: BCQ, instance: BagSetInstance) -> int:
    """Greedy baseline: θ rounds of adding the single most valuable fact.

    Not optimal in general — conjunctive structure makes marginal gains
    non-submodular (a fact can be worthless until a partner fact arrives).
    Experiment E5 quantifies the gap against the exact algorithm.
    """
    instance.validate_against(query)
    current = instance.database
    remaining = list(instance.addable_facts())
    for _round in range(instance.budget):
        if not remaining:
            break
        scored = [
            (count_satisfying_assignments(query, current.with_facts([fact])), fact)
            for fact in remaining
        ]
        best_value, best_fact = max(scored, key=lambda pair: (pair[0], repr(pair[1])))
        current = current.with_facts([best_fact])
        remaining.remove(best_fact)
    return count_satisfying_assignments(query, current)
