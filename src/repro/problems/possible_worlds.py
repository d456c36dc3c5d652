"""Tuple-independent probabilistic databases and their possible worlds.

A tuple-independent probabilistic database (TID) assigns each fact an
independent probability of being present.  A *possible world* is a subset of
the facts; its probability is the product of the chosen facts' probabilities
and the complements of the omitted ones.  Enumeration is exponential and
exists purely as the brute-force baseline for experiment E3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from repro.db.database import Database, canonical_order, compute_once
from repro.db.fact import Fact, Value
from repro.exceptions import AlgebraError

Probability = float | Fraction

#: One relation of a TID in canonical order: ``(relation, value tuples,
#: probabilities)``, the two sequences aligned.
RelationColumns = tuple[str, tuple[tuple[Value, ...], ...], tuple[Probability, ...]]


def checked_probability(
    relation: str, values: tuple[Value, ...], probability: Probability
) -> Probability:
    """*probability* itself, or :class:`AlgebraError` outside ``[0, 1]``."""
    if not 0 <= probability <= 1:
        raise AlgebraError(
            f"fact {Fact(relation, values)} has invalid probability "
            f"{probability!r}"
        )
    return probability


class ProbabilisticDatabase:
    """A tuple-independent probabilistic database.

    Stored per relation as ``{value tuple: probability}`` dicts, the way
    :class:`~repro.db.database.Database` stores per-relation sets, and
    immutable after construction.  The canonical fact order — the order of
    ``sorted(facts, key=repr)`` — is computed once, on first use, and
    shared by :meth:`facts` and :meth:`relation_columns`.

    Parameters
    ----------
    probabilities:
        Mapping from facts to their (independent) marginal probabilities.
    """

    def __init__(self, probabilities: Mapping[Fact, Probability]):
        relations: dict[str, dict[tuple[Value, ...], Probability]] = {}
        for fact, probability in probabilities.items():
            bucket = relations.get(fact.relation)
            if bucket is None:
                bucket = relations[fact.relation] = {}
            bucket[fact.values] = checked_probability(
                fact.relation, fact.values, probability
            )
        self._init(relations)

    def _init(
        self, relations: dict[str, dict[tuple[Value, ...], Probability]]
    ) -> None:
        self._relations = relations
        self._columns: tuple[RelationColumns, ...] | None = None
        self._facts: tuple[Fact, ...] | None = None

    @classmethod
    def _from_checked(
        cls, relations: dict[str, dict[tuple[Value, ...], Probability]]
    ) -> "ProbabilisticDatabase":
        """Adopt per-relation dicts whose probabilities were already checked
        (the JSON decoder's path: no :class:`Fact` objects are built)."""
        database = cls.__new__(cls)
        database._init(relations)
        return database

    @classmethod
    def uniform(cls, facts: Iterable[Fact], probability: Probability) -> "ProbabilisticDatabase":
        """All facts share one probability (common benchmark workload)."""
        return cls({fact: probability for fact in facts})

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def probability(self, fact: Fact) -> Probability:
        """Marginal probability of *fact* (0 for unknown facts)."""
        bucket = self._relations.get(fact.relation)
        return 0 if bucket is None else bucket.get(fact.values, 0)

    def relation_columns(self) -> tuple[RelationColumns, ...]:
        """Every relation's ``(name, value tuples, probabilities)`` columns.

        Relations and tuples come in the canonical fact order, so chaining
        the columns replays :meth:`facts` with no :class:`Fact` objects —
        the ψ-annotation input of the session's ``pqe``/``expected_count``
        build (:meth:`repro.db.annotated.KDatabase.load_columns`).
        """
        return compute_once(self, "_columns", lambda: tuple(
            (
                relation,
                tuple(keys),
                tuple(map(self._relations[relation].__getitem__, keys)),
            )
            for relation, keys in canonical_order(
                self._relations, relation_key=repr
            )
        ))

    def facts(self) -> tuple[Fact, ...]:
        """All facts in the canonical order, ``sorted(facts, key=repr)``."""
        return compute_once(self, "_facts", lambda: tuple(
            Fact(relation, values)
            for relation, keys, _probabilities in self.relation_columns()
            for values in keys
        ))

    def support_database(self) -> Database:
        """The deterministic database containing every possible fact."""
        return Database.from_relations(self._relations)

    def as_exact(self) -> "ProbabilisticDatabase":
        """Convert all probabilities to :class:`fractions.Fraction`."""
        return ProbabilisticDatabase._from_checked(
            {
                relation: {
                    values: probability
                    if isinstance(probability, Fraction)
                    else Fraction(probability).limit_denominator(10**12)
                    for values, probability in bucket.items()
                }
                for relation, bucket in self._relations.items()
            }
        )

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._relations.values())

    # ------------------------------------------------------------------
    # Possible worlds (exponential; baseline only)
    # ------------------------------------------------------------------
    def possible_worlds(self) -> Iterator[tuple[Database, Probability]]:
        """Enumerate all ``2^n`` worlds with their probabilities."""
        facts = self.facts()

        def worlds(
            index: int, chosen: list[Fact], probability: Probability
        ) -> Iterator[tuple[Database, Probability]]:
            if index == len(facts):
                yield Database(chosen), probability
                return
            fact = facts[index]
            p = self.probability(fact)
            if p != 0:
                chosen.append(fact)
                yield from worlds(index + 1, chosen, probability * p)
                chosen.pop()
            complement = 1 - p
            if complement != 0:
                yield from worlds(index + 1, chosen, probability * complement)

        one: Probability = (
            Fraction(1)
            if any(
                isinstance(p, Fraction)
                for bucket in self._relations.values()
                for p in bucket.values()
            )
            else 1.0
        )
        yield from worlds(0, [], one)
