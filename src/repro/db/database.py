"""Set database instances: finite sets of facts grouped per relation.

This is the paper's input model: a database instance over a schema is a *set*
of facts (no duplicates — bag semantics appears only in query *outputs*).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Mapping

from repro.db.fact import Fact, Value
from repro.db.schema import Schema
from repro.exceptions import SchemaError

#: Serializes first-use computations of the database classes' caches.
_ONCE_LOCK = threading.RLock()


def compute_once(owner: object, attribute: str, build: Callable[[], object]):
    """``owner.<attribute>``, set to ``build()`` on first use.

    The attribute starts as ``None``.  Double-checked under one lock, so
    concurrent first calls still build the value exactly once.
    """
    value = getattr(owner, attribute)
    if value is None:
        with _ONCE_LOCK:
            value = getattr(owner, attribute)
            if value is None:
                value = build()
                setattr(owner, attribute, value)
    return value


def canonical_order(
    relations: Mapping[str, Iterable[tuple[Value, ...]]],
    relation_key: Callable[[str], object] | None = None,
) -> tuple[tuple[str, list[tuple[Value, ...]]], ...]:
    """The canonical fact order: ``(relation, sorted value tuples)`` pairs.

    Relations are ordered by *relation_key* (their names by default) and
    each relation's tuples by ``repr``; ``sorted`` is stable, so tuples with
    equal reprs keep their iteration order.  :class:`Database` orders
    relations by name.  The tuple-independent database passes
    ``relation_key=repr``, which reproduces ``sorted(facts, key=repr)``
    exactly: a fact's repr is ``Fact(relation=<repr(name)>,
    values=<repr(values)>)``, and no repr of a string or of a tuple of
    scalars is a proper prefix of another, so the relation reprs decide
    first and the value reprs second.  That order puts a name containing
    an apostrophe (repr-quoted with ``"``) before the plainly quoted ones.
    """
    return tuple(
        (relation, sorted(relations[relation], key=repr))
        for relation in sorted(relations, key=relation_key)
    )


class Database:
    """An immutable set of facts, indexed per relation.

    Construction accepts facts or a mapping ``relation -> iterable of value
    tuples`` (see :meth:`from_relations`).  The canonical fact order
    (:func:`canonical_order`) is computed on first use and cached, so
    repeated :meth:`facts` calls return the same :class:`Fact` objects.
    """

    def __init__(self, facts: Iterable[Fact] = (), schema: Schema | None = None):
        relations: dict[str, set[tuple[Value, ...]]] = {}
        for fact in facts:
            bucket = relations.get(fact.relation)
            if bucket is None:
                relations[fact.relation] = {fact.values}
            else:
                bucket.add(fact.values)
        self._init(relations, schema)

    def _init(
        self, relations: dict[str, set[tuple[Value, ...]]], schema: Schema | None
    ) -> None:
        self._relations = relations
        self._size = sum(len(bucket) for bucket in relations.values())
        self._facts: tuple[Fact, ...] | None = None
        self._schema = schema
        if schema is not None:
            schema.validate_facts(self.facts())
            for relation in schema:
                self._relations.setdefault(relation, set())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_relations(
        cls,
        relations: Mapping[str, Iterable[tuple[Value, ...] | list[Value]]],
        schema: Schema | None = None,
    ) -> "Database":
        """Build a database from ``{"R": [(1, 5), ...], "S": [...]}``."""
        buckets = {}
        for relation, tuples in relations.items():
            bucket = set(map(tuple, tuples))
            if bucket:
                buckets[relation] = bucket
        database = cls.__new__(cls)
        database._init(buckets, schema)
        return database

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def relations(self) -> tuple[str, ...]:
        """The relation symbols with at least one declared bucket."""
        return tuple(sorted(self._relations))

    def tuples(self, relation: str) -> frozenset[tuple[Value, ...]]:
        """The set of value tuples stored for *relation* (empty if unknown)."""
        return frozenset(self._relations.get(relation, ()))

    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts in the canonical order (name, then repr)."""
        return iter(compute_once(self, "_facts", lambda: tuple(
            Fact(relation, values)
            for relation, tuples in canonical_order(self._relations)
            for values in tuples
        )))

    def active_domain(self) -> frozenset[Value]:
        """All values occurring anywhere in the database."""
        return frozenset(
            value
            for tuples in self._relations.values()
            for values in tuples
            for value in values
        )

    def __contains__(self, fact: Fact) -> bool:
        return fact.values in self._relations.get(fact.relation, ())

    def __len__(self) -> int:
        """``|D|``: the number of facts."""
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return frozenset(self.facts()) == frozenset(other.facts())

    def __hash__(self) -> int:
        return hash(frozenset(self.facts()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{relation}:{len(self._relations[relation])}"
            for relation in sorted(self._relations)
        )
        return f"Database({parts})"

    # ------------------------------------------------------------------
    # Set-algebraic operations (all return new databases)
    # ------------------------------------------------------------------
    def with_facts(self, extra: Iterable[Fact]) -> "Database":
        """Return this database with *extra* facts added (set union)."""
        return Database([*self.facts(), *extra])

    def without_facts(self, removed: Iterable[Fact]) -> "Database":
        """Return this database with the given facts removed."""
        removed_set = set(removed)
        return Database(fact for fact in self.facts() if fact not in removed_set)

    def union(self, other: "Database") -> "Database":
        return self.with_facts(other.facts())

    def difference(self, other: "Database") -> "Database":
        return self.without_facts(other.facts())

    def restrict(self, relations: Iterable[str]) -> "Database":
        """Keep only the facts of the given relation symbols."""
        keep = set(relations)
        return Database(fact for fact in self.facts() if fact.relation in keep)

    def validate_against(self, query) -> None:
        """Raise :class:`SchemaError` unless all facts fit the query's schema."""
        schema = Schema.of_query(query)
        for fact in self.facts():
            schema.validate_fact(fact)


def repair_cost(original: Database, repaired: Database) -> int:
    """``cost(D, D')``: the number of facts added by the repair (Def. 4.1).

    Raises :class:`SchemaError` if *repaired* is not a superset of *original*
    (repairs only add facts).
    """
    original_facts = frozenset(original.facts())
    repaired_facts = frozenset(repaired.facts())
    if not original_facts <= repaired_facts:
        raise SchemaError("a repair must contain every fact of the original database")
    return len(repaired_facts - original_facts)
