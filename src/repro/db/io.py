"""Serialization of databases and problem instances to/from JSON.

Used by the examples (so scenarios can ship as data files) and handy for
debugging benchmark workloads.  The format is deliberately simple::

    {"relations": {"R": [[1, 5], [1, 6]], "S": [[1, 1]]}}

Values round-trip as JSON scalars (ints, floats, strings, bools, null).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.db.database import Database
from repro.exceptions import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.problems.possible_worlds import ProbabilisticDatabase


def database_to_dict(database: Database) -> dict[str, Any]:
    """A JSON-serializable representation of *database*."""
    return {
        "relations": {
            relation: sorted(
                (list(values) for values in database.tuples(relation)),
                key=repr,
            )
            for relation in database.relations
        }
    }


def database_from_dict(payload: dict[str, Any]) -> Database:
    """Inverse of :func:`database_to_dict`."""
    if "relations" not in payload:
        raise SchemaError("database payload is missing the 'relations' key")
    relations = payload["relations"]
    if not isinstance(relations, dict):
        raise SchemaError("'relations' must map relation names to tuple lists")
    return Database.from_relations(
        {
            relation: [tuple(values) for values in tuples]
            for relation, tuples in relations.items()
        }
    )


def probabilistic_to_dict(database: "ProbabilisticDatabase") -> dict[str, Any]:
    """JSON form of a tuple-independent probabilistic database::

        {"facts": [{"relation": "R", "values": [1, 5], "probability": 0.5}]}

    Facts are written in the canonical order of
    :meth:`~repro.problems.possible_worlds.ProbabilisticDatabase.facts`.
    Fraction probabilities are written as ``"1/2"`` strings to stay exact.
    """

    def encode(probability):
        if isinstance(probability, Fraction):
            return f"{probability.numerator}/{probability.denominator}"
        return probability

    return {
        "facts": [
            {
                "relation": relation,
                "values": list(values),
                "probability": encode(probability),
            }
            for relation, keys, probabilities in database.relation_columns()
            for values, probability in zip(keys, probabilities)
        ]
    }


def probabilistic_from_dict(payload: dict[str, Any]) -> "ProbabilisticDatabase":
    """Inverse of :func:`probabilistic_to_dict`.

    One validating pass fills per-relation ``{values: probability}`` dicts
    and builds no :class:`~repro.db.fact.Fact`; a later entry for the same
    fact wins.  A malformed entry — a missing key, a non-string relation,
    ``values`` that are not a list of scalars, a probability that is
    neither a number nor a fraction string — raises :class:`SchemaError`
    naming it; a probability outside ``[0, 1]`` raises
    :class:`~repro.exceptions.AlgebraError`.
    """
    from repro.problems.possible_worlds import (
        ProbabilisticDatabase,
        checked_probability,
    )

    if "facts" not in payload or not isinstance(payload["facts"], list):
        raise SchemaError("probabilistic payload needs a 'facts' list")
    relations: dict[str, dict] = {}
    relation = bucket = None
    for entry in payload["facts"]:
        try:
            name = entry["relation"]
            values = entry["values"]
            raw = entry["probability"]
            if isinstance(raw, (float, int)):
                probability = raw
            elif isinstance(raw, str):
                probability = Fraction(raw)
            else:
                raise TypeError(f"probability {raw!r} is not a number")
            if type(name) is not str or type(values) is not list:
                raise TypeError("'relation' must be a string, 'values' a list")
            if name != relation:
                relation = name
                bucket = relations.get(name)
                if bucket is None:
                    bucket = relations[name] = {}
            # Hashing rejects nested lists and objects among the values.
            bucket[tuple(values)] = probability
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as error:
            raise SchemaError(f"malformed fact entry {entry!r}: {error}") from error
        if not 0 <= probability <= 1:
            checked_probability(name, tuple(values), probability)
    return ProbabilisticDatabase._from_checked(relations)


def save_probabilistic(database: "ProbabilisticDatabase", path: str | Path) -> None:
    """Write a probabilistic database to *path* as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(probabilistic_to_dict(database), handle, indent=2)


def load_probabilistic(path: str | Path) -> "ProbabilisticDatabase":
    """Read a probabilistic database written by :func:`save_probabilistic`."""
    with open(path, encoding="utf-8") as handle:
        return probabilistic_from_dict(json.load(handle))


def save_database(database: Database, path: str | Path) -> None:
    """Write *database* to *path* as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(database_to_dict(database), handle, indent=2, sort_keys=True)


def load_database(path: str | Path) -> Database:
    """Read a database previously written by :func:`save_database`."""
    with open(path, encoding="utf-8") as handle:
        return database_from_dict(json.load(handle))
