"""The columnar TID ingest: canonical fact order, column loader, answers.

Property tests over random tuple-independent databases with int and str
values, duplicate keys (the last one wins), probabilities of 0 and 1e-13
(one a ⊕-identity of the probability monoid, one inside its tolerance),
``Fraction`` probabilities, and relation names containing an apostrophe
(``repr`` quotes those with ``"``, so they sort first):

* both database classes keep their historical fact order — the TID's
  ``sorted(facts, key=repr)``, the set database's name-then-repr;
* the column loader fed by :meth:`ProbabilisticDatabase.relation_columns`
  builds exactly what :meth:`KDatabase.annotate` builds from the facts:
  support dicts, interned codes and annotation arrays;
* session ``pqe``/``expected_count`` answers equal the fact path's with
  ``==`` in the array, batched and scalar modes, and with numpy blocked.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels_module
from repro.core.algorithm import compile_for_database, execute_plan
from repro.core.kernels import array_kernel_for, numpy_or_none
from repro.db.annotated import KDatabase, _ValueInterner
from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.io import probabilistic_from_dict
from repro.engine import Engine
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.query.parser import parse_query

QUERY = parse_query("Q() :- R'(A, B), R(A, C), S(A, C, D)")
ARITY = {atom.relation: atom.arity for atom in QUERY.atoms}

VALUES = st.one_of(
    st.integers(-2, 6), st.text(alphabet="ab'\"\\(), ", max_size=3)
)
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
    st.floats(0, 1, allow_nan=False),
    st.fractions(0, 1, max_denominator=12),
)
FAMILIES = (("pqe", "probability"), ("expected_count", "expectation"))


@st.composite
def tid_entries(draw, arities=ARITY):
    """``(relation, values, probability)`` triples, some keys repeated."""
    relations = sorted(arities)
    entries = []
    for _ in range(draw(st.integers(0, 24))):
        relation = draw(st.sampled_from(relations))
        arity = arities[relation]
        values = tuple(draw(st.lists(VALUES, min_size=arity, max_size=arity)))
        entries.append((relation, values, draw(PROBABILITIES)))
    for _ in range(draw(st.integers(0, 3))):
        if entries:
            relation, values, _ = draw(st.sampled_from(entries))
            entries.append((relation, values, draw(PROBABILITIES)))
    return entries


def _mapping(entries) -> dict:
    return {Fact(relation, values): p for relation, values, p in entries}


def _payload(entries) -> dict:
    def encode(p):
        return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p

    return {"facts": [
        {"relation": relation, "values": list(values), "probability": encode(p)}
        for relation, values, p in entries
    ]}


EXAMPLES = settings(max_examples=40, deadline=None)


# ----------------------------------------------------------------------
# (a) Canonical fact order
# ----------------------------------------------------------------------
@EXAMPLES
@given(tid_entries(arities={"R'": 2, "R": 1, "S''": 3, "R_1": 2, "S": 2}))
def test_tid_order_is_sorted_by_repr(entries):
    mapping = _mapping(entries)
    pdb = ProbabilisticDatabase(mapping)
    assert pdb.facts() == tuple(sorted(mapping, key=repr))
    assert pdb.facts() is pdb.facts()  # computed once, then cached
    assert [
        (Fact(relation, values), p)
        for relation, keys, probabilities in pdb.relation_columns()
        for values, p in zip(keys, probabilities)
    ] == [(fact, mapping[fact]) for fact in pdb.facts()]
    decoded = probabilistic_from_dict(_payload(entries))
    assert decoded.facts() == pdb.facts()
    assert decoded.relation_columns() == pdb.relation_columns()


@EXAMPLES
@given(tid_entries(arities={"R'": 2, "R": 1, "S''": 3, "R_1": 2, "S": 2}))
def test_database_order_is_name_then_repr(entries):
    facts = [Fact(relation, values) for relation, values, _ in entries]
    relations: dict = {}
    for fact in facts:
        relations.setdefault(fact.relation, set()).add(fact.values)
    expected = [
        Fact(relation, values)
        for relation in sorted(relations)
        for values in sorted(relations[relation], key=repr)
    ]
    database = Database(facts)
    assert list(database.facts()) == expected
    assert list(database.facts()) == expected
    assert list(Database.from_relations(relations).facts()) == expected


# ----------------------------------------------------------------------
# (b) The column loader against the fact path
# ----------------------------------------------------------------------
def _views(annotated: KDatabase, kernel) -> list:
    return [
        annotated.columnar_relation(atom.relation, kernel)
        for atom in QUERY.atoms
    ]


@pytest.mark.skipif(numpy_or_none() is None, reason="columnar tier needs numpy")
@EXAMPLES
@given(tid_entries())
def test_column_loader_matches_fact_annotation(entries):
    pdb = ProbabilisticDatabase(_mapping(entries))
    engine = Engine()
    for _family, name in FAMILIES:
        monoid = engine.create_monoid(name, exact=False)
        by_columns = KDatabase(QUERY, monoid)
        by_columns.load_columns(
            pdb.relation_columns(), monoid.validate, columnar=True
        )
        by_facts = KDatabase.annotate(
            QUERY, monoid, pdb.facts(), pdb.probability, columnar=True
        )
        scalar = KDatabase.annotate(QUERY, monoid, pdb.facts(), pdb.probability)
        for atom in QUERY.atoms:
            supports = [
                list(annotated.relation(atom.relation).items())
                for annotated in (by_columns, by_facts, scalar)
            ]
            assert supports[0] == supports[1] == supports[2]
        # Both loaders seeded every non-empty relation, in the same order.
        assert by_columns.columnar_cache_info() == by_facts.columnar_cache_info()
        kernel = array_kernel_for(monoid)
        np = kernel.np
        for mine, theirs in zip(_views(by_columns, kernel), _views(by_facts, kernel)):
            assert np.array_equal(mine.annotations, theirs.annotations)
            assert len(mine.columns) == len(theirs.columns)
            for left, right in zip(mine.columns, theirs.columns):
                assert np.array_equal(left, right)
        assert by_columns._interner._values == by_facts._interner._values


@pytest.mark.skipif(numpy_or_none() is None, reason="columnar tier needs numpy")
@EXAMPLES
@given(st.lists(
    st.lists(st.one_of(VALUES, st.sampled_from([1, 1.0, True, 0, False])),
             max_size=12),
    max_size=4,
))
def test_interner_assigns_codes_in_first_seen_order(columns):
    interner = _ValueInterner()
    reference: dict = {}
    for column in columns:
        codes = interner.encode_column(numpy_or_none(), tuple(column))
        expected = []
        for value in column:
            if value not in reference:
                reference[value] = len(reference)
            expected.append(reference[value])
        assert codes.tolist() == expected
    decoded = [interner.decode(code) for code in range(len(interner))]
    assert [(type(value), value) for value in decoded] == [
        (type(value), value) for value in reference
    ]


def _fact_path_answer(pdb, name, exact, mode):
    """The answer of the per-fact annotation path, without a session."""
    engine = Engine(kernel_mode=mode)
    source = pdb.as_exact() if exact else pdb
    monoid = engine.create_monoid(name, exact=exact)
    annotated = KDatabase.annotate(
        QUERY, monoid, source.facts(),
        lambda fact: monoid.validate(source.probability(fact)),
        columnar=mode in ("auto", "array"),
    )
    plan = compile_for_database(QUERY, annotated, engine.policy)
    return execute_plan(plan, annotated, kernel_mode=mode).result


def _assert_answers_match(entries, mode):
    pdb = ProbabilisticDatabase(_mapping(entries))
    session = Engine(kernel_mode=mode).open(QUERY, probabilistic=pdb)
    for family, name in FAMILIES:
        for exact in (False, True):
            expected = _fact_path_answer(pdb, name, exact, mode)
            assert getattr(session, family)(exact=exact) == expected


@pytest.mark.parametrize("mode", ["array", "batched", "scalar"])
@EXAMPLES
@given(entries=tid_entries())
def test_session_answers_match_fact_path(mode, entries):
    _assert_answers_match(entries, mode)


@contextmanager
def _numpy_blocked():
    """Block the numpy import for the body only (hypothesis itself probes
    numpy while generating examples)."""
    saved = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    kernels_module._reset_numpy_probe()
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved
        kernels_module._reset_numpy_probe()


@EXAMPLES
@given(entries=tid_entries())
def test_session_answers_match_fact_path_without_numpy(entries):
    with _numpy_blocked():
        assert array_kernel_for(Engine().create_monoid("probability")) is None
        _assert_answers_match(entries, "auto")
