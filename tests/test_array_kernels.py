"""Array tier ≡ batched kernels ≡ scalar, and the optional-numpy policy.

Four layers of checks:

* **End-to-end tier equivalence** on randomized annotated databases for
  every flat-carrier monoid: ``execute_plan`` under ``kernel_mode`` scalar /
  batched / array must agree — bit-identically for int/bool(/int-valued
  float) carriers, within the bench tolerance (1e-9) for genuine floats —
  including empty relations and single-tuple supports.
* **Columnar relation ops** against the scalar dict layout: ``project_out``,
  ``merge`` (reordered variable orders, annihilating-zero products) and
  ``absorb``, over mixed int/str domain values (the interner is type-blind),
  plus the **non-annihilating union merge** via a custom flat 2-monoid with
  a test-registered array kernel.
* **Tier selection**: exact carriers (Fraction probability/real, Shapley,
  bag-set, instrumentation wrappers) must resolve to no array kernel; the
  counting tier must fall back to the batched engine when annotations
  exceed int64; cached columnar views must be invalidated by mutation.
* **numpy optionality**: with the import blocked (``sys.modules``
  monkeypatch, plus a subprocess leg that blocks it for a whole pytest
  subset), every ``kernel_mode`` — including ``"array"`` — keeps producing
  correct answers through the batched fallback.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.algebra.base import TwoMonoid
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
from repro.core import kernels as kernels_module
from repro.core.algorithm import execute_plan
from repro.core.instrument import CountingMonoid
from repro.core.kernels import (
    ArrayKernel,
    array_kernel_for,
    numpy_or_none,
    register_array_kernel,
    scalar_kernels,
)
from repro.core.plan import compile_plan
from repro.db.annotated import (
    ColumnarKRelation,
    KDatabase,
    KRelation,
    _ValueInterner,
)
from repro.exceptions import ReproError
from repro.query.atoms import make_atom
from repro.query.families import q_eq1, star_query

numpy = numpy_or_none()
requires_numpy = pytest.mark.skipif(numpy is None, reason="numpy not installed")

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Samplers for every flat-carrier monoid (exact ⇒ tiers must be identical)
# ----------------------------------------------------------------------
def _flat_samplers():
    """(monoid, annotation sampler, exact) for every array-tier carrier."""
    return [
        (
            ProbabilityMonoid(),
            lambda rng: rng.choice([0.25, 0.5, 1.0, rng.random()]),
            False,
        ),
        (CountingSemiring(), lambda rng: rng.randrange(1, 6), True),
        (RealSemiring(), lambda rng: rng.choice([1.0, rng.random() * 3]), False),
        (BooleanSemiring(), lambda rng: rng.random() < 0.8, True),
        (
            MinPlusSemiring(),
            lambda rng: rng.choice([0, 1, rng.randrange(0, 9)]),
            True,
        ),
        (MaxTimesSemiring(), lambda rng: rng.randrange(1, 6), True),
        (
            MaxPlusSemiring(),
            lambda rng: rng.choice([0, rng.randrange(0, 9)]),
            True,
        ),
        (
            ResilienceMonoid(),
            lambda rng: rng.choice([math.inf, 1, rng.randrange(1, 5)]),
            True,
        ),
    ]


def _results_agree(left, right, exact: bool) -> bool:
    if exact:
        return left == right
    if isinstance(left, float) and isinstance(right, float):
        return left == right or abs(left - right) <= 1e-9
    return left == right


def _random_annotated(query, monoid, sampler, rng, tuples=40, domain=6):
    annotated = KDatabase(query, monoid)
    for relation in annotated.relations():
        for _ in range(tuples):
            values = tuple(
                rng.randrange(0, domain) for _ in range(relation.atom.arity)
            )
            relation.set(values, sampler(rng))
    return annotated


def _run_all_tiers(query, annotated):
    plan = compile_plan(query)
    return {
        mode: execute_plan(plan, annotated, kernel_mode=mode).result
        for mode in ("scalar", "batched", "array")
    }


# ----------------------------------------------------------------------
# End-to-end: scalar ≡ batched ≡ array on every flat monoid
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize(
    "monoid,sampler,exact",
    _flat_samplers(),
    ids=lambda value: getattr(value, "name", None),
)
class TestTierEquivalenceEndToEnd:
    def test_randomized_databases(self, monoid, sampler, exact):
        rng = random.Random(hash(monoid.name) & 0xFFFF)
        for query in (q_eq1(), star_query(2)):
            for trial in range(4):
                annotated = _random_annotated(query, monoid, sampler, rng)
                results = _run_all_tiers(query, annotated)
                for mode, value in results.items():
                    assert _results_agree(
                        results["scalar"], value, exact
                    ), (monoid.name, mode, results)

    def test_empty_and_singleton_relations(self, monoid, sampler, exact):
        rng = random.Random(7)
        query = q_eq1()
        # One relation empty: the answer is the ⊕-identity in every tier.
        annotated = _random_annotated(query, monoid, sampler, rng)
        empty_name = query.atoms[0].relation
        annotated._relations[empty_name] = KRelation(
            query.atoms[0], monoid
        )
        results = _run_all_tiers(query, annotated)
        assert all(
            _results_agree(results["scalar"], value, exact)
            for value in results.values()
        )
        # Single-tuple supports everywhere.
        tiny = _random_annotated(query, monoid, sampler, rng, tuples=1, domain=1)
        results = _run_all_tiers(query, tiny)
        assert all(
            _results_agree(results["scalar"], value, exact)
            for value in results.values()
        )

    def test_array_result_is_native_python_scalar(self, monoid, sampler, exact):
        rng = random.Random(3)
        annotated = _random_annotated(q_eq1(), monoid, sampler, rng)
        plan = compile_plan(q_eq1())
        array_result = execute_plan(
            plan, annotated, kernel_mode="array"
        ).result
        scalar_result = execute_plan(
            plan, annotated, kernel_mode="scalar"
        ).result
        # Native Python carrier scalars, never numpy types.  (The extended
        # int/∞ carriers may legitimately come back 24.0 vs 24 — their
        # declared carrier is float — so exact *type* identity is only
        # required where the scalar tier's type is the declared one.)
        assert not isinstance(array_result, (numpy.generic, numpy.ndarray))
        assert _results_agree(scalar_result, array_result, exact)
        if type(scalar_result) in (bool, int) and not isinstance(
            scalar_result, bool
        ) and isinstance(monoid, (CountingSemiring, MaxTimesSemiring)):
            assert type(array_result) is int
        if isinstance(monoid, BooleanSemiring):
            assert type(array_result) is bool


# ----------------------------------------------------------------------
# Columnar relation operations vs the scalar dict layout
# ----------------------------------------------------------------------
def _columnar_pair(first: KRelation, second: KRelation | None = None):
    from repro.db.annotated import columnar_relation_class

    kernel = array_kernel_for(first.monoid)
    assert kernel is not None
    cls = columnar_relation_class(kernel)
    interner = _ValueInterner()
    left = cls.from_relation(first, kernel, interner)
    if second is None:
        return left
    return left, cls.from_relation(second, kernel, interner)


def _assert_same_relation(monoid, columnar: ColumnarKRelation, expected, exact):
    decoded = columnar.to_krelation()
    assert decoded.support() == expected.support()
    for values, annotation in decoded.items():
        assert _results_agree(
            annotation, expected.annotation(values), exact
        ), (monoid.name, values)


def _mixed_key_relation(atom, monoid, sampler, rng, tuples=25):
    """Random relation over a *mixed* int/str domain (interner generality)."""
    relation = KRelation(atom, monoid)
    domain = [0, 1, 2, "a", "b", ("nested", 1)]
    for _ in range(tuples):
        values = tuple(rng.choice(domain) for _ in range(atom.arity))
        relation.set(values, sampler(rng))
    return relation


@requires_numpy
@pytest.mark.parametrize(
    "monoid,sampler,exact",
    _flat_samplers(),
    ids=lambda value: getattr(value, "name", None),
)
class TestColumnarRelationOps:
    def test_project_out(self, monoid, sampler, exact):
        rng = random.Random(11)
        atom = make_atom("R", ("X", "Y"))
        target = make_atom("R'", ("X",))
        for trial in range(4):
            relation = _mixed_key_relation(atom, monoid, sampler, rng)
            with scalar_kernels():
                expected = relation.project_out("Y", target)
            columnar = _columnar_pair(relation)
            _assert_same_relation(
                monoid, columnar.project_out("Y", target), expected, exact
            )

    def test_merge_with_reordered_variables(self, monoid, sampler, exact):
        rng = random.Random(13)
        first_atom = make_atom("R", ("X", "Y"))
        second_atom = make_atom("S", ("Y", "X"))
        target = make_atom("R'", ("X", "Y"))
        for trial in range(4):
            first = _mixed_key_relation(first_atom, monoid, sampler, rng)
            second = _mixed_key_relation(second_atom, monoid, sampler, rng)
            with scalar_kernels():
                expected = first.merge(second, target)
            left, right = _columnar_pair(first, second)
            _assert_same_relation(
                monoid, left.merge(right, target), expected, exact
            )

    def test_merge_empty_side(self, monoid, sampler, exact):
        rng = random.Random(17)
        first_atom = make_atom("R", ("X",))
        second_atom = make_atom("S", ("X",))
        target = make_atom("R'", ("X",))
        first = _mixed_key_relation(first_atom, monoid, sampler, rng)
        second = KRelation(second_atom, monoid)
        with scalar_kernels():
            expected = first.merge(second, target)
        left, right = _columnar_pair(first, second)
        _assert_same_relation(
            monoid, left.merge(right, target), expected, exact
        )


@requires_numpy
class TestColumnarSpecials:
    def test_absorb_matches_scalar(self):
        monoid = CountingSemiring()
        rng = random.Random(19)
        big_atom = make_atom("R", ("X", "Y"))
        small_atom = make_atom("S", ("X",))
        target = make_atom("R'", ("X", "Y"))
        sampler = lambda r: r.randrange(1, 5)
        big = _mixed_key_relation(big_atom, monoid, sampler, rng)
        small = _mixed_key_relation(small_atom, monoid, sampler, rng)
        with scalar_kernels():
            expected = big.absorb(small, target)
        left, right = _columnar_pair(big, small)
        _assert_same_relation(
            monoid, left.absorb(right, target), expected, True
        )

    def test_merge_drops_tolerance_zero_products(self):
        """An annotation group that ⊗-collapses below the ⊕-identity
        tolerance must vanish from the support in both layouts."""
        monoid = ProbabilityMonoid()
        atom_r = make_atom("R", ("X",))
        atom_s = make_atom("S", ("X",))
        target = make_atom("R'", ("X",))
        first = KRelation(atom_r, monoid, {(1,): 1e-7, (2,): 0.5})
        second = KRelation(atom_s, monoid, {(1,): 1e-7, (2,): 0.5})
        with scalar_kernels():
            expected = first.merge(second, target)
        assert expected.support() == frozenset({(2,)})  # 1e-14 ≤ tol dropped
        left, right = _columnar_pair(first, second)
        _assert_same_relation(
            monoid, left.merge(right, target), expected, False
        )

    def test_grouped_evaluation_decodes_to_krelation(self):
        from repro.core.grouped import evaluate_grouped
        from repro.db.fact import Fact

        query = star_query(2)
        free = [query.atoms[0].variables[0]]
        facts = [
            Fact(atom.relation, (x, y))
            for atom in query.atoms
            for x in range(4)
            for y in range(3)
        ]
        monoid = CountingSemiring()
        array_answer = evaluate_grouped(
            query, free, monoid, facts, lambda f: 1, kernel_mode="array"
        )
        scalar_answer = evaluate_grouped(
            query, free, monoid, facts, lambda f: 1, kernel_mode="scalar"
        )
        assert isinstance(array_answer, KRelation)
        assert array_answer.support() == scalar_answer.support()
        for values, annotation in array_answer.items():
            assert annotation == scalar_answer.annotation(values)


# ----------------------------------------------------------------------
# Non-annihilating union merge on a flat carrier (custom 2-monoid)
# ----------------------------------------------------------------------
class MaxPlusTwoMonoid(TwoMonoid[float]):
    """``(R≥0, ⊕=max, ⊗=+)`` with 0 as both identities.

    ``0 ⊗ 0 = 0`` holds but ``a ⊗ 0 = a ≠ 0``, so this flat-carrier
    structure does **not** annihilate: Rule 2 must walk the support union,
    which is exactly the columnar code path the bundled flat monoids (all
    annihilating) never reach.
    """

    name = "max-plus 2-monoid (non-annihilating)"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 0.0

    def add(self, left: float, right: float) -> float:
        return max(left, right)

    def mul(self, left: float, right: float) -> float:
        return left + right


class _MaxPlusTwoMonoidArrayKernel(ArrayKernel):
    def __init__(self, monoid, np):
        super().__init__(monoid, np)
        self.dtype = np.float64

    def fold_groups(self, annotations, starts):
        return self.np.maximum.reduceat(annotations, starts)

    def mul_arrays(self, lefts, rights):
        return lefts + rights


register_array_kernel(MaxPlusTwoMonoid, _MaxPlusTwoMonoidArrayKernel)


@requires_numpy
class TestNonAnnihilatingUnionMerge:
    def test_one_sided_tuples_survive(self):
        monoid = MaxPlusTwoMonoid()
        left_rel = KRelation(
            make_atom("R", ("X",)), monoid, {(1,): 3.0, (2,): 5.0}
        )
        right_rel = KRelation(
            make_atom("S", ("X",)), monoid, {(2,): 7.0, (3,): 2.0}
        )
        target = make_atom("R'", ("X",))
        with scalar_kernels():
            expected = left_rel.merge(right_rel, target)
        assert expected.support() == frozenset({(1,), (2,), (3,)})
        left, right = _columnar_pair(left_rel, right_rel)
        merged = left.merge(right, target)
        _assert_same_relation(monoid, merged, expected, True)
        assert merged.to_krelation().annotation((2,)) == 12.0

    def test_randomized_union_merges(self):
        monoid = MaxPlusTwoMonoid()
        sampler = lambda rng: float(rng.randrange(1, 9))
        rng = random.Random(23)
        first_atom = make_atom("R", ("X", "Y"))
        second_atom = make_atom("S", ("Y", "X"))
        target = make_atom("R'", ("X", "Y"))
        for trial in range(6):
            first = _mixed_key_relation(first_atom, monoid, sampler, rng)
            second = _mixed_key_relation(second_atom, monoid, sampler, rng)
            with scalar_kernels():
                expected = first.merge(second, target)
            left, right = _columnar_pair(first, second)
            _assert_same_relation(
                monoid, left.merge(right, target), expected, True
            )

    def test_end_to_end_tiers_agree(self):
        monoid = MaxPlusTwoMonoid()
        sampler = lambda rng: float(rng.randrange(1, 9))
        rng = random.Random(29)
        for trial in range(3):
            annotated = _random_annotated(
                q_eq1(), monoid, sampler, rng, tuples=30
            )
            results = _run_all_tiers(q_eq1(), annotated)
            assert results["scalar"] == results["batched"] == results["array"]


# ----------------------------------------------------------------------
# Tier selection, fallback and cache invalidation
# ----------------------------------------------------------------------
class TestTierSelection:
    @requires_numpy
    def test_flat_monoids_get_array_kernels(self):
        for monoid, _sampler, _exact in _flat_samplers():
            assert array_kernel_for(monoid) is not None, monoid.name

    @requires_numpy
    def test_exact_carriers_fall_back(self):
        for monoid in (
            ExactProbabilityMonoid(),
            RealSemiring(exact=True),
            CountingMonoid(CountingSemiring()),
        ):
            assert array_kernel_for(monoid) is None, monoid.name

    @requires_numpy
    def test_vector_carriers_get_packed_kernels(self):
        """The bag-set/Shapley monoids run the packed columnar tier (their
        kernels advertise packed rows so the db layer builds
        PackedColumnarKRelation views); instrumentation wrappers still
        decline."""
        from repro.core.kernels import VectorArrayKernel

        for monoid in (ShapleyMonoid(4), BagSetMonoid(4)):
            kernel = array_kernel_for(monoid)
            assert isinstance(kernel, VectorArrayKernel), monoid.name
            assert kernel.packed_rows
        assert array_kernel_for(CountingMonoid(ShapleyMonoid(4))) is None

    @requires_numpy
    def test_scalar_kernels_block_disables_array_tier(self):
        monoid = ProbabilityMonoid()
        assert array_kernel_for(monoid) is not None
        with scalar_kernels():
            assert array_kernel_for(monoid) is None

    def test_invalid_kernel_mode_raises(self):
        query = q_eq1()
        annotated = KDatabase(query, CountingSemiring())
        plan = compile_plan(query)
        with pytest.raises(ReproError, match="kernel mode"):
            execute_plan(plan, annotated, kernel_mode="simd")

    @requires_numpy
    def test_unbounded_int_carriers_stay_exact_on_array_tier(self):
        """Counting/(max,×) columns are object-dtype: values beyond int64
        must neither raise nor silently wrap (the int64 wraparound would
        corrupt answers under the default auto mode with no exception)."""
        for monoid in (CountingSemiring(), MaxTimesSemiring()):
            query = q_eq1()
            annotated = KDatabase(query, monoid)
            for relation in annotated.relations():
                relation.set(
                    tuple(1 for _ in range(relation.atom.arity)), 2**80
                )
            results = _run_all_tiers(query, annotated)
            assert (
                results["scalar"] == results["batched"] == results["array"]
            ), monoid.name
            assert results["array"] == 2**240  # exact big-int product

    @requires_numpy
    def test_products_beyond_int64_agree_across_tiers(self):
        """The reviewer scenario: annotations fit int64 but *products*
        don't — star join of 2^40-annotated tuples must not wrap to 0."""
        query = star_query(2)
        monoid = CountingSemiring()
        annotated = KDatabase(query, monoid)
        for relation in annotated.relations():
            for y in range(3):
                relation.set((1, y), 2**40)
        results = _run_all_tiers(query, annotated)
        assert results["scalar"] == results["batched"] == results["array"]
        assert results["array"] == (3 * 2**40) ** 2

    @requires_numpy
    def test_overflow_error_falls_back_and_is_memoized(self):
        """A kernel whose packing genuinely overflows (fixed int64 dtype)
        must fall back to the batched tier — and the failed materialization
        must not be re-attempted until the database mutates."""

        class Int64Counting(CountingSemiring):
            pass

        class _Int64Kernel(ArrayKernel):
            def __init__(self, monoid, np):
                super().__init__(monoid, np)
                self.dtype = np.int64

            def fold_groups(self, annotations, starts):
                return self.np.add.reduceat(annotations, starts)

            def mul_arrays(self, lefts, rights):
                return lefts * rights

        register_array_kernel(Int64Counting, _Int64Kernel)
        query = q_eq1()
        monoid = Int64Counting()
        annotated = KDatabase(query, monoid)
        for relation in annotated.relations():
            relation.set(
                tuple(1 for _ in range(relation.atom.arity)), 2**80
            )
        plan = compile_plan(query)
        kernel = array_kernel_for(monoid)
        assert isinstance(kernel, _Int64Kernel)
        result = execute_plan(plan, annotated, kernel_mode="array").result
        assert result == 2**240  # batched fallback, exact
        assert annotated.columnar_declined(kernel)
        # Mutation resets the verdict (the database may now fit).
        relation = next(iter(annotated.relations()))
        values = next(iter(relation.support()))
        relation.set(values, 7)
        assert not annotated.columnar_declined(kernel)
        rerun = execute_plan(plan, annotated, kernel_mode="array").result
        assert rerun == execute_plan(
            plan, annotated, kernel_mode="scalar"
        ).result

    @requires_numpy
    def test_mutation_invalidates_columnar_cache(self):
        query = q_eq1()
        monoid = CountingSemiring()
        rng = random.Random(31)
        annotated = _random_annotated(
            query, monoid, lambda r: r.randrange(1, 5), rng
        )
        plan = compile_plan(query)
        first = execute_plan(plan, annotated, kernel_mode="array").result
        info = annotated.columnar_cache_info()
        assert info["relations"] == len(query.atoms)
        # Mutate one fact and re-run: the cached view must be rebuilt.
        relation = next(iter(annotated.relations()))
        values = next(iter(relation.support()))
        relation.set(values, 1000)
        rerun = execute_plan(plan, annotated, kernel_mode="array").result
        expected = execute_plan(plan, annotated, kernel_mode="scalar").result
        assert rerun == expected
        assert isinstance(first, int)  # the pre-mutation run completed

    @requires_numpy
    def test_session_reuses_columnar_views(self):
        from repro.engine import Engine
        from repro.workloads.generators import random_probabilistic_database

        query = star_query(2)
        database = random_probabilistic_database(
            query, facts_per_relation=60, domain_size=12, seed=5
        )
        session = Engine().open(query, probabilistic=database)
        first = session.pqe()
        assert session.stats()["columnar_relations"] == len(query.atoms)
        assert session.pqe() == first


# ----------------------------------------------------------------------
# Packed vector carriers: bag-set / Shapley tier equivalence
# ----------------------------------------------------------------------
def _random_satvector(monoid, rng):
    """An arbitrary (non-spike) carrier element: dodges every fast path."""
    length = monoid.length
    return SatVector(
        tuple(rng.randrange(0, 4) for _ in range(length)),
        tuple(rng.randrange(0, 4) for _ in range(length)),
    )


def _random_bagset_vector(monoid, rng):
    return tuple(sorted(rng.randrange(0, 5) for _ in range(monoid.length)))


def _vector_samplers():
    """(monoid, sampler) pairs covering ψ-spikes and arbitrary vectors."""
    def spiky(monoid):
        def sample(rng):
            choice = rng.random()
            if choice < 0.4:
                return monoid.one
            if choice < 0.75:
                return monoid.star
            if choice < 0.85:
                return monoid.zero
            if isinstance(monoid, ShapleyMonoid):
                return _random_satvector(monoid, rng)
            return _random_bagset_vector(monoid, rng)

        return sample

    return [
        (monoid, spiky(monoid))
        for monoid in (
            BagSetMonoid(1), BagSetMonoid(5),
            ShapleyMonoid(1), ShapleyMonoid(5),
        )
    ]


@requires_numpy
@pytest.mark.parametrize(
    "monoid,sampler",
    _vector_samplers(),
    ids=lambda value: (
        f"{value.name}-{value.length}" if hasattr(value, "length") else None
    ),
)
class TestPackedVectorRelationOps:
    """Packed 2-D relation ops ≡ the scalar dict layout, bit-identically."""

    def test_views_are_packed(self, monoid, sampler):
        from repro.db.annotated import PackedColumnarKRelation

        rng = random.Random(41)
        relation = _mixed_key_relation(
            make_atom("R", ("X", "Y")), monoid, sampler, rng
        )
        view = _columnar_pair(relation)
        assert isinstance(view, PackedColumnarKRelation)
        assert view.packed_width >= 1

    def test_project_out(self, monoid, sampler):
        rng = random.Random(43)
        atom = make_atom("R", ("X", "Y"))
        target = make_atom("R'", ("X",))
        for _trial in range(4):
            relation = _mixed_key_relation(atom, monoid, sampler, rng)
            with scalar_kernels():
                expected = relation.project_out("Y", target)
            columnar = _columnar_pair(relation)
            _assert_same_relation(
                monoid, columnar.project_out("Y", target), expected, True
            )

    def test_merge_with_reordered_variables(self, monoid, sampler):
        """Bag-set merges intersect (annihilating); Shapley merges walk the
        support union — one-sided tuples must get exact ``a ⊗ 0``."""
        rng = random.Random(47)
        first_atom = make_atom("R", ("X", "Y"))
        second_atom = make_atom("S", ("Y", "X"))
        target = make_atom("R'", ("X", "Y"))
        for _trial in range(4):
            first = _mixed_key_relation(first_atom, monoid, sampler, rng)
            second = _mixed_key_relation(second_atom, monoid, sampler, rng)
            with scalar_kernels():
                expected = first.merge(second, target)
            left, right = _columnar_pair(first, second)
            _assert_same_relation(
                monoid, left.merge(right, target), expected, True
            )

    def test_end_to_end_tiers_identical(self, monoid, sampler):
        rng = random.Random(53)
        for query in (q_eq1(), star_query(2)):
            annotated = _random_annotated(
                query, monoid, sampler, rng, tuples=25, domain=5
            )
            results = _run_all_tiers(query, annotated)
            assert (
                results["scalar"] == results["batched"] == results["array"]
            ), monoid.name


@requires_numpy
class TestPackedVectorLargestConfigs:
    """The acceptance workloads: E4/E6 shapes, bit-identical across tiers."""

    def test_e6_shapley_largest_config(self):
        """The full E6 largest configuration (|Dn| = 256): array ≡ batched
        bit-for-bit.  Coefficients reach C(256, k) ≈ 2²⁵⁰, so this
        exercises the int64 → Kronecker exact-fallback leg end to end."""
        from repro.bench.experiments import _split_instance
        from repro.problems.shapley import annotation_psi

        query = star_query(2)
        instance = _split_instance(
            query, exogenous=40, endogenous=256, seed=256
        )
        monoid = ShapleyMonoid(instance.endogenous_count + 1)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = KDatabase.annotate(
            query, monoid, facts, annotation_psi(instance, monoid)
        )
        plan = compile_plan(query)
        batched = execute_plan(plan, annotated, kernel_mode="batched").result
        array = execute_plan(plan, annotated, kernel_mode="array").result
        assert array == batched
        assert max(array.true_counts) > 2**63  # the exact leg really ran

    def test_e6_three_tiers_moderate_config(self):
        from repro.bench.experiments import _split_instance
        from repro.problems.shapley import annotation_psi

        query = star_query(2)
        instance = _split_instance(query, exogenous=40, endogenous=64, seed=64)
        monoid = ShapleyMonoid(instance.endogenous_count + 1)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = KDatabase.annotate(
            query, monoid, facts, annotation_psi(instance, monoid)
        )
        results = _run_all_tiers(query, annotated)
        assert results["scalar"] == results["batched"] == results["array"]

    def test_e4_bagset_largest_config(self):
        """The full E4 largest configuration (|D| = 1600, θ = 16):
        scalar ≡ batched ≡ array bit-for-bit."""
        from repro.problems.bagset_max import annotation_psi
        from repro.workloads.generators import random_bagset_instance

        query = star_query(2)
        instance = random_bagset_instance(
            query, base_facts_per_relation=800, repair_facts_per_relation=16,
            budget=16, domain_size=400, seed=1600,
        )
        monoid = BagSetMonoid(instance.budget + 1)
        facts = [*instance.database.facts(), *instance.addable_facts()]
        annotated = KDatabase.annotate(
            query, monoid, facts, annotation_psi(instance, monoid)
        )
        results = _run_all_tiers(query, annotated)
        assert results["scalar"] == results["batched"] == results["array"]

    def test_bagset_overflowing_multiplicities_stay_exact(self):
        """Products beyond int64 switch the rows to exact object
        arithmetic — never a wrap, never an exception."""
        query = star_query(2)
        monoid = BagSetMonoid(4)
        annotated = KDatabase(query, monoid)
        for relation in annotated.relations():
            for y in range(3):
                relation.set((1, y), monoid.constant(2**40))
        results = _run_all_tiers(query, annotated)
        assert results["scalar"] == results["batched"] == results["array"]
        assert results["array"][0] == (3 * 2**40) ** 2

    def test_shapley_huge_input_coefficients_pack_exactly(self):
        """Annotations already beyond int64 encode as exact object rows
        (the guarded fast path never engages)."""
        query = q_eq1()
        monoid = ShapleyMonoid(3)
        huge = SatVector((2**70, 1, 0), (0, 2**70, 3))
        annotated = KDatabase(query, monoid)
        for relation in annotated.relations():
            relation.set(
                tuple(1 for _ in range(relation.atom.arity)), huge
            )
        kernel = array_kernel_for(monoid)
        packed = kernel.to_array([huge])
        assert packed.dtype == object
        results = _run_all_tiers(query, annotated)
        assert results["scalar"] == results["batched"] == results["array"]

    def test_seeded_packed_views_match_lazy(self):
        """bulk_annotate(columnar=True) seeds packed views equal to the
        lazily materialized ones (the session path)."""
        from repro.bench.experiments import _split_instance
        from repro.db.annotated import PackedColumnarKRelation
        from repro.problems.shapley import annotation_psi

        query = star_query(2)
        instance = _split_instance(query, exogenous=10, endogenous=12, seed=3)
        monoid = ShapleyMonoid(instance.endogenous_count + 1)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        psi = annotation_psi(instance, monoid)
        seeded = KDatabase.annotate(query, monoid, facts, psi, columnar=True)
        lazy = KDatabase.annotate(query, monoid, facts, psi)
        assert seeded.columnar_cache_info()["relations"] == len(query.atoms)
        assert lazy.columnar_cache_info()["relations"] == 0
        kernel = array_kernel_for(monoid)
        for atom in query.atoms:
            mine = seeded.columnar_relation(atom.relation, kernel)
            theirs = lazy.columnar_relation(atom.relation, kernel)
            assert isinstance(mine, PackedColumnarKRelation)
            assert (mine.annotations == theirs.annotations).all()
            for own, other in zip(mine.columns, theirs.columns):
                assert (own == other).all()

    def test_session_serves_shapley_from_packed_views(self):
        """An auto-mode session answers sat_vector/shapley_values through
        the packed tier with answers identical to the batched tier."""
        from repro.engine import Engine
        from repro.bench.experiments import _split_instance

        query = star_query(2)
        instance = _split_instance(query, exogenous=12, endogenous=8, seed=21)
        open_session = lambda mode: Engine(kernel_mode=mode).open(
            query,
            exogenous=instance.exogenous,
            endogenous=instance.endogenous,
        )
        packed, batched = open_session("auto"), open_session("batched")
        assert packed.sat_vector() == batched.sat_vector()
        assert packed.shapley_values() == batched.shapley_values()
        assert packed.stats()["columnar_relations"] > 0


# ----------------------------------------------------------------------
# numpy optionality: blocked-import fallback
# ----------------------------------------------------------------------
@pytest.fixture
def blocked_numpy(monkeypatch):
    """Make ``import numpy`` raise and re-run the probe, restoring after."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    kernels_module._reset_numpy_probe()
    try:
        yield
    finally:
        monkeypatch.undo()
        kernels_module._reset_numpy_probe()


class TestNumpyBlocked:
    def test_probe_and_registry_decline(self, blocked_numpy):
        assert numpy_or_none() is None
        assert array_kernel_for(ProbabilityMonoid()) is None

    def test_every_kernel_mode_still_answers(self, blocked_numpy):
        query = q_eq1()
        monoid = ProbabilityMonoid()
        rng = random.Random(37)
        annotated = _random_annotated(
            query, monoid, lambda r: r.random(), rng
        )
        results = _run_all_tiers(query, annotated)
        # "array" silently fell back to the batched tier.
        assert results["array"] == results["batched"]
        assert abs(results["scalar"] - results["array"]) <= 1e-9

    def test_bench_reports_two_tiers(self, blocked_numpy):
        from repro.bench.perf import available_tiers, environment_metadata

        assert available_tiers() == ["scalar", "batched"]
        assert environment_metadata()["numpy"] == "absent"

    def test_vector_carriers_fall_back(self, blocked_numpy):
        """Without numpy the packed tier silently yields to the batched
        kernels for the vector carriers too."""
        assert array_kernel_for(ShapleyMonoid(4)) is None
        assert array_kernel_for(BagSetMonoid(4)) is None
        query = q_eq1()
        monoid = ShapleyMonoid(4)
        annotated = KDatabase(query, monoid)
        rng = random.Random(59)
        for relation in annotated.relations():
            for _ in range(10):
                values = tuple(
                    rng.randrange(0, 3) for _ in range(relation.atom.arity)
                )
                relation.set(
                    values, rng.choice([monoid.one, monoid.star, monoid.zero])
                )
        results = _run_all_tiers(query, annotated)
        assert results["array"] == results["batched"] == results["scalar"]

    def test_engine_session_unaffected(self, blocked_numpy):
        from repro.engine import Engine
        from repro.workloads.generators import random_probabilistic_database

        query = star_query(2)
        database = random_probabilistic_database(
            query, facts_per_relation=30, domain_size=8, seed=9
        )
        session = Engine(kernel_mode="array").open(
            query, probabilistic=database
        )
        probability = session.pqe()
        assert 0.0 <= probability <= 1.0
        assert session.stats()["columnar_relations"] == 0


#: Run in a subprocess whose ``numpy`` is a shadow package that signals
#: ``import_started``, sleeps, then raises ``ImportError``.  One thread
#: starts the probe; seven more probe while that import is in progress.
_PROBE_RACE = """
import sys
import threading

import repro.core.kernels as kernels

import_started = threading.Event()
for trial in range(3):
    kernels._reset_numpy_probe()
    import_started.clear()
    seen = []

    def probe():
        seen.append(kernels.numpy_or_none())

    threads = [threading.Thread(target=probe, daemon=True)]
    threads[0].start()
    if not import_started.wait(10):
        sys.exit("the shadow numpy was never imported")
    threads += [threading.Thread(target=probe, daemon=True) for _ in range(7)]
    for thread in threads[1:]:
        thread.start()
    for thread in threads:
        thread.join(10)
    if any(thread.is_alive() for thread in threads):
        sys.exit(f"trial {trial}: a probe never returned")
    seen.append(kernels.numpy_or_none())
    if any(module is not None for module in seen):
        sys.exit(f"trial {trial}: a probe returned a half-imported numpy")
"""


def test_concurrent_probes_of_a_failing_numpy_import_see_none(tmp_path):
    """Threads probing while another thread's ``import numpy`` fails
    partway all get ``None``, and so does the cached probe."""
    shadow = tmp_path / "numpy"
    shadow.mkdir()
    (shadow / "__init__.py").write_text(
        "import time\n"
        "import __main__\n"
        "__main__.import_started.set()\n"
        "time.sleep(0.2)\n"
        'raise ImportError("numpy fails partway through its import")\n'
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), str(REPO_ROOT / "src")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE_RACE],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


@pytest.mark.skipif(
    os.environ.get("REPRO_NUMPY_BLOCKED") == "1",
    reason="already inside the numpy-blocked subprocess leg",
)
def test_suite_subset_passes_with_numpy_import_blocked(tmp_path):
    """A pytest subset (kernels + engine + this file) under a blocked numpy
    import: the whole engine must stay green without the array tier."""
    blocker = tmp_path / "numpy.py"
    blocker.write_text(
        'raise ImportError("numpy blocked by '
        'test_suite_subset_passes_with_numpy_import_blocked")\n'
    )
    env = dict(os.environ)
    env["REPRO_NUMPY_BLOCKED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), str(REPO_ROOT / "src")]
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "tests/test_kernels.py",
            "tests/test_array_kernels.py",
            "tests/test_engine.py",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
