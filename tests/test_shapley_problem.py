"""Tests for Shapley value computation (Theorem 5.16)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.fact import Fact
from repro.exceptions import NotHierarchicalError, ReproError
from repro.problems.shapley import (
    ShapleyInstance,
    banzhaf_from_counts,
    efficiency_gap,
    sat_counts,
    sat_counts_brute_force,
    sat_counts_via_lineage,
    shapley_from_counts,
    shapley_value,
    shapley_value_by_permutations,
    shapley_value_monte_carlo,
    shapley_values,
    shapley_weights,
)
from repro.query.families import q_eq1, q_h, q_nh, random_hierarchical_query
from repro.workloads.generators import random_shapley_instance


class TestInstanceModel:
    def test_overlap_rejected(self):
        fact = Fact("E", (1, 2))
        with pytest.raises(ReproError):
            ShapleyInstance(Database([fact]), Database([fact]))

    def test_non_hierarchical_rejected(self):
        instance = ShapleyInstance(
            Database(),
            Database.from_relations({"R": [(1,)], "S": [(1, 2)], "T": [(2,)]}),
        )
        with pytest.raises(NotHierarchicalError):
            sat_counts(q_nh(), instance)

    def test_value_of_non_endogenous_fact_rejected(self, fig1_query):
        instance = ShapleyInstance(
            Database.from_relations({"R": [(1, 5)]}),
            Database.from_relations({"S": [(1, 1)]}),
        )
        with pytest.raises(ReproError):
            shapley_value(fig1_query, instance, Fact("R", (1, 5)))


class TestSatCounts:
    def test_fig1_counts(self, fig1_query, small_shapley_instance):
        """Dx = S facts, Dn = {R(1,5), T(1,2,4)}: Q needs both → only the
        full size-2 subset satisfies."""
        assert sat_counts(fig1_query, small_shapley_instance) == (0, 0, 1)

    def test_all_exogenous_true(self):
        instance = ShapleyInstance(
            Database.from_relations({"E": [(1, 2)], "F": [(2, 3)]}),
            Database.from_relations({"E": [(9, 9)]}),
        )
        counts = sat_counts(q_h(), instance)
        # Already true with the empty endogenous subset; true for all sizes.
        assert counts == (1, 1)

    def test_never_true(self):
        instance = ShapleyInstance(
            Database(),
            Database.from_relations({"E": [(1, 2)]}),
        )
        assert sat_counts(q_h(), instance) == (0, 0)

    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=30, deadline=None)
    def test_agreement_with_brute_force(self, seed):
        rng = random.Random(seed)
        query = random_hierarchical_query(rng, max_variables=3, max_atoms=3)
        instance = random_shapley_instance(
            query, facts_per_relation=2, domain_size=2, seed=rng,
        )
        if instance.endogenous_count > 10:
            return
        assert sat_counts(query, instance) == (
            sat_counts_brute_force(query, instance)
        )

    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=20, deadline=None)
    def test_lineage_route_agrees(self, seed):
        rng = random.Random(seed)
        query = random_hierarchical_query(rng, max_variables=3, max_atoms=3)
        instance = random_shapley_instance(
            query, facts_per_relation=2, domain_size=2, seed=rng,
        )
        assert sat_counts(query, instance) == (
            sat_counts_via_lineage(query, instance)
        )

    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=25, deadline=None)
    def test_total_counts_are_binomials(self, seed):
        """true + false counts at size k must equal C(|Dn|, k)."""
        import math

        rng = random.Random(seed)
        query = random_hierarchical_query(rng, max_variables=3, max_atoms=3)
        instance = random_shapley_instance(
            query, facts_per_relation=2, domain_size=2, seed=rng,
        )
        from repro.problems.shapley import sat_vector

        vector = sat_vector(query, instance)
        n = instance.endogenous_count
        for k in range(n + 1):
            total = vector.false_counts[k] + vector.true_counts[k]
            assert total == math.comb(n, k)


class TestShapleyValues:
    def test_fig1_values(self, fig1_query, small_shapley_instance):
        """Two symmetric endogenous facts, both needed: each gets 1/2."""
        values = shapley_values(fig1_query, small_shapley_instance)
        assert set(values.values()) == {Fraction(1, 2)}

    def test_symmetry_axiom(self):
        """Interchangeable facts receive equal Shapley values."""
        instance = ShapleyInstance(
            Database.from_relations({"F": [(2, 3)]}),
            Database.from_relations({"E": [(1, 2), (5, 2)]}),
        )
        values = shapley_values(q_h(), instance)
        assert len(set(values.values())) == 1

    def test_null_player_axiom(self):
        """A fact that never helps (dangling E) has Shapley value 0."""
        instance = ShapleyInstance(
            Database.from_relations({"E": [(1, 2)], "F": [(2, 3)]}),
            Database.from_relations({"E": [(9, 99)]}),  # F(99, ·) never exists
        )
        value = shapley_value(q_h(), instance, Fact("E", (9, 99)))
        assert value == 0

    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=20, deadline=None)
    def test_efficiency_axiom(self, seed):
        rng = random.Random(seed)
        query = random_hierarchical_query(rng, max_variables=3, max_atoms=3)
        instance = random_shapley_instance(
            query, facts_per_relation=2, domain_size=2, seed=rng,
        )
        if instance.endogenous_count > 8:
            return
        assert efficiency_gap(query, instance) == 0

    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=12, deadline=None)
    def test_agreement_with_permutation_definition(self, seed):
        """The #Sat reduction equals Definition 5.12 verbatim."""
        rng = random.Random(seed)
        query = random_hierarchical_query(rng, max_variables=3, max_atoms=3)
        instance = random_shapley_instance(
            query, facts_per_relation=2, domain_size=2, seed=rng,
        )
        if instance.endogenous_count > 5:
            return
        for fact in instance.endogenous.facts():
            exact = shapley_value(query, instance, fact)
            by_permutations = shapley_value_by_permutations(query, instance, fact)
            assert exact == by_permutations

    def test_values_in_unit_interval(self, fig1_query):
        instance = random_shapley_instance(
            fig1_query, facts_per_relation=3, domain_size=2, seed=3,
        )
        for value in shapley_values(fig1_query, instance).values():
            assert 0 <= value <= 1


class TestIntegerFormulas:
    """One integer sum divided once ≡ the sum of ``Fraction`` terms."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 128])
    def test_match_the_fraction_sums_on_random_pairs(self, n):
        rng = random.Random(n)
        weights = shapley_weights(n)
        for _ in range(10):
            with_f = [rng.randrange(0, 2 ** 64) for _ in range(n + 1)]
            without_f = [rng.randrange(0, 2 ** 64) for _ in range(n + 1)]
            shapley = sum(
                (
                    Fraction(
                        math.factorial(k) * math.factorial(n - k - 1),
                        math.factorial(n),
                    )
                    * (with_f[k] - without_f[k])
                    for k in range(n)
                ),
                Fraction(0),
            )
            banzhaf = Fraction(
                sum(with_f[k] - without_f[k] for k in range(n)), 2 ** (n - 1)
            )
            assert shapley_from_counts(with_f, without_f, weights) == shapley
            assert banzhaf_from_counts(with_f, without_f, n) == banzhaf

    def test_no_endogenous_facts(self):
        assert shapley_weights(0) == ((), 1)
        assert banzhaf_from_counts((1,), (0,), 0) == 0


class TestMonteCarlo:
    def test_converges_to_exact(self, fig1_query, small_shapley_instance):
        fact = Fact("R", (1, 5))
        exact = float(shapley_value(fig1_query, small_shapley_instance, fact))
        estimate = shapley_value_monte_carlo(
            fig1_query, small_shapley_instance, fact, samples=4000, seed=2
        )
        assert estimate == pytest.approx(exact, abs=0.05)

    def test_requires_positive_samples(self, fig1_query, small_shapley_instance):
        with pytest.raises(ReproError):
            shapley_value_monte_carlo(
                fig1_query, small_shapley_instance, Fact("R", (1, 5)), samples=0
            )

    def test_requires_endogenous_fact(self, fig1_query, small_shapley_instance):
        with pytest.raises(ReproError):
            shapley_value_monte_carlo(
                fig1_query, small_shapley_instance, Fact("S", (1, 1)), samples=10
            )
