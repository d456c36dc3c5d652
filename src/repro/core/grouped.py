"""Algorithm 1 with free variables: per-answer K-annotations.

The paper's concluding remarks point at conjunctive queries with *free
access patterns* as a natural extension target.  This module implements the
straightforward generalization: given a hierarchical query and a set of
**free** variables ``F``, run the elimination procedure but never project a
free variable away.  If the procedure terminates with a single atom over
exactly ``F``, the result is a K-relation mapping every answer tuple over
``F`` to its K-annotation:

* counting semiring → the bag-set count of each answer (GROUP BY COUNT),
* probability 2-monoid → the marginal probability of each answer,
* bag-set 2-monoid → the repair-budget profile of each answer, etc.

The procedure succeeds exactly for queries that are hierarchical *and* keep
``F`` upward-closed in the variable hierarchy (every free variable's at-set
contains the at-set of each variable eliminated below it) — the analogue of
free-connexity for this elimination.  Other queries raise
:class:`~repro.exceptions.NotHierarchicalError` with a description of where
elimination got stuck; Boolean queries (``F = ∅``) reduce to the ordinary
plan with a nullary result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.algebra.base import K, TwoMonoid
from repro.core.algorithm import (
    _attempt_columnar,
    _columnar_view_getter,
    _input_relations,
    _kernel_context,
    run_steps,
)
from repro.core.plan import AbsorbStep, MergeStep, ProjectStep
from repro.db.annotated import ColumnarKRelation, KDatabase, KRelation
from repro.db.fact import Fact
from repro.exceptions import NotHierarchicalError, QueryError
from repro.query.atoms import Variable
from repro.query.bcq import BCQ
from repro.query.elimination import (
    _FreshNames,
    applicable_rule1_steps,
    applicable_rule2_steps,
    apply_step,
)


@dataclass(frozen=True)
class GroupedPlan:
    """A compiled free-variable plan: steps plus the answer atom."""

    query: BCQ
    free_variables: frozenset[Variable]
    steps: tuple[object, ...]
    final_relation: str

    def __str__(self) -> str:
        free = ", ".join(sorted(self.free_variables))
        lines = [f"grouped plan for {self.query} with free variables ({free}):"]
        lines.extend(f"  {step}" for step in self.steps)
        lines.append(f"  return {self.final_relation}")
        return "\n".join(lines)


def compile_grouped_plan(
    query: BCQ, free_variables: Iterable[Variable]
) -> GroupedPlan:
    """Compile the free-variable elimination of *query*.

    Raises
    ------
    QueryError
        If a declared free variable does not occur in the query.
    NotHierarchicalError
        If elimination gets stuck before reaching a single atom over exactly
        the free variables (non-hierarchical query, or free variables not
        upward-closed in the hierarchy).
    """
    query.require_self_join_free()
    free = frozenset(free_variables)
    missing = free - query.variables
    if missing:
        raise QueryError(
            f"free variables {sorted(missing)} do not occur in {query}"
        )
    fresh = _FreshNames({atom.relation for atom in query.atoms})
    current = query
    steps: list[object] = []

    def is_done(q: BCQ) -> bool:
        return len(q.atoms) == 1 and q.atoms[0].variable_set == free

    while not is_done(current):
        rule1 = [
            step
            for step in applicable_rule1_steps(current, fresh)
            if step.variable not in free
        ]
        rule2 = applicable_rule2_steps(current, fresh)
        absorb = _applicable_absorb_steps(current, free, fresh)
        if rule1:
            step = rule1[0]
            steps.append(
                ProjectStep(
                    source=step.source, variable=step.variable, target=step.target
                )
            )
        elif rule2:
            step = rule2[0]
            steps.append(
                MergeStep(first=step.first, second=step.second, target=step.target)
            )
        elif absorb:
            step = absorb[0]
            steps.append(step)
        else:
            raise NotHierarchicalError(
                f"free-variable elimination of {query} with free set "
                f"{sorted(free)} got stuck at {current}; the query must be "
                "hierarchical with the free variables upward-closed in the "
                "variable hierarchy"
            )
        current = _apply_grouped_step(current, step)
    return GroupedPlan(
        query=query,
        free_variables=free,
        steps=tuple(steps),
        final_relation=current.atoms[0].relation,
    )


def _applicable_absorb_steps(query: BCQ, free, fresh) -> list[AbsorbStep]:
    """All-free atoms foldable into a strict-superset atom (free-connex rule)."""
    from itertools import permutations

    steps = []
    for small, big in permutations(query.atoms, 2):
        if small.variable_set <= free and small.variable_set < big.variable_set:
            target = big.renamed(fresh.derive(big.relation))
            steps.append(AbsorbStep(small=small, big=big, target=target))
    return steps


def _apply_grouped_step(query: BCQ, step) -> BCQ:
    from repro.query.elimination import Rule1Step, Rule2Step

    if isinstance(step, AbsorbStep):
        return query.merge_atoms(step.big, step.small, step.target)
    if isinstance(step, (Rule1Step, Rule2Step)):
        return apply_step(query, step)
    if isinstance(step, ProjectStep):
        return apply_step(
            query,
            Rule1Step(source=step.source, variable=step.variable, target=step.target),
        )
    assert isinstance(step, MergeStep)
    return apply_step(
        query, Rule2Step(first=step.first, second=step.second, target=step.target)
    )


def execute_grouped_plan(
    plan: GroupedPlan, annotated: KDatabase[K], *, kernel_mode: str = "auto"
) -> KRelation[K]:
    """Execute a grouped plan, returning the answer K-relation over ``F``.

    Every relation operation routes through the kernel tier *kernel_mode*
    selects — the columnar (numpy) tier for flat-carrier monoids under
    ``"auto"``/``"array"``, the batched kernels otherwise, the scalar
    baseline under ``"scalar"`` — exactly like the Boolean
    :func:`~repro.core.algorithm.execute_plan`.  The columnar answer
    relation is decoded back to the dict layout, so callers always receive
    a :class:`KRelation`.
    """
    annihilates = annotated.monoid.annihilates

    def columnar(kernel):
        final, _ = run_steps(
            plan,
            _input_relations(annotated),
            annihilates,
            view=_columnar_view_getter(annotated, kernel),
        )
        if isinstance(final, ColumnarKRelation):
            return final.to_krelation()
        return final

    answer = _attempt_columnar(annotated, kernel_mode, columnar)
    if answer is not None:
        return answer
    with _kernel_context(kernel_mode):
        final, _ = run_steps(plan, _input_relations(annotated), annihilates)
    return final


def evaluate_grouped(
    query: BCQ,
    free_variables: Iterable[Variable],
    monoid: TwoMonoid[K],
    facts: Iterable[Fact],
    annotation_of,
    *,
    kernel_mode: str = "auto",
) -> KRelation[K]:
    """Annotate, compile and execute in one call (free-variable analogue of
    :func:`repro.core.algorithm.evaluate_hierarchical`).

    A thin adapter over :meth:`repro.engine.session.EngineSession.grouped`.
    """
    from repro.engine import Engine

    session = Engine(kernel_mode=kernel_mode).open(query)
    return session.grouped(
        free_variables, monoid, annotation_of=annotation_of, facts=facts
    )
