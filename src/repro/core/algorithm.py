"""Algorithm 1: the unifying algorithm for hierarchical queries (Section 5.3).

Given a hierarchical SJF-BCQ ``Q`` and a K-annotated database, the algorithm
replays the elimination procedure of Proposition 5.1 over annotated relations:

* **Rule 1** (private variable ``Y`` of atom ``R``) becomes the ⊕-aggregation
  ``R'(x') = ⊕_y R(x', y)`` (line 4 of Algorithm 1);
* **Rule 2** (duplicate-variable-set atoms ``R1``, ``R2``) becomes the ⊗-join
  ``R'(x) = R1(x) ⊗ R2(x)`` (line 7).

When the query reaches the form ``Q() :- R()``, the annotation of the nullary
tuple ``()`` in ``R`` is the output.  The *same* code runs probabilistic query
evaluation, bag-set maximization, Shapley value computation, and any other
2-monoid instantiation — only the monoid and the input annotations change.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.algebra.base import K, TwoMonoid
from repro.core.kernels import array_kernel_for, scalar_kernels
from repro.core.plan import (
    MergeStep,
    Plan,
    PlanStep,
    ProjectStep,
    compile_plan,
)
from repro.db.annotated import ColumnarKRelation, KDatabase, KRelation
from repro.db.fact import Fact
from repro.exceptions import ReproError
from repro.obs import global_registry
from repro.query.bcq import BCQ
from repro.query.elimination import Policy

_TIER_EXECUTIONS = global_registry().counter(
    "repro_tier_executions_total",
    "Plan executions answered by each execution tier.",
    labels=("tier",),
)
_TIER_FALLBACKS = global_registry().counter(
    "repro_tier_fallbacks_total",
    "Columnar-tier declines by reason (the run fell back to batched kernels).",
    labels=("reason",),
)
_PLAN_SECONDS = global_registry().histogram(
    "repro_plan_execution_seconds",
    "Wall-clock seconds per plan execution, by answering tier.",
    labels=("tier",),
)
# Per-step children resolved once: the step loop pays two clock reads and
# one striped-lock add per step, nothing else.
_STEP_SECONDS = global_registry().histogram(
    "repro_plan_step_seconds",
    "Wall-clock seconds per executed plan step, by elimination rule.",
    labels=("rule",),
)
_STEP_PROJECT = _STEP_SECONDS.labels(rule="project")
_STEP_MERGE = _STEP_SECONDS.labels(rule="merge")

StepHook = Callable[[PlanStep, KRelation], None]
"""Optional observer invoked after each executed step with its output relation."""

KERNEL_MODES = ("auto", "array", "batched", "scalar")
"""The three execution tiers (plus the auto selector):

* ``"auto"`` — the columnar (numpy) tier when the monoid's carrier is a flat
  numeric scalar with a registered array kernel and numpy is importable,
  otherwise the batched kernels;
* ``"array"`` — same selection as ``auto`` (the explicit spelling used by
  benchmarks and the CLI; like ``auto`` it transparently falls back to the
  batched tier for exact carriers or when numpy is absent);
* ``"batched"`` — registered batched kernels only, never the columnar tier
  (the PR 2 engine; the baseline the array tier is measured against);
* ``"scalar"`` — per-element ``monoid.add``/``mul`` dispatch (the original
  baseline).
"""

_COLUMNAR_MODES = ("auto", "array")


def _kernel_context(kernel_mode: str):
    if kernel_mode in ("auto", "array", "batched"):
        return nullcontext()
    if kernel_mode == "scalar":
        return scalar_kernels()
    raise ReproError(
        f"unknown kernel mode {kernel_mode!r}; expected one of {KERNEL_MODES}"
    )


def _array_kernel_if_selected(kernel_mode: str, monoid):
    """The monoid's array kernel when *kernel_mode* selects the columnar
    tier, else ``None`` (also validates the mode string)."""
    if kernel_mode in _COLUMNAR_MODES:
        return array_kernel_for(monoid)
    if kernel_mode not in KERNEL_MODES:
        raise ReproError(
            f"unknown kernel mode {kernel_mode!r}; "
            f"expected one of {KERNEL_MODES}"
        )
    return None


def _attempt_columnar(annotated: KDatabase, kernel_mode: str, executor):
    """Run *executor(array_kernel)* on the columnar tier, or return ``None``.

    The single home of the tier-selection/fallback policy shared by the
    Boolean and grouped executors: selects (and validates) the array
    kernel, honors a memoized not-representable verdict, and on
    ``OverflowError`` records that verdict on the database — so both
    engines fall back identically, now and under any future change here.
    """
    array_kernel = _array_kernel_if_selected(kernel_mode, annotated.monoid)
    if array_kernel is None:
        if kernel_mode in _COLUMNAR_MODES:
            _TIER_FALLBACKS.labels(reason="no_kernel").inc()
        return None
    if annotated.columnar_declined(array_kernel):
        _TIER_FALLBACKS.labels(reason="declined").inc()
        return None
    try:
        return executor(array_kernel)
    except OverflowError:
        # Annotations outside the kernel dtype: not columnar-representable.
        # Memoized (until a mutation) so repeated executions skip the
        # doomed encode attempt.
        annotated.decline_columnar(array_kernel)
        _TIER_FALLBACKS.labels(reason="overflow").inc()
        return None


def _columnar_view_getter(annotated: KDatabase, array_kernel):
    """A ``(name, live_relation) → ColumnarKRelation`` accessor that passes
    step outputs through and lazily materializes cached input views."""

    def columnar(name: str, relation):
        if isinstance(relation, ColumnarKRelation):
            return relation
        return annotated.columnar_relation(name, array_kernel)

    return columnar


def _input_relations(annotated: KDatabase[K]) -> dict[str, KRelation[K]]:
    """The ``name → relation`` map :func:`run_steps` starts from."""
    return {
        relation.atom.relation: relation for relation in annotated.relations()
    }


@dataclass
class ExecutionReport:
    """Bookkeeping produced alongside the answer by :func:`execute_plan`.

    Attributes
    ----------
    result:
        The K-annotation of the terminal nullary tuple.
    steps_executed:
        Number of plan steps run.
    max_live_support:
        The largest total support size observed across live relations — the
        Lemma 6.6 quantity (it never exceeds the input size).
    """

    result: object
    steps_executed: int
    max_live_support: int


def _merge_operands(first, second, annihilates: bool):
    """Order the two Rule 2 operands so the smaller support drives the probe.

    ``merge`` iterates/probes from its receiver, so for annihilating monoids
    (output = support intersection) building from the smaller side does less
    work.  ⊗ is commutative by the 2-monoid laws, so swapping operands never
    changes the result; non-annihilating merges walk the support union
    either way and keep the plan's order.
    """
    if annihilates and len(second) < len(first):
        return second, first
    return first, second


def run_steps(
    plan,
    live: dict[str, object],
    annihilates: bool,
    *,
    view: Callable[[str, object], object] | None = None,
    on_step: Callable[[object, object], None] | None = None,
) -> tuple[object, int]:
    """The Algorithm 1 step loop: the one copy that every executor runs.

    *plan* is a :class:`~repro.core.plan.Plan` or a
    :class:`~repro.core.grouped.GroupedPlan`; *live* maps relation names
    to the plan's inputs and is consumed in place (each step pops its
    operands and stores its output under the target name).  A
    :class:`ProjectStep` is Rule 1's ⊕-fold, a :class:`MergeStep` is Rule
    2's ⊗-merge with the smaller support driving the probe
    (:func:`_merge_operands`), and a free-connex
    :class:`~repro.core.plan.AbsorbStep` folds an all-free atom into a
    superset atom.  The relations bring their own layout: dict
    :class:`KRelation` objects (batched and scalar tiers), columnar views
    (the array tier) and the fused executor's stacked views all provide
    ``project_out``/``merge``/``absorb``.

    *view*, when given, maps each operand as it is popped — the columnar
    executors pass a getter that swaps an input relation for its cached
    columnar view.  *on_step* is called with ``(step, produced)`` after
    every step.  Each step's wall clock goes to
    ``repro_plan_step_seconds{rule}`` (absorbs count as ``"merge"``).

    Returns ``(final relation, max live support)``: the second value is the
    Lemma 6.6 quantity, the largest total support across live relations.
    """

    def take(name: str):
        relation = live.pop(name)
        return relation if view is None else view(name, relation)

    max_live = sum(len(relation) for relation in live.values())
    for step in plan.steps:
        started = time.perf_counter()
        if isinstance(step, ProjectStep):
            source = take(step.source.relation)
            produced = source.project_out(step.variable, step.target)
            timer = _STEP_PROJECT
        elif isinstance(step, MergeStep):
            first = take(step.first.relation)
            second = take(step.second.relation)
            build, probe = _merge_operands(first, second, annihilates)
            produced = build.merge(probe, step.target)
            timer = _STEP_MERGE
        else:  # AbsorbStep
            small = take(step.small.relation)
            produced = take(step.big.relation).absorb(small, step.target)
            timer = _STEP_MERGE
        timer.observe(time.perf_counter() - started)
        live[step.target.relation] = produced
        max_live = max(
            max_live, sum(len(relation) for relation in live.values())
        )
        if on_step is not None:
            on_step(step, produced)
    return live[plan.final_relation], max_live


def execute_plan(
    plan: Plan,
    annotated: KDatabase[K],
    on_step: StepHook | None = None,
    *,
    kernel_mode: str = "auto",
) -> ExecutionReport:
    """Execute *plan* over *annotated* and return the result with bookkeeping.

    ``kernel_mode`` picks the execution tier (see :data:`KERNEL_MODES`).
    Under ``"auto"``/``"array"`` flat-carrier monoids run on the columnar
    (numpy) tier; exact carriers — and every run when numpy is absent —
    fall back to the batched kernels, and ``"scalar"`` forces per-element
    monoid dispatch (the perf-suite baseline).  Step observers (*on_step*)
    receive dict-layout relations, so instrumented runs stay on the batched
    tier.  On the columnar tier input relations are materialized lazily into
    cached :class:`~repro.db.annotated.ColumnarKRelation` views (one dict →
    column conversion per relation per database, amortized across
    executions) and every step then runs inside numpy; int/bool carriers
    agree with the batched tier bit-identically and floats within the
    monoid tolerance (⊕-fold order follows the key sort).

    Every execution reports to the process-wide observability registry
    (:func:`repro.obs.global_registry`): ``repro_tier_executions_total``
    counts which tier answered, ``repro_plan_execution_seconds`` records
    its wall clock, and ``repro_tier_fallbacks_total`` classifies columnar
    declines.
    """
    started = time.perf_counter()
    annihilates = annotated.monoid.annihilates
    outcome = None
    if on_step is None:
        outcome = _attempt_columnar(
            annotated,
            kernel_mode,
            lambda kernel: run_steps(
                plan,
                _input_relations(annotated),
                annihilates,
                view=_columnar_view_getter(annotated, kernel),
            ),
        )
        tier = "array"
    if outcome is None:
        with _kernel_context(kernel_mode):
            outcome = run_steps(
                plan, _input_relations(annotated), annihilates, on_step=on_step
            )
        tier = "scalar" if kernel_mode == "scalar" else "batched"
    final, max_live = outcome
    if isinstance(final, ColumnarKRelation):
        result = final.nullary_annotation()
    else:  # dict layout, or a step-free plan whose final relation is an input
        result = final.annotation(())
    _TIER_EXECUTIONS.labels(tier=tier).inc()
    _PLAN_SECONDS.labels(tier=tier).observe(time.perf_counter() - started)
    return ExecutionReport(
        result=result,
        steps_executed=len(plan.steps),
        max_live_support=max_live,
    )


def compile_for_database(
    query: BCQ,
    annotated: KDatabase[K],
    policy: Policy | str = "rule1_first",
):
    """Compile *query* with data statistics when the policy is cost-based.

    For ``"min_support"`` this reads the support sizes out of *annotated* and
    tells the policy whether Rule 2 merges run over support unions (the
    non-annihilating case, e.g. Shapley) or intersections.
    """
    if policy == "min_support":
        sizes = {
            relation.atom.relation: len(relation)
            for relation in annotated.relations()
        }
        return compile_plan(
            query,
            policy,
            relation_sizes=sizes,
            union_merges=not annotated.monoid.annihilates,
        )
    return compile_plan(query, policy=policy)


def run_algorithm(
    query: BCQ,
    annotated: KDatabase[K],
    policy: Policy | str = "rule1_first",
    on_step: StepHook | None = None,
    *,
    kernel_mode: str = "auto",
) -> K:
    """Run Algorithm 1 on *query* and the K-annotated database *annotated*.

    A thin adapter over the engine subsystem: opens a throwaway
    :class:`~repro.engine.session.EngineSession` bound to the pre-annotated
    database.  Raises :class:`~repro.exceptions.NotHierarchicalError` for
    non-hierarchical queries (line 10 of Algorithm 1 / Proposition 5.1).
    """
    from repro.engine import Engine

    session = Engine(policy=policy, kernel_mode=kernel_mode).open(
        query, annotated=annotated
    )
    return session.run(on_step=on_step)  # type: ignore[return-value]


def evaluate_hierarchical(
    query: BCQ,
    monoid: TwoMonoid[K],
    facts: Iterable[Fact],
    annotation_of: Callable[[Fact], K],
    policy: Policy | str = "rule1_first",
    *,
    kernel_mode: str = "auto",
) -> K:
    """Convenience wrapper: annotate *facts* with ψ = *annotation_of* and run.

    This is the shape all the problem front-ends reduce to — build the
    ψ-annotated database of Definitions 5.10/5.15 (bulk path) and execute
    the compiled plan — expressed as a one-shot
    :meth:`~repro.engine.session.EngineSession.evaluate` request.
    """
    from repro.engine import Engine

    session = Engine(policy=policy, kernel_mode=kernel_mode).open(query)
    return session.evaluate(monoid, facts, annotation_of)
