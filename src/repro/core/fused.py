"""Bound queries at the cost of their section.

The serving workloads this repo targets send batches of the same
hierarchical query under different constant bindings, ``Q(c)`` for varying
``c``.  The query language has no constant symbols, so a binding is
*constant lifting as slicing*: ``Q(c)`` is the query's compiled plan run
over the section ``σ_{X=c}(D)`` — every relation that mentions a bound
variable restricted to the rows holding the bound value at each of its
occurrences, every other relation unchanged.  Algorithm 1 is linear in
the database it reads, so a bound query costs its section, not ``|D|``.

:func:`execute_fused` answers each bound :class:`FusedTask` that way:

* the relations that mention a bound variable are sliced through the base
  :class:`~repro.db.annotated.ColumnarKRelation` views' section index
  (:meth:`~repro.db.annotated.ColumnarKRelation.section`), built on the
  first bound query and dropped with the view on a relation-version bump;
* the other relations enter as their base views, so their Rule 1 sorts
  come from the views' sort caches;
* the plan is ``task.plan``, the one compiled on the full database:
  ``min_support`` compiles from support statistics, and a different step
  order would change float rounding;
* :func:`repro.core.algorithm.run_steps` runs it, and each run counts as
  one array-tier plan execution.

**The union rule.**  A *root variable* occurs in every atom and is what
the plan's last step, a Rule 1 fold into ``()``, eliminates.  Tasks of one
call that share a plan, a database and a one-variable binding of a root
variable run as **one** pass: ``plan.steps[:-1]`` over the union of their
sections (:meth:`~repro.db.annotated.ColumnarKRelation.union_section`),
then the last fold on each value's row alone (one-row segments).  Every
key of every intermediate relation holds the root value, so no Rule 1
group and no Rule 2 match mixes two values, and each value's rows meet
exactly the ⊕ and ⊗ operations of its own section run.

**The row-order invariant.**  Those operations also meet their operands in
the same order, so float answers are bit-identical too: restricted to one
value, every relation of the union run holds the section run's rows in
the same order.  The union holds each section's rows in row order; a Rule
1 fold sorts stably by its kept columns; an annihilating Rule 2 merge
emits its intersection in composite-key order, whichever operand is
larger (:meth:`~repro.db.annotated.ColumnarKRelation.merge`), and a
non-annihilating one this side's rows then the other side's unmatched
rows.  Answers therefore do not depend on what else a call holds: a list
of tasks answers exactly what a loop of one-task calls answers, and the
session's single bound requests are one-task calls.

A task runs its ``fallback()`` instead when

* it carries no binding;
* no array kernel is selected: the ``batched`` or ``scalar`` tier, numpy
  absent, or an exact carrier without one;
* the database has declined the columnar tier for the kernel, or building
  a view overflows the kernel dtype (the database then memoizes the
  decline until a relation mutates).

``repro_fused_events_total{event="serial_fallbacks"}`` counts the tasks
that ran their fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.algorithm import (
    _array_kernel_if_selected,
    count_execution,
    run_steps,
)
from repro.core.plan import Plan, ProjectStep, binding_occurrences
from repro.db.annotated import KDatabase

#: A canonical binding: sorted ``(variable, value)`` pairs (see
#: :func:`repro.engine.session.canonical_binding`).
Binding = Sequence[tuple]

_DECLINED = object()


@dataclass
class FusedTask:
    """One query of a batch: a plan over an annotated database, plus how to
    answer it alone when the section path declines.

    ``binding`` is the canonical sorted ``(variable, value)`` tuple of a
    bound query, or ``None`` for an unbound task (which always takes
    ``fallback``).  ``fallback`` must return the task's final scalar
    annotation through the standard serial path.
    """

    plan: Plan
    annotated: KDatabase
    fallback: Callable[[], object]
    binding: Binding | None = None


def execute_fused(
    tasks: Iterable[FusedTask], *, kernel_mode: str = "auto"
) -> list:
    """Answer each task over its section, or through its fallback.

    Two or more root-bound tasks that share a plan, a database and a root
    variable run as one union pass (:func:`_run_union`); every other task
    runs alone (:func:`_run_section`).  See the module docstring for when
    a task declines; the answers are positionally aligned with *tasks*
    either way.
    """
    tasks = list(tasks)
    units: dict[object, list[int]] = {}
    for index, task in enumerate(tasks):
        variable = _root_variable(task)
        key = (
            index if variable is None
            else (id(task.plan), id(task.annotated), variable)
        )
        units.setdefault(key, []).append(index)
    results: list = [None] * len(tasks)
    fallbacks = 0
    for key, members in units.items():
        if len(members) > 1:
            group = [tasks[index] for index in members]
            values = _run_union(group, key[2], kernel_mode)
        else:
            values = [_run_section(tasks[members[0]], kernel_mode)]
        for index, value in zip(members, values):
            if value is _DECLINED:
                value = tasks[index].fallback()
                fallbacks += 1
            results[index] = value
    if fallbacks:
        _obs_events().labels(event="serial_fallbacks").inc(fallbacks)
    return results


def _root_variable(task: FusedTask):
    """The variable of a one-variable binding that occurs in every atom
    and that the plan's last step folds into ``()``, or ``None``."""
    binding = task.binding
    if binding is None or len(binding) != 1 or not task.plan.steps:
        return None
    variable = binding[0][0]
    last = task.plan.steps[-1]
    if (
        isinstance(last, ProjectStep)
        and last.variable == variable
        and last.target.arity == 0
        and all(
            variable in atom.variable_set for atom in task.plan.query.atoms
        )
    ):
        return variable
    return None


def _section_kernel(annotated: KDatabase, kernel_mode: str):
    """The array kernel a section run uses, or ``None`` to decline."""
    kernel = _array_kernel_if_selected(kernel_mode, annotated.monoid)
    if kernel is None or annotated.columnar_declined(kernel):
        return None
    return kernel


def _run_section(task: FusedTask, kernel_mode: str):
    """*task*'s answer from one run over its section, or ``_DECLINED``."""
    annotated = task.annotated
    kernel = _section_kernel(annotated, kernel_mode)
    if kernel is None or task.binding is None:
        return _DECLINED
    started = time.perf_counter()
    plan = task.plan
    values = dict(task.binding)
    occurrences = binding_occurrences(plan.query, tuple(values))
    try:
        live = {}
        for atom in plan.query.atoms:
            view = annotated.columnar_relation(atom.relation, kernel)
            positions = occurrences.get(atom.relation)
            if positions is not None:
                view = view.section(
                    [(position, values[variable])
                     for position, variable in positions]
                )
            live[atom.relation] = view
        final, _ = run_steps(plan, live, annotated.monoid.annihilates)
    except OverflowError:
        annotated.decline_columnar(kernel)
        return _DECLINED
    count_execution("array", started)
    return final.nullary_annotation()


def _run_union(tasks: list[FusedTask], variable, kernel_mode: str) -> list:
    """The answers of root-bound *tasks* from one run over the union of
    their sections, or ``_DECLINED`` for each.

    ``plan.steps[:-1]`` runs over the union once; the last step, Rule 1's
    fold of *variable* into ``()``, then folds each value's row on its own
    (one-row segments), as the value's own section run would.  Each
    distinct value is computed once, and a value without a row is
    ``monoid.zero``.
    """
    first = tasks[0]
    annotated, plan = first.annotated, first.plan
    kernel = _section_kernel(annotated, kernel_mode)
    if kernel is None:
        return [_DECLINED] * len(tasks)
    started = time.perf_counter()
    values = [task.binding[0][1] for task in tasks]
    distinct = list(dict.fromkeys(values))
    last = plan.steps[-1]
    try:
        live = {
            atom.relation: annotated.columnar_relation(
                atom.relation, kernel
            ).union_section(atom.variables.index(variable), distinct)
            for atom in plan.query.atoms
        }
        final, _ = run_steps(
            Plan(plan.query, plan.steps[:-1], last.source.relation),
            live,
            annotated.monoid.annihilates,
        )
        folded = final.annotations
        if len(folded):
            folded = kernel.fold_groups(
                folded, kernel.np.arange(len(folded), dtype=kernel.np.intp)
            )
    except OverflowError:
        annotated.decline_columnar(kernel)
        return [_DECLINED] * len(tasks)
    zero = kernel.zero_mask(folded).tolist()
    rows = dict(zip(final.columns[0].tolist(), range(len(final))))
    codes = final.interner._codes
    answers = []
    for value in values:
        row = rows.get(codes.get(value))
        answers.append(
            annotated.monoid.zero if row is None or zero[row]
            else kernel.to_scalar(folded[row])
        )
    count_execution("array", started)
    return answers


def _obs_events():
    """The ``repro_fused_events_total`` family, registered on first use."""
    global _obs_family
    if _obs_family is None:
        from repro.obs import global_registry

        _obs_family = global_registry().counter(
            "repro_fused_events_total",
            "Bound-query tasks that ran their serial fallback instead of "
            "a section run.",
            labels=("event",),
        )
    return _obs_family


_obs_family = None
