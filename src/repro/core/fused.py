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

Every task runs the same code whatever else the call holds, so a list of
tasks answers exactly what a loop of single tasks answers, bit for bit, by
construction; the session's bound requests are one-task calls.  The
section holds the rows of ``σ_{X=c}`` in their original order, which is
the order a database built from the filtered facts would hold them in, so
the run repeats the array tier's run over that database step for step.

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
from repro.core.plan import Plan, binding_occurrences
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

    See the module docstring for when a task declines; the answers are
    positionally aligned with *tasks* either way.
    """
    results = []
    fallbacks = 0
    for task in tasks:
        value = _run_section(task, kernel_mode)
        if value is _DECLINED:
            value = task.fallback()
            fallbacks += 1
        results.append(value)
    if fallbacks:
        _obs_events().labels(event="serial_fallbacks").inc(fallbacks)
    return results


def _run_section(task: FusedTask, kernel_mode: str):
    """*task*'s answer from one run over its section, or ``_DECLINED``."""
    annotated = task.annotated
    kernel = _array_kernel_if_selected(kernel_mode, annotated.monoid)
    if (
        kernel is None
        or task.binding is None
        or annotated.columnar_declined(kernel)
    ):
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
