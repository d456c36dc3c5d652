"""Shared-scan fusion: many compatible queries in one columnar pass.

The serving workloads this repo targets send *batches* of requests against
one database — most often the same hierarchical query under different
parameter bindings (``Q(c)`` for varying constants ``c``, lifted by
:class:`~repro.core.plan.ParameterizedPlan`).  Evaluated one at a time,
every request re-runs the identical lexsort + ``reduceat`` ⊕-folds and
``searchsorted`` ⊗-alignments over the same
:class:`~repro.db.annotated.ColumnarKRelation` views; the key-column work
dominates and the per-request annotation arithmetic is cheap.  This module
amortizes the key-column work across a whole batch:

* group tasks by ``(annotated database identity, plan.scan_signature)`` —
  members of one group read the same relations, with the same interned key
  columns, through the identical step sequence;
* stack the members' annotation columns into one 2-D array (one column per
  member) and run the plan **once** over
  :class:`~repro.db.annotated.PackedColumnarKRelation` views driven by a
  :class:`_StackedKernel`, so each lexsort, each group-boundary scan and
  each ``searchsorted`` is paid once per step for the whole group — and
  the Rule-1 sort itself is shared with serial executions through the base
  views' sort caches;
* de-multiplex the final nullary row back into per-task scalars.

Bit-identicality to sequential evaluation is by construction, not by
tolerance.  Three properties make it a theorem:

1. **Value-independent schedules.**  The stacked kernel's
   :meth:`_StackedKernel.zero_mask` is constantly false, so no elimination
   step ever drops rows: every intermediate's support depends only on the
   shared base supports and the plan — never on any member's annotation
   values or stacking width.  In particular the size-based build/probe
   orientation of Rule-2 merges (``_merge_operands``) and every lexsort
   group boundary are identical for *every* width, including width 1.
2. **Column-independent arithmetic.**  Every flat-carrier
   :class:`~repro.core.kernels.ArrayKernel` (those with
   ``stackable = True``) folds with an ``axis=0`` ``ufunc.reduceat`` and
   multiplies elementwise, so column ``i`` of a width-``k`` run evolves
   exactly as it would in a width-1 run over the same row schedule.
3. **Width-1 is the serial definition.**  The engine's serial path for a
   parameterized request *is* a width-1 fused execution over the same base
   database object (`EngineSession` routes ``pqe(binding=…)`` through
   :func:`execute_fused` with a single task).  Fused therefore equals
   serial bit-for-bit — the two differ only in stacking width.

Masked-out rows carry the monoid's exact ⊕-identity instead of being
dropped; in every flat 2-monoid that identity is a bit-exact no-op under
both ⊕ and ⊗ (``x·1.0``, ``x+0``, ``min(x, +inf)``, ``max(x, -inf)``,
``x or False``), so keeping the rows changes cost, never values.

Decline conditions — a task (or a whole group) falls back to its serial
``fallback()`` thunk whenever the theorem's premises don't hold:

* the resolved kernel mode is ``batched``/``scalar``, or numpy is absent;
* the monoid's kernel is not ``stackable`` (packed vector carriers — their
  zero masks and row shapes are already 2-D);
* the task carries no binding (unbound tasks follow the standard serial
  executor, whose zero-dropping schedule a shared no-drop pass must not
  second-guess);
* the database has declined the columnar tier for this kernel, or view
  materialization overflows the kernel dtype (the group then declines and
  the database is marked, memoizing the decision per relation version).

Groups of one are executed through the same stacked machinery (that *is*
the serial path) but are not counted as fusion wins: ``fused_batches`` /
``fused_queries`` only count groups of two or more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.algorithm import _array_kernel_if_selected, run_steps
from repro.core.kernels import KERNEL_MEMO_ATTRS
from repro.core.plan import Plan, binding_occurrences
from repro.db.annotated import KDatabase, PackedColumnarKRelation
from repro.exceptions import ReproError

#: A canonical binding: sorted ``(variable, value)`` pairs (see
#: :meth:`repro.core.plan.ParameterizedPlan.bind`).
Binding = Sequence[tuple]

_UNSET = object()


class _StackedKernel:
    """An :class:`ArrayKernel` adapter that runs ``width`` queries per row.

    Wraps a ``stackable`` flat kernel so the annotation array becomes 2-D —
    ``(rows, width)``, one column per fused task — while the key columns,
    and therefore every sort, boundary scan and alignment, stay 1-D and
    shared.  ⊕/⊗ delegate straight to the base kernel, whose ``axis=0``
    reduceats and elementwise products are column-independent.

    ``packed_rows = True`` routes construction through
    :class:`~repro.db.annotated.PackedColumnarKRelation`, whose inherited
    elimination operations only ever index, filter and concatenate whole
    rows.  ``zero_mask`` is constantly false: fused execution never drops
    rows, which is what pins the step schedule to be width-independent
    (see the module docstring's bit-identicality argument).
    """

    packed_rows = True
    stackable = False

    def __init__(self, base, width: int):
        self.base = base
        self.monoid = base.monoid
        self.np = base.np
        self.dtype = base.dtype
        self.width = width

    # -- conversion ----------------------------------------------------
    def to_array(self, annotations):
        """Broadcast scalar carriers to width-wide rows (zero fills only)."""
        np = self.np
        column = self.base.to_array(list(annotations))
        return np.repeat(column.reshape((-1, 1)), self.width, axis=1)

    def empty_column(self):
        return self.base.empty_column().reshape((0, self.width))

    def to_scalar(self, row):
        raise ReproError(
            "stacked annotations demultiplex per task; read columns via "
            "the base kernel"
        )

    def to_scalars(self, annotations):
        raise ReproError(
            "stacked annotations demultiplex per task; read columns via "
            "the base kernel"
        )

    # -- the two batched shapes of Algorithm 1 -------------------------
    def fold_groups(self, annotations, starts):
        return self.base.fold_groups(annotations, starts)

    def mul_arrays(self, lefts, rights):
        return self.base.mul_arrays(lefts, rights)

    # -- layout hooks used by the generic elimination code -------------
    def zero_mask(self, annotations):
        # Constantly false — see the class docstring.  Masked-out tuples
        # stay in the support carrying the exact ⊕-identity instead.
        return self.np.zeros(annotations.shape[0], dtype=bool)

    def where_rows(self, found, matched):
        return self.np.where(
            found[:, None], matched, self.monoid.zero
        )

    def concat_rows(self, first, second):
        return self.np.concatenate([first, second])


def stack_token(kernel):
    """Hashable fusion-compatibility token for *kernel*, or ``None``.

    Two tasks may share one stacked pass only if their kernels would do the
    same arithmetic; the token captures that — kernel type, monoid type and
    the monoid's identity-relevant state (tolerances, exactness flags: its
    ``__dict__`` minus the memoized kernel caches; a slotted monoid is
    identified by instance).  ``None`` means "not stackable": packed vector
    kernels, kernels whose monoid state is unhashable, or no kernel at all
    (batched/scalar modes).  Memoized on the kernel instance.
    """
    if kernel is None or not getattr(kernel, "stackable", False):
        return None
    cached = getattr(kernel, "_fused_stack_token", _UNSET)
    if cached is not _UNSET:
        return cached
    monoid = kernel.monoid
    state = getattr(monoid, "__dict__", None)
    if state is None:
        token = (type(kernel), type(monoid), id(monoid))
    else:
        token = (
            type(kernel),
            type(monoid),
            tuple(sorted(
                (key, value) for key, value in state.items()
                if key not in KERNEL_MEMO_ATTRS
            )),
        )
        try:
            hash(token)
        except TypeError:
            token = None
    try:
        kernel._fused_stack_token = token
    except AttributeError:  # slotted kernel subclass: skip the memo
        pass
    return token


@dataclass
class FusedTask:
    """One query of a batch: a plan over an annotated database, plus how to
    answer it alone if fusion declines.

    ``binding`` is the canonical sorted ``(variable, value)`` tuple of a
    lifted parameterized query, or ``None`` for an unbound task (which
    always takes ``fallback``).  ``fallback`` must return the task's final
    scalar annotation through the standard serial path.
    """

    plan: Plan
    annotated: KDatabase
    fallback: Callable[[], object]
    binding: Binding | None = None


@dataclass
class FusedReport:
    """Results of :func:`execute_fused`, aligned with the input tasks.

    ``fused_batches`` counts executed groups of two or more tasks;
    ``fused_queries`` counts the tasks inside those groups.  Width-1
    groups and fallbacks contribute to neither.
    """

    results: list = field(default_factory=list)
    fused_batches: int = 0
    fused_queries: int = 0


def execute_fused(
    tasks: Iterable[FusedTask], *, kernel_mode: str = "auto"
) -> FusedReport:
    """Answer a batch of tasks, sharing one columnar pass per fusion group.

    Grouping key: ``(id(annotated), plan.scan_signature, stack_token)`` —
    same database object, same relation/step shape, same arithmetic.
    Ineligible tasks (see the module docstring's decline conditions) and
    groups whose view materialization overflows run their ``fallback``
    instead; results are positionally aligned with *tasks* either way.
    """
    tasks = list(tasks)
    results: list = [None] * len(tasks)
    groups: dict[tuple, list[int]] = {}
    kernels: dict[int, object] = {}
    solo: list[int] = []
    for index, task in enumerate(tasks):
        kernel = _array_kernel_if_selected(kernel_mode, task.annotated.monoid)
        token = stack_token(kernel)
        if (
            token is None
            or task.binding is None
            or task.annotated.columnar_declined(kernel)
        ):
            solo.append(index)
            continue
        key = (id(task.annotated), task.plan.scan_signature, token)
        groups.setdefault(key, []).append(index)
        kernels[index] = kernel
    report = FusedReport(results)
    for members in groups.values():
        group = [tasks[index] for index in members]
        outcome = _execute_group(group, kernels[members[0]])
        if outcome is None:
            solo.extend(members)
            continue
        if len(members) > 1:
            report.fused_batches += 1
            report.fused_queries += len(members)
        for index, value in zip(members, outcome):
            results[index] = value
    for index in solo:
        results[index] = tasks[index].fallback()
    events = _obs_events()
    if report.fused_batches:
        events.labels(event="batches").inc(report.fused_batches)
        events.labels(event="queries").inc(report.fused_queries)
    if solo:
        events.labels(event="serial_fallbacks").inc(len(solo))
    return report


def _obs_events():
    """The ``repro_fused_events_total`` family, registered on first use."""
    global _obs_family
    if _obs_family is None:
        from repro.obs import global_registry

        _obs_family = global_registry().counter(
            "repro_fused_events_total",
            "Shared-scan fusion outcomes "
            "(batches run, queries fused, serial fallbacks).",
            labels=("event",),
        )
    return _obs_family


_obs_family = None


def _binding_masks(plan: Plan, binding, base_views, np):
    """Per-relation boolean row masks selecting the binding's section.

    For each relation mentioning a bound variable: ``True`` where every
    bound position's interned key code equals the bound value's code.  A
    value the interner has never seen selects nothing — the task's answer
    is then the monoid's zero, exactly as ``σ_{X=c}`` over facts that
    don't exist.
    """
    values = dict(binding)
    occurrences = binding_occurrences(plan.query, tuple(values))
    masks = {}
    for relation, positions in occurrences.items():
        view = base_views[relation]
        codes = view.interner._codes
        mask = None
        for position, variable in positions:
            code = codes.get(values[variable])
            if code is None:
                mask = np.zeros(len(view), dtype=bool)
                break
            column_mask = view.columns[position] == code
            mask = column_mask if mask is None else mask & column_mask
        masks[relation] = mask
    return masks


def _execute_group(group: list[FusedTask], kernel):
    """One stacked pass over a fusion group; ``None`` → decline to serial."""
    leader = group[0]
    annotated = leader.annotated
    plan = leader.plan
    np = kernel.np
    width = len(group)
    stacked_kernel = _StackedKernel(kernel, width)
    zero = kernel.monoid.zero
    try:
        base_views = {
            atom.relation: annotated.columnar_relation(atom.relation, kernel)
            for atom in plan.query.atoms
        }
        masks = [
            _binding_masks(plan, task.binding, base_views, np)
            for task in group
        ]
        live: dict[str, PackedColumnarKRelation] = {}
        for atom in plan.query.atoms:
            name = atom.relation
            view = base_views[name]
            column = view.annotations
            stacked = np.empty((len(view), width), dtype=column.dtype)
            for position, task_masks in enumerate(masks):
                mask = task_masks.get(name)
                if mask is None:
                    stacked[:, position] = column
                else:
                    stacked[:, position] = np.where(mask, column, zero)
            live[name] = PackedColumnarKRelation(
                view.atom,
                stacked_kernel,
                view.columns,
                stacked,
                view.interner,
                sort_cache=view._sort_cache,
            )
        final, _ = run_steps(plan, live, kernel.monoid.annihilates)
    except OverflowError:
        annotated.decline_columnar(kernel)
        return None
    if len(final) == 0:
        return [zero] * width
    row = final.annotations[0]
    return [kernel.to_scalar(row[position]) for position in range(width)]
