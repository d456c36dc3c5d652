"""Compilation of elimination traces into executable plans.

Algorithm 1 "mirrors the elimination steps" of Proposition 5.1 (Section 5.3):
each Rule 1 application becomes a ⊕-aggregation and each Rule 2 application a
⊗-join.  We compile the elimination trace of a hierarchical query *once* into
a :class:`Plan` — a linear sequence of :class:`ProjectStep`/:class:`MergeStep`
over named annotated relations — and then execute it against any 2-monoid and
any annotated database.  This separates the query-dependent work (polynomial
in the fixed query size) from the data-dependent work, matching the paper's
data-complexity accounting.

Compiled plans are memoized in a small LRU cache keyed by the query
structure, the policy name, and (for cost-based policies) the relation-size
statistics.  Repeated evaluations of the same query — the incremental
engine's rebuilds, benchmark sweeps, serving workloads replaying one query
shape over many databases — skip recompilation entirely.  Callable policies
bypass the cache (they may be stateful, e.g. the random E10 policies).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Union

from repro.exceptions import NotHierarchicalError, ReproError
from repro.query.atoms import Atom, Variable
from repro.query.bcq import BCQ
from repro.query.elimination import (
    EliminationTrace,
    Policy,
    Rule1Step,
    Rule2Step,
    eliminate,
)


@dataclass(frozen=True)
class ProjectStep:
    """Rule 1: ``target(x') = ⊕_y source(x', y)`` over the private variable."""

    source: Atom
    variable: Variable
    target: Atom

    def __str__(self) -> str:
        return (
            f"{self.target.relation} := ⊕[{self.variable}] {self.source.relation}"
        )


@dataclass(frozen=True)
class MergeStep:
    """Rule 2: ``target(x) = first(x) ⊗ second(x)`` over equal variable sets.

    The compiled order of ``first``/``second`` is the elimination trace's;
    the executors may swap the operands at runtime so the smaller support
    drives the probe (sound because ⊗ is commutative — see
    ``_merge_operands`` in :mod:`repro.core.algorithm`).  Plans therefore
    stay data-independent while the build-side choice uses the actual
    support sizes of the database being executed.
    """

    first: Atom
    second: Atom
    target: Atom

    def __str__(self) -> str:
        return (
            f"{self.target.relation} := "
            f"{self.first.relation} ⊗ {self.second.relation}"
        )


@dataclass(frozen=True)
class AbsorbStep:
    """Fold an all-free atom into a superset atom: ``target(y) = big(y) ⊗
    small(y|X)`` (the free-connex rule of grouped plans — see
    :mod:`repro.core.grouped` and :meth:`KRelation.absorb`)."""

    small: Atom
    big: Atom
    target: Atom

    def __str__(self) -> str:
        return (
            f"{self.target.relation} := "
            f"{self.big.relation} ⊗ {self.small.relation}[subset]"
        )


PlanStep = Union[ProjectStep, MergeStep]


@dataclass(frozen=True)
class Plan:
    """An executable compilation of the elimination procedure for one query."""

    query: BCQ
    steps: tuple[PlanStep, ...]
    final_relation: str

    def __str__(self) -> str:
        lines = [f"plan for {self.query}:"]
        lines.extend(f"  {step}" for step in self.steps)
        lines.append(f"  return {self.final_relation}()")
        return "\n".join(lines)

    @property
    def project_count(self) -> int:
        return sum(1 for step in self.steps if isinstance(step, ProjectStep))

    @property
    def merge_count(self) -> int:
        return sum(1 for step in self.steps if isinstance(step, MergeStep))


def binding_occurrences(
    query: BCQ, variables: tuple[Variable, ...] | list[Variable]
) -> dict[str, tuple[tuple[int, Variable], ...]]:
    """Where each bound variable occurs: ``relation → ((position, var), …)``.

    The shared lookup behind constant lifting: a bound query ``Q(c)`` runs
    the query's plan over the section ``σ_{X=c}``, each listed relation
    restricted to the rows holding the bound value at every listed
    position.  The section path slices columnar views with it
    (:mod:`repro.core.fused`), the dict-layout fallback filters support
    tuples.  Raises for variables the query never mentions — a binding
    that silently constrained nothing would be a wrong answer, not a no-op.
    """
    mentioned = set()
    occurrences: dict[str, tuple[tuple[int, Variable], ...]] = {}
    wanted = tuple(variables)
    for atom in query.atoms:
        positions = tuple(
            (position, variable)
            for position, variable in enumerate(atom.variables)
            if variable in wanted
        )
        if positions:
            occurrences[atom.relation] = positions
            mentioned.update(variable for _, variable in positions)
    missing = [variable for variable in wanted if variable not in mentioned]
    if missing:
        raise ReproError(
            f"cannot bind variable(s) {missing}: not mentioned by {query}"
        )
    return occurrences


#: Maximum number of (query, policy, sizes) entries kept compiled.
PLAN_CACHE_SIZE = 256

_plan_cache: "OrderedDict[tuple, Plan]" = OrderedDict()
_plan_cache_hits = 0
_plan_cache_misses = 0
#: Protects the cache mapping, the counters and ``PLAN_CACHE_SIZE``: the
#: cache is process-wide, and the serving layer compiles plans from many
#: worker threads at once.  Compilation itself (``eliminate``) runs outside
#: the lock — only the get/insert/evict bookkeeping is serialized.
_plan_cache_lock = threading.RLock()


def compile_plan(
    query: BCQ,
    policy: Policy | str = "rule1_first",
    relation_sizes: Mapping[str, int] | None = None,
    union_merges: bool = False,
) -> Plan:
    """Compile *query* into a :class:`Plan` (memoized for string policies).

    Parameters
    ----------
    query:
        A SJF-BCQ.
    policy:
        Elimination policy name or function; names include the cost-based
        ``"min_support"``.
    relation_sizes / union_merges:
        Statistics for cost-based policies — see
        :func:`repro.query.elimination.make_min_support_policy`.

    Raises
    ------
    NotHierarchicalError
        When the elimination procedure gets stuck — i.e., exactly when the
        query is not hierarchical (Proposition 5.1).
    """
    global _plan_cache_hits, _plan_cache_misses
    if not isinstance(policy, str):
        return plan_from_trace(
            eliminate(query, policy, relation_sizes, union_merges)
        )
    sizes_key = (
        None if relation_sizes is None
        else tuple(sorted(relation_sizes.items()))
    )
    key = (query, policy, sizes_key, union_merges)
    with _plan_cache_lock:
        cached = _plan_cache.get(key)
        if cached is not None:
            _plan_cache.move_to_end(key)
            _plan_cache_hits += 1
            return cached
        _plan_cache_misses += 1
    # Compile outside the lock: two threads missing on the same key both
    # compile, but plans are deterministic per key, so last-insert-wins is
    # harmless and the (potentially expensive) elimination never blocks
    # other threads' cache hits.
    plan = plan_from_trace(
        eliminate(query, policy, relation_sizes, union_merges)
    )
    with _plan_cache_lock:
        _plan_cache[key] = plan
        while len(_plan_cache) > PLAN_CACHE_SIZE:
            _plan_cache.popitem(last=False)
    return plan


def plan_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the plan cache (for tests and diagnostics)."""
    with _plan_cache_lock:
        return {
            "hits": _plan_cache_hits,
            "misses": _plan_cache_misses,
            "size": len(_plan_cache),
            "max_size": PLAN_CACHE_SIZE,
        }


def clear_plan_cache() -> None:
    """Drop every memoized plan and reset the counters."""
    global _plan_cache_hits, _plan_cache_misses
    with _plan_cache_lock:
        _plan_cache.clear()
        _plan_cache_hits = 0
        _plan_cache_misses = 0


def _register_plan_cache_gauges() -> None:
    """Expose the plan cache as callback gauges on the global registry.

    Callback gauges read :func:`plan_cache_info` only at scrape time, so
    the compile hot path carries no extra bookkeeping.
    """
    from repro.obs import global_registry

    registry = global_registry()
    for field, help_text in (
        ("hits", "Plan-cache hits since start (or last explicit clear)."),
        ("misses", "Plan-cache misses since start (or last explicit clear)."),
        ("size", "Plans currently memoized in the plan cache."),
    ):
        gauge = registry.gauge(f"repro_plan_cache_{field}", help_text).labels()
        gauge.set_function(
            lambda field=field: plan_cache_info()[field]
        )


_register_plan_cache_gauges()


def set_plan_cache_size(size: int) -> None:
    """Resize the plan cache, evicting oldest entries when shrinking.

    The :class:`~repro.engine.engine.Engine` configuration surface for the
    cache; hit/miss counters are preserved.  Safe against concurrent
    :func:`compile_plan` calls: the length check and each eviction happen
    under the cache lock, so the loop can neither pop from an empty cache
    (``KeyError``) nor evict below the new limit while inserts race it.
    """
    global PLAN_CACHE_SIZE
    if size < 1:
        raise ReproError(f"plan cache size must be positive, got {size}")
    with _plan_cache_lock:
        PLAN_CACHE_SIZE = size
        while len(_plan_cache) > PLAN_CACHE_SIZE:
            _plan_cache.popitem(last=False)


def plan_from_trace(trace: EliminationTrace) -> Plan:
    """Convert a successful elimination trace into a plan."""
    if not trace.success:
        raise NotHierarchicalError(
            f"query {trace.query} is not hierarchical; "
            f"elimination got stuck at {trace.final_query}"
        )
    steps: list[PlanStep] = []
    for step in trace.steps:
        if isinstance(step, Rule1Step):
            steps.append(
                ProjectStep(
                    source=step.source, variable=step.variable, target=step.target
                )
            )
        else:
            assert isinstance(step, Rule2Step)
            steps.append(
                MergeStep(first=step.first, second=step.second, target=step.target)
            )
    return Plan(
        query=trace.query,
        steps=tuple(steps),
        final_relation=trace.final_relation,
    )
