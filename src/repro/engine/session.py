"""EngineSession: one query + one database, many evaluation requests.

A session owns the per-workload state the one-shot front-ends used to rebuild
on every call:

* the ψ-annotated :class:`~repro.db.annotated.KDatabase` of each problem
  family (built once via the bulk annotation path, then reused — and, under
  the array tier, with the columnar views seeded straight from the fact
  stream);
* the monoid instances — and therefore their kernels, including the Shapley
  kernel's packed big-int operand caches, which stay warm across every fold
  step and every request the session answers;
* compiled plans (through the process-wide LRU cache, keyed per policy and
  per support statistics) and grouped (free-variable) plans;
* a **result memo**: :meth:`EngineSession.request` answers repeated requests
  from a cache keyed by the request signature and the version fingerprint of
  the annotated state it depends on, so a mutation of the underlying data
  automatically invalidates exactly the stale entries.

Shapley/Banzhaf values come from **one** sweep per Shapley database: one
forward and one reverse pass (:func:`repro.core.algorithm.leaf_adjoints`)
give every endogenous fact's two ``#Sat`` vectors of the Livshits et al.
reduction, ``f`` forced in and ``f`` removed.  ``maximize(b)`` reads the
longest memoized bag-set profile: truncated convolutions are
prefix-consistent, so a profile of length ``L`` answers every ``b < L``.

Thread-safety: one session serves every worker thread of a
:class:`repro.serve.Server`.  Cache builds run behind per-key latches —
so concurrent requests needing the same ψ-annotation or sweep share one
build — and the session's annotated databases are never mutated, so
evaluation over them runs without any lock held.

Example — bind one probabilistic database, answer repeated requests
through the memo:

>>> from fractions import Fraction
>>> from repro import Engine, Fact, ProbabilisticDatabase, parse_query
>>> query = parse_query("Q() :- R(X), S(X)")
>>> pdb = ProbabilisticDatabase({
...     Fact("R", (1,)): Fraction(1, 2),
...     Fact("S", (1,)): Fraction(1, 2),
... })
>>> session = Engine().open(query, probabilistic=pdb)
>>> session.pqe(exact=True)
Fraction(1, 4)
>>> session.request("pqe", exact=True)  # first request: computed, memoized
Fraction(1, 4)
>>> session.request("pqe", exact=True)  # repeat: served from the memo
Fraction(1, 4)
>>> session.stats()["memo"]["hits"]
1
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable

from repro.algebra.base import K, TwoMonoid
from repro.core.algorithm import (
    KERNEL_MODES,
    StepHook,
    compile_for_database,
    execute_plan,
    leaf_adjoints,
)
from repro.core.grouped import (
    GroupedPlan,
    compile_grouped_plan,
    execute_grouped_plan,
)
from repro.core.fused import FusedTask, execute_fused
from repro.core.incremental import IncrementalEvaluator
from repro.core.plan import binding_occurrences, plan_cache_info
from repro.db.annotated import KDatabase, KRelation
from repro.db.database import Database
from repro.db.fact import Fact
from repro.exceptions import ReproError, SchemaError
from repro.obs import MetricsRegistry
from repro.problems.bagset_max import BagSetInstance, check_budget
from repro.problems.bagset_max import annotation_psi as _bagset_psi
from repro.problems.possible_worlds import ProbabilisticDatabase
from repro.problems.resilience import ResilienceInstance
from repro.problems.resilience import annotation_psi as _resilience_psi
from repro.problems.shapley import (
    ShapleyInstance,
    banzhaf_from_counts,
    shapley_from_counts,
    shapley_weights,
)
from repro.problems.shapley import annotation_psi as _shapley_psi
from repro.query.atoms import Variable
from repro.query.bcq import BCQ

RequestHandler = Callable[..., object]


@dataclass(frozen=True)
class RequestFamily:
    """Everything :meth:`EngineSession.request` knows about one family.

    * ``handler`` answers it, called as ``handler(session, **params)``; its
      signature after the session argument gives the family's parameters
      and defaults (:func:`handler_parameters`).
    * ``state(params)`` names the annotated-database cache entries the
      answer depends on, the memo's invalidation granularity; without it
      the answer is fingerprinted over every annotated database the
      session holds, which is conservative but correct.
    * ``check(params)`` raises :class:`ReproError` for values the family
      cannot take.  It runs at submission
      (:meth:`repro.serve.request.Request.validate`) and before the memo
      probe, so an invalid value never shares a flight or a memo entry
      with an equal valid one (``True == 1``).
    * ``derived_from`` is ``(source family, derive(value, params))``: the
      family is answerable from a memoized unparameterized answer of the
      source family.
    * ``task(session, **params)`` builds the request's
      :class:`~repro.core.fused.FusedTask`, or returns ``None`` when the
      handler must answer it; :meth:`EngineSession.request_batch` runs
      every task of a batch in one :func:`~repro.core.fused.execute_fused`
      call, so bound misses on a root variable share one union pass.
    """

    handler: RequestHandler
    state: Callable[[dict], tuple] | None = None
    check: Callable[[dict], None] | None = None
    derived_from: tuple[str, Callable[[object, dict], object]] | None = None
    task: Callable[..., FusedTask | None] | None = None


def register_request_family(
    family: str, handler: RequestHandler, **declaration
) -> None:
    """Register (or override) a request family for :meth:`EngineSession.request`.

    *handler* is called as ``handler(session, **params)``; *declaration*
    takes the other :class:`RequestFamily` fields.  Without a ``state``,
    answers are fingerprinted over the session's whole annotated state.
    """
    REQUEST_FAMILIES[family] = RequestFamily(handler, **declaration)


def request_family(family) -> RequestFamily:
    """The declaration of *family*; an unknown one raises
    :class:`~repro.exceptions.SchemaError`."""
    declared = (
        REQUEST_FAMILIES.get(family) if isinstance(family, str) else None
    )
    if declared is None:
        raise SchemaError(
            f"unknown request family {family!r}; known families: "
            f"{sorted(REQUEST_FAMILIES)}"
        )
    return declared


#: Sentinel state key: "the bound pre-annotated database" (``annotated=…``).
_RAW_STATE = object()


@functools.lru_cache(maxsize=None)
def handler_parameters(handler: RequestHandler) -> tuple:
    """``(names, defaults)``: the parameters a family handler takes.

    Read once per handler from its signature, after the session argument.

    >>> names, defaults = handler_parameters(REQUEST_FAMILIES["pqe"].handler)
    >>> sorted(names), dict(defaults)
    (['binding', 'exact'], {'exact': False, 'binding': None})
    """
    parameters = list(inspect.signature(handler).parameters.values())[1:]
    return (
        frozenset(p.name for p in parameters),
        MappingProxyType(
            {p.name: p.default for p in parameters if p.default is not p.empty}
        ),
    )


def canonical_binding(binding) -> tuple | None:
    """Normalize a parameter binding to sorted ``(variable, value)`` pairs.

    Accepts a mapping, an iterable of 2-item list/tuple pairs, or ``None``;
    an empty binding canonicalizes to ``None`` (an unbound request).
    Anything else — a number, a string, a pair of another length, a
    variable bound twice, an unhashable value — raises
    :class:`~repro.exceptions.SchemaError`, so a malformed binding is a
    bad request, never a wrong answer.  The result is hashable, so it
    survives into memo keys and :class:`repro.serve.request.Request`
    signatures unchanged.
    """
    if binding is None:
        return None
    if isinstance(binding, Mapping):
        pairs = list(binding.items())
    elif isinstance(binding, Iterable) and not isinstance(
        binding, (str, bytes)
    ):
        pairs = list(binding)
    else:
        pairs = None
    if pairs is None or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs
    ):
        raise SchemaError(
            "a binding is a mapping or a list of [variable, value] pairs, "
            f"got {binding!r}"
        )
    named = [(str(name), value) for name, value in pairs]
    if len(dict(named)) < len(named):
        raise SchemaError(f"a binding names a variable twice: {binding!r}")
    try:
        hash(tuple(named))
    except TypeError:
        raise SchemaError(
            f"binding values must be hashable, got {binding!r}"
        ) from None
    return tuple(sorted(named)) or None


def canonical_params(family: str, params: dict) -> dict:
    """Drop parameters that restate the family handler's defaults.

    Used by :meth:`EngineSession.request` and
    :class:`repro.serve.request.Request` so the memo and the scheduler's
    single-flight coalescing key on request *semantics*, not spelling:
    ``pqe(exact=False)`` is ``pqe()`` (see :func:`handler_parameters`).
    A value of another type than its default (``exact=0``) is kept, so
    the family's check sees it.
    A ``binding`` is normalized first for any handler that takes one (see
    :func:`canonical_binding`), so every spelling of one parameter sweep
    point coalesces.
    """
    declared = REQUEST_FAMILIES.get(family)
    if declared is None:
        return params
    names, defaults = handler_parameters(declared.handler)
    if "binding" in names and "binding" in params:
        params = {**params, "binding": canonical_binding(params["binding"])}
    if not defaults:
        return params
    return {
        name: value
        for name, value in params.items()
        if not (
            name in defaults
            and type(value) is type(defaults[name])
            and value == defaults[name]
        )
    }


#: stats()-key → Prometheus family for the session work counters; one
#: shared table so the stats() view and the /metrics exposition can never
#: drift apart.
_SESSION_COUNTER_FAMILIES: dict[str, tuple[str, str]] = {
    "evaluations": (
        "repro_session_evaluations_total",
        "Plan executions issued by this session state.",
    ),
    "annotation_builds": (
        "repro_annotation_builds_total",
        "ψ-annotated database builds.",
    ),
    "memo_hits": (
        "repro_memo_hits_total",
        "Result-memo hits (including sweep-derived answers).",
    ),
    "memo_misses": (
        "repro_memo_misses_total",
        "Result-memo misses.",
    ),
}


def _session_metrics(registry: MetricsRegistry):
    """Resolve the session work counters on *registry*, keyed by stats() name."""
    return {
        key: registry.counter(name, help_text).labels()
        for key, (name, help_text) in _SESSION_COUNTER_FAMILIES.items()
    }


class ResultMemo(OrderedDict):
    """A size-capped LRU mapping backing the session result memos.

    With ``limit=None`` (the default) it behaves exactly like a plain dict.
    With a limit, inserting past capacity evicts the least-recently-*used*
    entry — :meth:`get` hits refresh recency — and counts the eviction in
    :attr:`evictions`, which :meth:`EngineSession.stats` surfaces as memo
    pressure.  Eviction is silent and safe: a re-asked evicted request is
    simply recomputed.
    """

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ReproError(
                f"memo limit must be a positive integer or None, got {limit}"
            )
        super().__init__()
        self.limit = limit
        self.evictions = 0

    def get(self, key, default=None):
        """Dict ``get`` that also refreshes the entry's LRU recency."""
        try:
            value = super().__getitem__(key)
        except KeyError:
            return default
        self.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if self.limit is not None:
            while len(self) > self.limit:
                self.popitem(last=False)
                self.evictions += 1


class EngineSession:
    """Answers many evaluation requests over one query and one database.

    Open sessions through :meth:`repro.engine.engine.Engine.open`; the engine
    supplies the policy, kernel mode and monoid registry, the session caches
    everything data-dependent.  The bound data sources are treated as
    immutable for the session's lifetime (use :meth:`incremental` for
    update workloads); a bound pre-annotated database (``annotated=…``) may
    mutate, and the :meth:`request` memo detects that through its version
    fingerprint.
    """

    def __init__(
        self,
        engine,
        query: BCQ,
        *,
        database: Database | None = None,
        probabilistic: ProbabilisticDatabase | None = None,
        exogenous: Database | None = None,
        endogenous: Database | None = None,
        repair: Database | None = None,
        annotated: KDatabase | None = None,
    ):
        query.require_self_join_free()
        self.engine = engine
        self.query = query
        self._database = database
        self._probabilistic = probabilistic
        self._exogenous = exogenous
        self._endogenous = endogenous
        self._repair = repair
        self._raw_annotated = annotated
        # Whether annotation builds should seed columnar views eagerly
        # (see KDatabase.bulk_annotate): exactly when the engine's kernel
        # mode can select the array tier.
        self._columnar_builds = engine.kernel_mode in ("auto", "array")
        # Circuit-breaker hook: a non-None override replaces the engine's
        # kernel mode for this session's runs (see degrade_kernel_mode).
        self._kernel_override: str | None = None
        # Reusable state, keyed per problem family / parameters.  Worker
        # threads share the session, so everything below is only touched
        # under ``_lock``.
        self._lock = threading.RLock()
        # Per-cache-key build latches: concurrent requests needing the SAME
        # ψ-annotation or sweep share one build, while different families
        # build in parallel and memo lookups never block behind a build.
        self._build_locks: dict[object, threading.Lock] = {}
        self._annotated: dict[object, KDatabase] = {}
        # Whole-instance results that per-fact and per-budget answers
        # derive from: "shapley" → (every fact's #Sat pair, the Shapley
        # weights), "bagset" → the longest bag-set profile so far.
        self._sweeps: dict[str, object] = {}
        self._monoids: dict[object, TwoMonoid] = {}
        self._grouped_plans: dict[frozenset[Variable], GroupedPlan] = {}
        self._sources: dict[bool, ProbabilisticDatabase] = {}
        self._instances: dict[str, object] = {}
        # Result memo: (family, canonical params) → (fingerprint, value),
        # LRU-capped by the engine's memo_limit (None = unbounded).
        memo_limit = getattr(engine, "memo_limit", None)
        self._results: ResultMemo = ResultMemo(memo_limit)
        # Work counters live on a per-session MetricsRegistry; stats() is a
        # view over it and the HTTP front-end scrapes it directly.
        self._registry = MetricsRegistry()
        self._metrics = _session_metrics(self._registry)
        self._register_state_gauges()

    def _register_state_gauges(self) -> None:
        """Callback gauges over the memo, evaluated only at scrape time.

        They close over the memos, not the session: a closure over ``self``
        on the session's own registry would make a reference cycle, keeping
        a dropped session's data alive until the cyclic collector ran.
        """
        registry = self._registry
        results = self._results
        registry.gauge(
            "repro_memo_entries", "Entries currently in the result memo."
        ).labels().set_function(lambda: len(results))
        registry.gauge(
            "repro_memo_evictions", "Result-memo LRU evictions so far."
        ).labels().set_function(lambda: results.evictions)

    # ------------------------------------------------------------------
    # Kernel-tier override (the circuit breaker's degrade hook)
    # ------------------------------------------------------------------
    @property
    def kernel_mode(self) -> str:
        """The session's effective kernel mode (override or engine default).

        All modes produce bit-identical results, so a degraded session's
        answers are indistinguishable from the engine-configured tier —
        only the execution cost differs.
        """
        return self._kernel_override or self.engine.kernel_mode

    def degrade_kernel_mode(self, mode: str) -> None:
        """Override this session's kernel mode (typically ``"batched"``).

        Used by :class:`repro.serve.admission.CircuitBreaker` to step a
        failing session off the array tier while keeping results
        bit-identical; :meth:`restore_kernel_mode` undoes it.
        """
        if mode not in KERNEL_MODES:
            raise ReproError(
                f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
            )
        self._kernel_override = mode

    def restore_kernel_mode(self) -> None:
        """Drop the kernel-mode override, restoring the engine's tier."""
        self._kernel_override = None

    # ------------------------------------------------------------------
    # Shared execution helpers
    # ------------------------------------------------------------------
    def _run(self, annotated: KDatabase, on_step: StepHook | None = None):
        self._metrics["evaluations"].inc()
        plan = compile_for_database(self.query, annotated, self.engine.policy)
        return execute_plan(
            plan,
            annotated,
            on_step=on_step,
            kernel_mode=self.kernel_mode,
        ).result

    def _annotate(
        self,
        monoid: TwoMonoid,
        facts: Iterable[Fact],
        annotation_of: Callable[[Fact], K],
    ) -> KDatabase:
        """One ψ-annotation build honoring the engine's columnar seeding."""
        return KDatabase.annotate(
            self.query, monoid, facts, annotation_of,
            columnar=self._columnar_builds,
        )

    def _latched(
        self, cache: dict, key: object, build: Callable[[], object],
        enough: Callable[[object], bool] = lambda _value: True,
    ):
        """``cache[key]``, built behind a double-checked per-key latch.

        The session lock only guards the dictionaries (briefly); the
        expensive build runs under a per-key lock, so identical requests
        share ONE build while unrelated ones build concurrently.  A cached
        value that is not *enough* is rebuilt (and replaced) by *build*.
        """
        with self._lock:
            value = cache.get(key)
            if value is not None and enough(value):
                return value
            build_lock = self._build_locks.setdefault(
                (id(cache), key), threading.Lock()
            )
        with build_lock:
            with self._lock:
                value = cache.get(key)
                if value is not None and enough(value):
                    return value
            value = build()
            with self._lock:
                cache[key] = value
            return value

    def _annotated_for(
        self, key: object, build: Callable[[], KDatabase]
    ) -> KDatabase:
        def counted() -> KDatabase:
            annotated = build()
            self._metrics["annotation_builds"].inc()
            return annotated

        return self._latched(self._annotated, key, counted)

    def _monoid_for(self, key: object, family: str, *args, **kwargs):
        with self._lock:
            monoid = self._monoids.get(key)
            if monoid is None:
                monoid = self.engine.create_monoid(family, *args, **kwargs)
                self._monoids[key] = monoid
            return monoid

    def _require(self, value, what: str, hint: str):
        if value is None:
            raise ReproError(
                f"this session has no {what}; open the session with "
                f"Engine.open(query, {hint})"
            )
        return value

    # ------------------------------------------------------------------
    # The memoizing request entry point (the serving layer's unit of work)
    # ------------------------------------------------------------------
    def _request_fingerprint(
        self, declared: RequestFamily, params: dict
    ) -> tuple:
        """Version fingerprint of the annotated state a family depends on.

        ``None`` entries stand for state not built yet; integer entries are
        :meth:`KDatabase._version_fingerprint` values, which change with any
        relation mutation.  Compared on memo lookup, so a mutation of the
        underlying database evicts exactly the dependent entries.
        """
        if declared.state is None:
            # No declared state: conservatively fingerprint every
            # annotated database the session holds, plus the raw one.
            keys: tuple = (
                _RAW_STATE, *sorted(self._annotated, key=repr),
            )
        else:
            keys = declared.state(params)
        parts = []
        for key in keys:
            annotated = (
                self._raw_annotated if key is _RAW_STATE
                else self._annotated.get(key)
            )
            parts.append(
                None if annotated is None
                else annotated._version_fingerprint()
            )
        return tuple(parts)

    def request(self, family: str, *, trace=None, **params):
        """Serve one request through the session result memo.

        Dispatches to the family's handler (see :data:`REQUEST_FAMILIES`)
        unless a previous answer for the same ``(family, params)`` signature
        is still valid — i.e. the version fingerprint of the annotated state
        the family depends on has not changed since it was computed.  Hits
        and misses are counted in :meth:`stats`; :meth:`invalidate` drops
        entries explicitly.  ``sat_counts`` additionally answers from a
        memoized ``sat_vector``.  Memoized results are shared objects:
        treat them as immutable.

        This is the one-request case of :meth:`request_batch`, the only
        place a request is answered and memoized; its error is raised
        here.  *trace*, when given, is a :class:`repro.obs.Trace`: it
        receives a ``memo_hit`` or ``executed`` mark so request lifecycles
        show where the answer came from.
        """
        value, error = self.request_batch([(family, params, trace)])[0]
        if error is not None:
            raise error
        return value

    def request_batch(self, requests) -> list[tuple[object, object]]:
        """Serve ``(family, params, trace)`` requests through the memo.

        Each request is probed as :meth:`request` describes.  A miss whose
        family declares a ``task`` becomes a
        :class:`~repro.core.fused.FusedTask`, and all of them run in one
        :func:`~repro.core.fused.execute_fused` call, so bound misses on a
        root variable share one union pass; every other miss runs its
        handler.  Each answer is memoized under its own signature, and
        each miss counts one memo miss and one evaluation.  The scheduler
        runs every claimed batch through here.

        Returns ``(value, error)`` per request, in order: one request's
        error never costs another its answer.
        """
        outcomes: list = [None] * len(requests)
        batched = []
        for index, (family, params, trace) in enumerate(requests):
            try:
                declared = request_family(family)
                params = canonical_params(family, params)
                if declared.check is not None:
                    declared.check(params)
                key = (family, tuple(sorted(params.items())))
                hit, value = self._memo_probe(key, declared, params)
                if hit:
                    if trace is not None:
                        trace.mark("memo_hit")
                    outcomes[index] = (value, None)
                    continue
                self._metrics["memo_misses"].inc()
                with self._lock:
                    before = self._request_fingerprint(declared, params)
                miss = (key, declared, params, before, trace)
                task = (
                    None if declared.task is None
                    else declared.task(self, **params)
                )
                if task is not None:
                    batched.append((index, miss, task))
                    continue
                value = declared.handler(self, **params)
                self._store(miss, value)
                outcomes[index] = (value, None)
            except Exception as error:
                outcomes[index] = (None, error)
        answers = self._execute_tasks([task for _, _, task in batched])
        for (index, miss, _task), (value, error) in zip(batched, answers):
            if error is None:
                self._store(miss, value)
            outcomes[index] = (value, error)
        return outcomes

    def _execute_tasks(self, tasks: list) -> list[tuple[object, object]]:
        """``(value, error)`` per task from one :func:`execute_fused` call;
        if that call raises, each task is retried alone, so only the
        failing one fails."""
        if not tasks:
            return []
        try:
            values = execute_fused(tasks, kernel_mode=self.kernel_mode)
        except Exception as error:
            if len(tasks) == 1:
                return [(None, error)]
            return [self._execute_tasks([task])[0] for task in tasks]
        return [(value, None) for value in values]

    def _store(self, miss: tuple, value) -> None:
        """Mark a computed miss ``executed`` and memoize its *value*."""
        key, declared, params, before, trace = miss
        if trace is not None:
            trace.mark("executed", kernel_mode=self.kernel_mode)
        # Store only when the dependent state did not move underneath the
        # execution: a ``None`` component may become a fingerprint (the
        # handler built that state itself), but a changed fingerprint means
        # a concurrent mutation — memoizing then would pin a possibly-stale
        # value under the new fingerprint.
        with self._lock:
            after = self._request_fingerprint(declared, params)
            if len(before) == len(after) and all(
                old is None or old == new
                for old, new in zip(before, after)
            ):
                self._results[key] = (after, value)

    def memoized(self, signature: tuple) -> tuple[bool, object]:
        """``(hit?, value)``: the memo's answer to one request signature.

        *signature* is ``(family, params)`` with the params canonical and
        sorted, as :attr:`repro.serve.request.Request.signature` spells
        it, and the family's check already passed.  This is
        :meth:`request`'s own probe: a stale entry is evicted, a derived
        answer is served, and a hit is counted.  A miss is not counted:
        the caller answers it through :meth:`request`, which counts it, so
        each query counts once.  The scheduler probes here at submission,
        so a memoized answer never enters its queue.
        """
        family, params = signature
        return self._memo_probe(
            signature, request_family(family), dict(params)
        )

    def _memo_probe(
        self, key: tuple, declared: RequestFamily, params: dict
    ) -> tuple[bool, object]:
        """``(hit?, value)`` for one canonicalized request signature.

        Probes the memo (evicting a stale entry), then the memoized answer
        the family derives from, and counts a hit.
        """
        with self._lock:
            entry = self._results.get(key)
            if entry is not None:
                if entry[0] == self._request_fingerprint(declared, params):
                    self._metrics["memo_hits"].inc()
                    return True, entry[1]
                del self._results[key]  # stale: underlying versions moved
            if declared.derived_from is not None:
                source, derive = declared.derived_from
                source_entry = self._results.get((source, ()))
                if source_entry is not None and source_entry[0] == (
                    self._request_fingerprint(REQUEST_FAMILIES[source], {})
                ):
                    value = derive(source_entry[1], params)
                    if value is not None:
                        self._metrics["memo_hits"].inc()
                        self._results[key] = (
                            self._request_fingerprint(declared, params), value
                        )
                        return True, value
            return False, None

    def invalidate(self, family: str | None = None) -> None:
        """Drop memoized request results (all, or one family's).

        Stale entries are also evicted automatically on lookup when the
        underlying :class:`~repro.db.annotated.KRelation` versions changed;
        this is the explicit override for out-of-band invalidation.
        """
        with self._lock:
            if family is None:
                self._results.clear()
            else:
                for key in [k for k in self._results if k[0] == family]:
                    del self._results[key]

    # ------------------------------------------------------------------
    # Raw Algorithm 1 (pre-annotated databases)
    # ------------------------------------------------------------------
    def run(self, on_step: StepHook | None = None):
        """Algorithm 1 over the bound pre-annotated database (``annotated=``)."""
        annotated = self._require(
            self._raw_annotated, "pre-annotated database", "annotated=…"
        )
        return self._run(annotated, on_step=on_step)

    def evaluate(
        self,
        monoid: TwoMonoid[K],
        facts: Iterable[Fact],
        annotation_of: Callable[[Fact], K],
        *,
        cache_key: object = None,
    ) -> K:
        """ψ-annotate *facts* in bulk and run Algorithm 1.

        The generic request shape behind ``evaluate_hierarchical``; pass a
        *cache_key* to keep the built annotated database on the session for
        reuse by later identical requests.
        """
        def build() -> KDatabase:
            return self._annotate(monoid, facts, annotation_of)

        if cache_key is None:
            annotated = build()
            self._metrics["annotation_builds"].inc()
        else:
            annotated = self._annotated_for(cache_key, build)
        return self._run(annotated)

    # ------------------------------------------------------------------
    # PQE / expected answer count (probabilistic databases)
    # ------------------------------------------------------------------
    def _probability_source(self, exact: bool) -> ProbabilisticDatabase:
        with self._lock:
            source = self._sources.get(exact)
            if source is None:
                base = self._require(
                    self._probabilistic,
                    "probabilistic database",
                    "probabilistic=…",
                )
                source = base.as_exact() if exact else base
                self._sources[exact] = source
            return source

    def _probability_annotated(self, family: str, exact: bool) -> KDatabase:
        """The cached ψ-annotated database behind ``pqe``/``expected_count``."""
        source = self._probability_source(exact)
        monoid_family = "probability" if family == "pqe" else "expectation"
        monoid = self._monoid_for(
            (monoid_family, exact), monoid_family, exact=exact
        )

        def build() -> KDatabase:
            # The columnar ingest: the TID's canonical per-relation columns
            # go straight to the annotation loader, ψ = validate on each
            # probability — no Fact objects on this path.
            annotated = KDatabase(self.query, monoid)
            annotated.load_columns(
                source.relation_columns(), monoid.validate,
                columnar=self._columnar_builds,
            )
            return annotated

        return self._annotated_for((family, exact), build)

    def pqe(self, exact: bool = False, binding=None):
        """Marginal probability of the query (Theorem 5.8).

        With *binding* — ``(variable, value)`` pairs or a mapping (see
        :func:`canonical_binding`) — the answer is for the lifted query
        ``Q(c)``: the database restricted to the binding's section
        ``σ_{X=c}`` at every occurrence of each bound variable.  On the
        array tier the full database's plan runs over only the section's
        rows, found through the cached section index of the session's
        annotated database (:mod:`repro.core.fused`), so a bound request
        costs its section, not ``|D|``; other tiers filter a copy of the
        database.
        """
        annotated = self._probability_annotated("pqe", exact)
        binding = canonical_binding(binding)
        if binding is None:
            return self._run(annotated)
        return self._run_bound(annotated, binding)

    def expected_count(self, exact: bool = False, binding=None):
        """``E[Q(D)]`` over the real semiring (linearity of expectation).

        *binding* restricts to the section ``σ_{X=c}`` exactly as in
        :meth:`pqe`, and runs over only that section on the array tier.
        """
        annotated = self._probability_annotated("expected_count", exact)
        binding = canonical_binding(binding)
        if binding is None:
            return self._run(annotated)
        return self._run_bound(annotated, binding)

    def _masked_database(self, annotated: KDatabase, binding) -> KDatabase:
        """A throwaway copy of *annotated* restricted to a binding's section.

        The fallback of constant lifting when the section path declines
        (no array kernel, or a declined columnar tier): keeps exactly the
        support tuples matching the binding, with their annotations,
        preserving insertion order.  Deliberately not cached on the
        session — distinct bindings are unbounded; the result memo caches
        the *answers* instead.
        """
        values = dict(binding)
        occurrences = binding_occurrences(self.query, tuple(values))
        masked = KDatabase(self.query, annotated.monoid)
        for relation in annotated.relations():
            positions = occurrences.get(relation.atom.relation, ())
            keys: list = []
            annotations: list = []
            for key, annotation in relation._annotations.items():
                if all(key[pos] == values[var] for pos, var in positions):
                    keys.append(key)
                    annotations.append(annotation)
            masked.relation(relation.atom.relation).bulk_load(
                keys, annotations
            )
        return masked

    def _run_bound(self, annotated: KDatabase, binding):
        """Serve one bound request: a one-task
        :func:`repro.core.fused.execute_fused` call."""
        task = self._bound_task(annotated, binding)
        return execute_fused([task], kernel_mode=self.kernel_mode)[0]

    def _bound_task(self, annotated: KDatabase, binding) -> FusedTask:
        """The :class:`FusedTask` of one bound query over *annotated*,
        falling back to a run over its masked copy; counts one
        evaluation.  A variable the query never mentions raises here."""
        binding_occurrences(self.query, tuple(dict(binding)))
        self._metrics["evaluations"].inc()
        plan = compile_for_database(self.query, annotated, self.engine.policy)
        return FusedTask(
            plan=plan,
            annotated=annotated,
            binding=binding,
            fallback=lambda: execute_plan(
                plan,
                self._masked_database(annotated, binding),
                kernel_mode=self.kernel_mode,
            ).result,
        )

    # ------------------------------------------------------------------
    # Shapley / Banzhaf (exogenous/endogenous splits)
    # ------------------------------------------------------------------
    def shapley_instance(self) -> ShapleyInstance:
        """The bound Definition 5.12 split (validated against the query)."""

        def build() -> ShapleyInstance:
            instance = ShapleyInstance(
                exogenous=self._exogenous or Database(),
                endogenous=self._require(
                    self._endogenous, "endogenous database", "endogenous=…"
                ),
            )
            instance.validate_against(self.query)
            return instance

        return self._latched(self._instances, "shapley", build)

    def _shapley_state(self):
        instance = self.shapley_instance()
        monoid = self._monoid_for(
            "shapley", "shapley", instance.endogenous_count + 1
        )
        psi = _shapley_psi(instance, monoid)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = self._annotated_for(
            "shapley",
            lambda: self._annotate(monoid, facts, psi),
        )
        return instance, monoid, annotated

    def sat_vector(self):
        """The full ``#Sat`` vector (Theorem 5.16)."""
        _instance, _monoid, annotated = self._shapley_state()
        return self._run(annotated)

    def sat_counts(self) -> tuple[int, ...]:
        """``#Sat(k)`` for ``k = 0 .. |Dn|``."""
        return self.sat_vector().true_counts

    def _sat_sweep(self) -> tuple:
        """``(pairs, weights)``, built once: the integer Shapley weights and
        ``pairs[f] = (#Sat with f forced in, #Sat with f removed)`` for
        every endogenous f — f's leaf adjoint ``(aF, aT)`` reversed.
        """

        def build() -> tuple:
            instance, monoid, annotated = self._shapley_state()
            leaves: dict[str, list[tuple]] = {}
            for fact in instance.endogenous.facts():
                leaves.setdefault(fact.relation, []).append(fact.values)
            self._metrics["evaluations"].inc()
            adjoints = leaf_adjoints(
                compile_for_database(self.query, annotated, self.engine.policy),
                annotated,
                # The functional reading the root's true slice: (0, e₀).
                (monoid.one.false_counts, monoid.one.true_counts),
                leaves,
                kernel_mode=self.kernel_mode,
            )
            pairs = {
                fact: adjoints[fact.relation][fact.values][::-1]
                for fact in instance.endogenous.facts()
            }
            return pairs, shapley_weights(instance.endogenous_count)

        return self._latched(self._sweeps, "shapley", build)

    def _sat_pair(self, fact: Fact) -> tuple:
        """``(with_f, without_f)`` of one endogenous fact, from the sweep."""
        if fact not in self.shapley_instance().endogenous:
            raise ReproError(
                f"{fact} is not an endogenous fact of the instance"
            )
        return self._sat_sweep()[0][fact]

    def shapley_value(self, fact: Fact) -> Fraction:
        """Exact Shapley value of *fact* (the Section 5.6 reduction)."""
        with_f, without_f = self._sat_pair(fact)
        return shapley_from_counts(with_f, without_f, self._sat_sweep()[1])

    def shapley_values(self) -> dict[Fact, Fraction]:
        """Shapley values of all endogenous facts, from one sweep."""
        return {
            fact: self.shapley_value(fact)
            for fact in self.shapley_instance().endogenous.facts()
        }

    def banzhaf_value(self, fact: Fact) -> Fraction:
        """The Banzhaf power index of *fact* (from the same #Sat pair)."""
        with_f, without_f = self._sat_pair(fact)
        n = self.shapley_instance().endogenous_count
        return banzhaf_from_counts(with_f, without_f, n)

    def banzhaf_values(self) -> dict[Fact, Fraction]:
        """Banzhaf indices of all endogenous facts."""
        return {
            fact: self.banzhaf_value(fact)
            for fact in self.shapley_instance().endogenous.facts()
        }

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    def resilience_instance(self) -> ResilienceInstance:
        """The bound deletable/undeletable split.

        Uses the ``exogenous``/``endogenous`` sources when given, otherwise
        treats the plain ``database`` as fully endogenous (the classical
        setting).
        """
        with self._lock:
            instance = self._instances.get("resilience")
            if instance is None:
                if self._endogenous is not None:
                    endogenous = self._endogenous
                else:
                    endogenous = self._require(
                        self._database,
                        "database for resilience",
                        "database=… or endogenous=…",
                    )
                instance = ResilienceInstance(
                    exogenous=self._exogenous or Database(),
                    endogenous=endogenous,
                )
                instance.validate_against(self.query)
                self._instances["resilience"] = instance
            return instance

    def resilience(self):
        """Minimum endogenous deletions falsifying the query (∞ if none)."""
        instance = self.resilience_instance()
        monoid = self._monoid_for("resilience", "resilience")
        psi = _resilience_psi(instance, monoid)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = self._annotated_for(
            "resilience",
            lambda: self._annotate(monoid, facts, psi),
        )
        return self._run(annotated)

    # ------------------------------------------------------------------
    # Bag-set maximization
    # ------------------------------------------------------------------
    def bagset_profile(
        self, budget: int, vector_length: int | None = None
    ):
        """The full budget profile of ``(D, Dr, θ=budget)`` (Theorem 5.11).

        Truncated convolutions are prefix-consistent, so the profile of
        length ``L`` (``vector_length``, default ``budget + 1``) is a slice
        of any longer one: the session keeps only its longest bag-set
        database and profile, and builds a longer one when asked for more.
        """
        check_budget(budget, vector_length)
        length = max(
            vector_length if vector_length is not None else budget + 1, 1
        )
        return self._bagset_profile(length)[:length]

    def maximize(self, budget: int) -> int:
        """The Bag-Set Maximization answer ``q(θ)`` at *budget*, read from
        a profile ``min(2^⌈log₂(budget+1)⌉, |addable|+1)`` or more long
        (flat past ``|addable|``), so new budgets rarely force a rebuild."""
        check_budget(budget)
        addable = len(self._bagset_addable())
        profile = self._bagset_profile(
            min(1 << budget.bit_length(), addable + 1)
        )
        return profile[min(budget, len(profile) - 1)]

    def _bagset_instance(self) -> BagSetInstance:
        def build() -> BagSetInstance:
            instance = BagSetInstance(
                self._require(self._database, "base database", "database=…"),
                self._require(self._repair, "repair database", "repair=…"),
                budget=0,
            )
            instance.validate_against(self.query)
            return instance

        return self._latched(self._instances, "bagset", build)

    def _bagset_addable(self) -> tuple[Fact, ...]:
        """The bound instance's addable facts ``Dr \\ D``, computed once:
        the instance is immutable."""
        return self._latched(
            self._instances, "bagset_addable",
            lambda: self._bagset_instance().addable_facts(),
        )

    def _bagset_profile(self, length: int):
        """The longest memoized profile, rebuilt at *length* if shorter."""
        instance = self._bagset_instance()

        def build():
            monoid = self.engine.create_monoid("bagset", length)
            facts = [*instance.database.facts(), *self._bagset_addable()]
            annotated = self._annotate(
                monoid, facts, _bagset_psi(instance, monoid)
            )
            self._metrics["annotation_builds"].inc()
            with self._lock:
                self._annotated["bagset"] = annotated
            return self._run(annotated)

        return self._latched(
            self._sweeps, "bagset", build,
            enough=lambda profile: len(profile) >= length,
        )

    # ------------------------------------------------------------------
    # Grouped (free-variable) evaluation
    # ------------------------------------------------------------------
    def grouped_plan(self, free_variables: Iterable[Variable]) -> GroupedPlan:
        """The compiled free-variable plan (memoized per free set)."""
        free = frozenset(free_variables)
        with self._lock:
            plan = self._grouped_plans.get(free)
            if plan is None:
                plan = compile_grouped_plan(self.query, free)
                self._grouped_plans[free] = plan
            return plan

    def grouped(
        self,
        free_variables: Iterable[Variable],
        monoid: TwoMonoid[K],
        annotation_of: Callable[[Fact], K] | None = None,
        facts: Iterable[Fact] | None = None,
    ) -> KRelation[K]:
        """Per-answer K-annotations over the free variables.

        Defaults to the session's plain database with the ⊗-identity
        annotation; pass *facts*/*annotation_of* for other carriers.
        """
        plan = self.grouped_plan(free_variables)
        if facts is None:
            facts = self._require(
                self._database, "database", "database=…"
            ).facts()
        fn = annotation_of or (lambda _fact: monoid.one)
        annotated = self._annotate(monoid, facts, fn)
        self._metrics["annotation_builds"].inc()
        return execute_grouped_plan(
            plan, annotated, kernel_mode=self.kernel_mode
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def incremental(
        self,
        monoid: TwoMonoid[K],
        annotation_of: Callable[[Fact], K] | None = None,
        facts: Iterable[Fact] | None = None,
    ) -> IncrementalEvaluator[K]:
        """An update-maintained evaluator seeded from the session's data.

        The evaluator copies the annotated input, so later updates never
        disturb the session's cached state.
        """
        if facts is None:
            facts = self._require(
                self._database, "database", "database=…"
            ).facts()
        fn = annotation_of or (lambda _fact: monoid.one)
        annotated = self._annotate(monoid, facts, fn)
        self._metrics["annotation_builds"].inc()
        return IncrementalEvaluator(
            self.query,
            annotated,
            policy=self.engine.policy,
            kernel_mode=self.kernel_mode,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The session's metric registry.

        The HTTP front-end composes this with the scheduler's registry into
        one ``/metrics`` exposition; :meth:`stats` is a dict view over the
        same counters.
        """
        return self._registry

    def stats(self) -> dict:
        """Cached-state sizes and work counters for this session.

        Every counter value is read from :attr:`metrics_registry` — the
        keys predate the registry and keep their historical names and
        meanings, but there is only one underlying count.
        """
        metrics = self._metrics
        with self._lock:
            annotated_databases = list(self._annotated.values())
            if self._raw_annotated is not None:
                annotated_databases.append(self._raw_annotated)
            info: dict = {
                "evaluations": metrics["evaluations"].value,
                "annotation_builds": metrics["annotation_builds"].value,
                "annotated_databases": len(annotated_databases),
                # Columnar (array-tier) views cached across this session's
                # requests, summed over the session's annotated databases.
                "columnar_relations": sum(
                    database.columnar_cache_info()["relations"]
                    for database in annotated_databases
                ),
                "monoids": len(self._monoids),
                "grouped_plans": len(self._grouped_plans),
                "memo": {
                    "entries": len(self._results),
                    "hits": metrics["memo_hits"].value,
                    "misses": metrics["memo_misses"].value,
                    "limit": self._results.limit,
                    "evictions": self._results.evictions,
                },
                "kernel_mode": self.kernel_mode,
                "plan_cache": plan_cache_info(),
            }
            shapley = self._monoids.get("shapley")
        if shapley is not None:
            from repro.core.kernels import kernel_for

            kernel = kernel_for(shapley)
            cache_info = getattr(kernel, "cache_info", None)
            if cache_info is not None:
                info["shapley_kernel"] = cache_info()
        return info

    def clear(self) -> None:
        """Drop every cached annotated database, monoid, plan and result."""
        with self._lock:
            self._annotated.clear()
            self._build_locks.clear()
            self._monoids.clear()
            self._grouped_plans.clear()
            self._sources.clear()
            self._instances.clear()
            self._results.clear()
            self._sweeps.clear()

    def __repr__(self) -> str:
        bound = [
            name
            for name, value in (
                ("database", self._database),
                ("probabilistic", self._probabilistic),
                ("exogenous", self._exogenous),
                ("endogenous", self._endogenous),
                ("repair", self._repair),
                ("annotated", self._raw_annotated),
            )
            if value is not None
        ]
        return f"EngineSession({self.query}, bound={bound})"


def _shapley_keys(_params: dict) -> tuple:
    return ("shapley",)


def _bagset_keys(_params: dict) -> tuple:
    return ("bagset",)


def _check_budget(params: dict) -> None:
    check_budget(params.get("budget"), params.get("vector_length"))


def _probability_task(family: str):
    """The ``task`` of ``pqe``/``expected_count``: a bound request's
    :class:`FusedTask`, or ``None`` for an unbound one."""

    def task(session, exact=False, binding=None):
        if binding is None:
            return None
        return session._bound_task(
            session._probability_annotated(family, exact), binding
        )

    return task


def _check_exact(params: dict) -> None:
    exact = params.get("exact", False)
    if not isinstance(exact, bool):
        raise SchemaError(
            f"the 'exact' parameter must be true or false, got {exact!r}"
        )


#: The request families :meth:`EngineSession.request` (and therefore the
#: serving layer) can dispatch, each declared once: family name →
#: :class:`RequestFamily`.  Extend with :func:`register_request_family`.
REQUEST_FAMILIES: dict[str, RequestFamily] = {
    # ``run``'s ``on_step`` hook is not a request parameter.
    "run": RequestFamily(
        lambda session: session.run(), state=lambda params: (_RAW_STATE,)
    ),
    "pqe": RequestFamily(
        EngineSession.pqe,
        state=lambda params: (("pqe", params.get("exact", False)),),
        check=_check_exact,
        task=_probability_task("pqe"),
    ),
    "expected_count": RequestFamily(
        EngineSession.expected_count,
        state=lambda params: (
            ("expected_count", params.get("exact", False)),
        ),
        check=_check_exact,
        task=_probability_task("expected_count"),
    ),
    "sat_vector": RequestFamily(EngineSession.sat_vector, _shapley_keys),
    "sat_counts": RequestFamily(
        EngineSession.sat_counts,
        _shapley_keys,
        derived_from=(
            "sat_vector", lambda vector, _params: vector.true_counts
        ),
    ),
    "shapley_value": RequestFamily(
        EngineSession.shapley_value, _shapley_keys
    ),
    "shapley_values": RequestFamily(
        EngineSession.shapley_values, _shapley_keys
    ),
    "banzhaf_value": RequestFamily(
        EngineSession.banzhaf_value, _shapley_keys
    ),
    "banzhaf_values": RequestFamily(
        EngineSession.banzhaf_values, _shapley_keys
    ),
    "resilience": RequestFamily(
        EngineSession.resilience, lambda params: ("resilience",)
    ),
    "bagset_profile": RequestFamily(
        EngineSession.bagset_profile, _bagset_keys, check=_check_budget
    ),
    "maximize": RequestFamily(
        EngineSession.maximize, _bagset_keys, check=_check_budget
    ),
}
