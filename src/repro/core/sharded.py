"""The sharded execution tier: process-parallel key-range plan execution.

``kernel_mode="sharded"`` lifts the columnar tier across process boundaries.
The parent partitions every columnar relation by contiguous ranges of the
*shard root* variable's interned int64 code — the variable shared by every
atom, whose existence makes key-range partitioning a congruence for the
whole plan (see :func:`repro.core.plan.shard_root`) — exports the sorted
key/annotation arrays into ``multiprocessing.shared_memory`` blocks
(:meth:`repro.db.annotated.KDatabase.shard_export`), and runs the *complete*
compiled plan per shard on a persistent :class:`ProcessPoolExecutor`.  Each
worker attaches the blocks zero-copy, replays the same Rule-1 ``reduceat``
⊕-folds and Rule-2 ``searchsorted`` alignments as the in-process columnar
executor, and returns its shard's nullary annotation; the parent finishes
with **one ⊕-fold** of the per-shard results in shard (ascending key-range)
order.

Why this is sound: while two or more atoms are live, the root variable is
never private, so every Rule-1 group key and every Rule-2 alignment key
contains the root column and no group or match ever crosses a shard
boundary — per-shard intermediates are exactly the global intermediates
restricted to the shard.  Once a single atom remains, the residual steps
are pure ⊕-projections down to the nullary answer, and ⊕ associativity/
commutativity makes per-shard folds followed by the final parent fold equal
to the global fold.  Exact carriers (int/bool/vector) are therefore
bit-identical to the array tier under any shard count; float carriers agree
within the same tolerance discipline the array tier already documents
(⊕-fold association differs, the value does not).

Degradation ladder: ineligible queries (no shared variable), step-free
plans, inputs under the auto-selection threshold, pool failures that
survive a rebuild, and worker-side exceptions all *delegate to the array
tier* — results never depend on the pool being healthy.  Both numpy and
the process pool stay strictly optional.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager

from repro.core.kernels import kernel_for, monoid_payload, restore_monoid
from repro.core.plan import MergeStep, Plan, ProjectStep, shard_root
from repro.exceptions import ReproError

# ----------------------------------------------------------------------
# Worker-count validation (shared by Scheduler / Server / CLI / this tier)
# ----------------------------------------------------------------------
#: The single accepted worker-count range, shared by ``--workers``,
#: ``--shard-workers``, the Scheduler and this module so every surface
#: rejects the same values with the same message.
MAX_WORKER_COUNT = 128


def validate_worker_count(value, *, what: str = "worker") -> int:
    """Validate a worker count once, identically, for every entry point.

    Accepts integers in ``[1, MAX_WORKER_COUNT]`` and raises
    :class:`~repro.exceptions.ReproError` otherwise (bools are rejected —
    ``True`` is not a worker count).  Returns the validated value.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(
            f"{what} count must be an integer between 1 and "
            f"{MAX_WORKER_COUNT}, got {value!r}"
        )
    if not 1 <= value <= MAX_WORKER_COUNT:
        raise ReproError(
            f"{what} count must be an integer between 1 and "
            f"{MAX_WORKER_COUNT}, got {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
#: Auto-selection threshold: shard only when total support rows × carrier
#: width clears this, else delegate to the in-process array tier.  Measured
#: with ``repro bench``: below ~tens of thousands of carrier cells the
#: per-task pickling/IPC overhead (~1–2 ms per shard) dominates the fold
#: work and the array tier wins.
DEFAULT_SHARD_THRESHOLD = 16384

_config_lock = threading.RLock()
_shard_workers = max(1, min(8, os.cpu_count() or 1))
_shard_count_override: int | None = None
_shard_threshold = DEFAULT_SHARD_THRESHOLD

_pool = None
_pool_workers = 0
_pool_lock = threading.RLock()

_fault_hook = None
_inject_lock = threading.Lock()

_stats_lock = threading.Lock()
_stats = {
    "dispatches": 0,
    "shards_run": 0,
    "delegated_root": 0,
    "delegated_steps": 0,
    "delegated_threshold": 0,
    "fallbacks": 0,
    "pool_rebuilds": 0,
    "worker_kills": 0,
}
_last_error: str | None = None

#: Per-future result timeout (seconds): a hung pool degrades to the array
#: tier instead of hanging the caller (CI additionally hard-caps the job).
SHARD_TASK_TIMEOUT = 120.0


def shard_workers() -> int:
    """The configured process-pool size of the sharded tier."""
    return _shard_workers


def set_shard_workers(count: int) -> None:
    """Set the pool size; an existing pool is rebuilt on next dispatch."""
    global _shard_workers
    validate_worker_count(count, what="shard worker")
    with _config_lock:
        _shard_workers = count


def shard_count() -> int:
    """Shards per dispatch: the override when set, else one per worker."""
    override = _shard_count_override
    return override if override is not None else _shard_workers


def shard_threshold() -> int:
    """The rows × carrier-width floor below which sharding delegates."""
    return _shard_threshold


def set_shard_threshold(threshold: int) -> None:
    if not isinstance(threshold, int) or threshold < 0:
        raise ReproError(
            f"shard threshold must be a non-negative integer, got {threshold!r}"
        )
    global _shard_threshold
    with _config_lock:
        _shard_threshold = threshold


@contextmanager
def shard_config(*, workers=None, shards=None, threshold=None):
    """Temporarily override the tier configuration (tests and the bench).

    ``shards`` decouples the partition count from the pool size — shard
    invariance is a property of the partition, so tests sweep 1/2/3/7
    shards without needing 7 processes.
    """
    global _shard_workers, _shard_count_override, _shard_threshold
    with _config_lock:
        saved = (_shard_workers, _shard_count_override, _shard_threshold)
        if workers is not None:
            validate_worker_count(workers, what="shard worker")
            _shard_workers = workers
        if shards is not None:
            validate_worker_count(shards, what="shard")
            _shard_count_override = shards
        if threshold is not None:
            _shard_threshold = threshold
    try:
        yield
    finally:
        with _config_lock:
            _shard_workers, _shard_count_override, _shard_threshold = saved


def set_shard_fault_hook(hook) -> None:
    """Install ``hook() -> bool`` consulted before each dispatch; ``True``
    SIGKILLs one live pool process (chaos injection — see
    :mod:`repro.serve.faults`).  Pass ``None`` to clear."""
    global _fault_hook
    _fault_hook = hook


def sharded_stats() -> dict:
    """Counters of the sharded tier (dispatches, delegations, rebuilds)."""
    with _stats_lock:
        snapshot = dict(_stats)
    snapshot["workers"] = _shard_workers
    snapshot["threshold"] = _shard_threshold
    snapshot["last_error"] = _last_error
    return snapshot


def reset_sharded_stats() -> None:
    global _last_error
    with _stats_lock:
        for key in _stats:
            _stats[key] = 0
        _last_error = None


def _obs_events():
    """The ``repro_sharded_events_total`` family, registered on first use.

    Lazy so importing this module (which the engine does eagerly) never
    races registry construction during interpreter startup; the registry
    itself is process-global, matching the module-global ``_stats``.
    """
    global _obs_family
    if _obs_family is None:
        from repro.obs import global_registry

        _obs_family = global_registry().counter(
            "repro_sharded_events_total",
            "Sharded-tier lifecycle events "
            "(dispatches, delegations, rebuilds, fallbacks).",
            labels=("event",),
        )
    return _obs_family


_obs_family = None


def _count(key: str, amount: int = 1) -> None:
    with _stats_lock:
        _stats[key] += amount
    _obs_events().labels(event=key).inc(amount)


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Per-process warmup: importing the algebra package registers every
    batched and array kernel, so the first shard task pays no registry
    misses (plans arrive pre-compiled, so there is no plan-cache cold
    start either)."""
    import repro.algebra  # noqa: F401


def _get_pool():
    """The persistent process pool, built lazily at the configured size."""
    global _pool, _pool_workers
    workers = _shard_workers
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown(wait=False, cancel_futures=True)
            from concurrent.futures import ProcessPoolExecutor

            _pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init
            )
            _pool_workers = workers
        return _pool


def _retire_pool(pool) -> bool:
    """Discard *pool* if it is still the current one; the next dispatch
    builds a fresh pool.  Returns whether this call retired it.

    The identity check matters under concurrent dispatch: two threads that
    both saw one pool break must not let the slower one shut down the fresh
    pool the faster one is already dispatching to.
    """
    global _pool
    with _pool_lock:
        if _pool is not pool:
            return False
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
    _count("pool_rebuilds")
    return True


def _is_current_pool(pool) -> bool:
    with _pool_lock:
        return _pool is pool


def shutdown_shard_pool() -> None:
    """Shut the pool down (idempotent; re-created on next dispatch)."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None


atexit.register(shutdown_shard_pool)


def _noop() -> None:
    return None


def _kill_one_pool_worker(pool) -> None:
    """SIGKILL one live pool process (the chaos-injection primitive)."""
    processes = getattr(pool, "_processes", None)
    if not processes:
        pool.submit(_noop).result(timeout=SHARD_TASK_TIMEOUT)
        processes = getattr(pool, "_processes", None)
    pid = next(
        (
            pid for pid, process in list((processes or {}).items())
            if process.is_alive()
        ),
        None,
    )
    if pid is None:
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        return
    _count("worker_kills")
    # Give the executor's management thread a beat to notice the death so
    # the breakage surfaces on this dispatch, not a later one.
    time.sleep(0.05)


def _maybe_inject_fault(pool) -> None:
    hook = _fault_hook
    if hook is None:
        return
    # One injection at a time, and none into a pool that already broke
    # (its dispatch retries on a fresh pool, where the hook is asked
    # again), so every death the hook orders kills a live process.
    with _inject_lock:
        if getattr(pool, "_broken", False):
            return
        try:
            kill = bool(hook())
        except Exception:
            return
        if kill:
            _kill_one_pool_worker(pool)


# ----------------------------------------------------------------------
# Worker side: attach shared memory, replay the plan, return one fold
# ----------------------------------------------------------------------
class _SnapshotInterner:
    """A length-only stand-in for the parent's value interner.

    Workers never decode values — the only interner property the columnar
    operations read is ``len()`` (the radix of composite-key packing), and
    shipping the snapshot length keeps every shard packing with the exact
    radix the parent's arrays were encoded under.
    """

    __slots__ = ("_length",)

    def __init__(self, length: int) -> None:
        self._length = length

    def __len__(self) -> int:
        return self._length


#: Per-process cache of attached shared-memory blocks, keyed by block name.
#: Exports are reused across plan executions (version-fingerprint keyed in
#: the parent), so workers typically attach each block once per database
#: generation instead of once per task.
_ATTACHMENTS: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACHMENT_LIMIT = 64


def _attach_view(transport, lo: int, hi: int, np):
    """Materialize one transported array restricted to ``[lo, hi)``.

    ``("data", array)`` chunks were sliced in the parent and pass through;
    ``("shm", name, dtype, shape)`` attaches the named block (cached per
    process) and returns a zero-copy slice of the mapped array.
    """
    if transport[0] == "data":
        return transport[1]
    _, name, dtype, shape = transport
    cached = _ATTACHMENTS.get(name)
    if cached is None:
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(name=name)
        try:
            # Under "spawn", pre-3.13 attach spuriously registers with the
            # worker's own resource tracker, which would unlink the
            # parent's block when this worker exits; undo it — the parent
            # owns the lifecycle.  Under "fork" the tracker is shared with
            # the parent, and unregistering would strip the parent's own
            # registration instead.
            import multiprocessing
            from multiprocessing import resource_tracker

            if multiprocessing.get_start_method(allow_none=True) != "fork":
                resource_tracker.unregister(block._name, "shared_memory")
        except Exception:
            pass
        array = np.ndarray(shape, dtype=dtype, buffer=block.buf)
        _ATTACHMENTS[name] = (block, array)
        while len(_ATTACHMENTS) > _ATTACHMENT_LIMIT:
            stale_name, (stale_block, _stale) = _ATTACHMENTS.popitem(
                last=False
            )
            try:
                stale_block.close()
            except BufferError:
                # A view from this very task still references the buffer;
                # keep the attachment alive instead.
                _ATTACHMENTS[stale_name] = (stale_block, _stale)
                break
    else:
        _ATTACHMENTS.move_to_end(name)
        block, array = cached
    return array[lo:hi]


def _execute_shard(task: dict):
    """Run the complete plan over one shard; returns ``(result, max_live)``.

    The worker-side mirror of ``_execute_plan_columnar``: same step loop,
    same build/probe orientation (so per-shard intermediates match the
    global run row-for-row), ending in the shard's nullary annotation.
    """
    from repro.core.algorithm import _merge_operands
    from repro.core.kernels import array_kernel_for
    from repro.db.annotated import columnar_relation_class

    monoid = restore_monoid(task["monoid"])
    kernel = array_kernel_for(monoid)
    if kernel is None:
        raise ReproError(
            f"shard worker has no array kernel for monoid {monoid.name!r}"
        )
    np = kernel.np
    interner = _SnapshotInterner(task["interner_len"])
    view_class = columnar_relation_class(kernel)
    live: dict[str, object] = {}
    for entry in task["relations"]:
        lo, hi = entry["lo"], entry["hi"]
        columns = tuple(
            _attach_view(transport, lo, hi, np)
            for transport in entry["columns"]
        )
        annotations = _attach_view(entry["annotations"], lo, hi, np)
        atom = entry["atom"]
        live[atom.relation] = view_class(
            atom, kernel, columns, annotations, interner
        )
    plan: Plan = task["plan"]
    annihilates = monoid.annihilates
    max_live = sum(len(relation) for relation in live.values())
    for step in plan.steps:
        if isinstance(step, ProjectStep):
            source = live.pop(step.source.relation)
            produced = source.project_out(step.variable, step.target)
        else:
            assert isinstance(step, MergeStep)
            first = live.pop(step.first.relation)
            second = live.pop(step.second.relation)
            build, probe = _merge_operands(first, second, annihilates)
            produced = build.merge(probe, step.target)
        live[step.target.relation] = produced
        max_live = max(
            max_live, sum(len(relation) for relation in live.values())
        )
    final = live[plan.final_relation]
    return final.nullary_annotation(), max_live


# ----------------------------------------------------------------------
# Parent side: dispatch, retry/respawn, final ⊕-fold
# ----------------------------------------------------------------------
def _run_shard_tasks(tasks: list[dict]) -> list[tuple]:
    """Submit every shard task, surviving pool breakage by rebuilding.

    A SIGKILLed (or otherwise dead) pool process marks the whole
    ``ProcessPoolExecutor`` broken; the executor never self-heals, so the
    respawn lives here — retire the broken pool and resubmit the *entire*
    batch on a fresh one (shard results are deterministic, so re-execution
    is free of double-count hazards).  A dispatch whose pool another
    thread retired meanwhile (its futures cancelled, or submission refused
    after shutdown) simply retries on the current pool.  After
    ``attempts`` breakages the last error propagates and the caller
    delegates to the array tier.
    """
    attempts = 3
    while True:
        pool = _get_pool()
        _maybe_inject_fault(pool)
        try:
            futures = [pool.submit(_execute_shard, task) for task in tasks]
            return [
                future.result(timeout=SHARD_TASK_TIMEOUT)
                for future in futures
            ]
        except FuturesTimeoutError as exc:
            _retire_pool(pool)
            raise ReproError(
                f"sharded tier timed out after {SHARD_TASK_TIMEOUT}s"
            ) from exc
        except BrokenPoolError:
            _retire_pool(pool)
            attempts -= 1
            if not attempts:
                raise
        except (CancelledError, RuntimeError):
            if _is_current_pool(pool):
                raise


try:  # concurrent.futures.process is stdlib, but keep the tier importable
    from concurrent.futures.process import BrokenProcessPool as BrokenPoolError
except Exception:  # pragma: no cover - no multiprocessing support
    class BrokenPoolError(Exception):
        pass


def maybe_execute_sharded(plan: Plan, annotated, kernel):
    """Try the sharded tier; ``(result, max_live)`` or ``None`` to delegate.

    Delegation (→ array tier, which reuses the columnar views materialized
    here) happens when the query has no shard-root variable, the plan is
    step-free, the input is under the rows × carrier-width threshold, or
    the pool fails beyond repair.  ``OverflowError`` from view
    materialization propagates so the caller's decline bookkeeping fires
    exactly as for the array tier.
    """
    root = shard_root(plan.query)
    if root is None:
        _count("delegated_root")
        return None
    if not plan.steps:
        _count("delegated_steps")
        return None
    views = {
        relation.atom.relation: annotated.columnar_relation(
            relation.atom.relation, kernel
        )
        for relation in annotated.relations()
    }
    rows = sum(len(view) for view in views.values())
    width = max(
        (
            int(view.annotations.shape[-1])
            for view in views.values()
            if view.annotations.ndim > 1
        ),
        default=1,
    )
    if rows * width < _shard_threshold:
        _count("delegated_threshold")
        return None
    shards = shard_count()
    root_positions = {
        atom.relation: atom.variables.index(root)
        for atom in plan.query.atoms
    }
    monoid = kernel.monoid
    global _last_error
    try:
        export = annotated.shard_export(kernel, shards, root_positions)
        payload_monoid = monoid_payload(monoid)
        tasks = [
            {
                "plan": plan,
                "monoid": payload_monoid,
                "interner_len": export.interner_len,
                "relations": export.task_payload(shard),
            }
            for shard in range(shards)
        ]
        outcomes = _run_shard_tasks(tasks)
    except OverflowError:
        raise
    except Exception as exc:
        with _stats_lock:
            _last_error = f"{type(exc).__name__}: {exc}"
        _count("fallbacks")
        return None
    values = [outcome[0] for outcome in outcomes]
    folded = kernel_for(monoid).fold_add([values])[0]
    max_live = sum(outcome[1] for outcome in outcomes)
    _count("dispatches")
    _count("shards_run", len(tasks))
    return folded, max_live
