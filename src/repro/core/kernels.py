"""Batched 2-monoid kernels: the execution engine behind ``KRelation``.

Algorithm 1 spends essentially all of its time in two shapes of work:

* **⊕-folds over groups** — Rule 1 groups the support of a relation by the
  surviving positions and ⊕-folds each group (``project_out``);
* **aligned ⊗-products** — Rule 2 pairs up annotations tuple-by-tuple and
  ⊗-multiplies each pair (``merge`` / ``absorb``).

The scalar path dispatches one dynamic ``monoid.add``/``monoid.mul`` call per
element.  A :class:`MonoidKernel` instead receives the *whole batch* at once,
which lets carrier-specific implementations amortize dispatch, use Python
built-ins (``sum``, ``min``, ``max``, ``math.prod``) that run the loop in C,
and — for the Shapley 2-monoid — replace per-pair quadratic convolutions with
one big-integer multiplication (see :mod:`repro.algebra.shapley`).

Design:

* :class:`GenericKernel` is the always-correct fallback: it delegates to the
  scalar ``TwoMonoid.add``/``mul`` with identity fast paths
  (``is_zero``/``is_one``) in the ⊗ loop.  Wrapper monoids such as
  :class:`~repro.core.instrument.CountingMonoid` resolve to it, so operation
  counting keeps working.
* Concrete monoids register specialized kernels at import time via
  :func:`register_kernel` (the registrations live next to the monoids in
  :mod:`repro.algebra`).  Lookup walks the MRO, so subclasses such as
  :class:`~repro.algebra.probability.ExactProbabilityMonoid` inherit their
  parent's kernel exactly when they inherit its ``add``/``mul``.
* :func:`scalar_kernels` is a context manager that forces the generic kernel
  everywhere — the benchmark suite uses it to measure scalar-vs-kernel
  speedups on identical code paths (``execute_plan(kernel_mode="scalar")``).

On top of the batched tier sits an optional third, **columnar** tier: when
numpy is importable and the monoid registers an :class:`ArrayKernel`, it
supplies the vectorized ⊕-fold (``ufunc.reduceat`` over sorted group
boundaries) and elementwise ⊗ that the columnar relation layout in
:mod:`repro.db.annotated` drives.  numpy is an *optional* dependency:
:func:`numpy_or_none` guards the import, the exact rational carriers
(Fractions) and provenance trees never get an array kernel, and every
caller falls back to the batched tier when :func:`array_kernel_for`
returns ``None``.

Vector carriers — the bag-set and Shapley monoids, whose elements are
fixed-length coefficient vectors — get a third shape of array kernel:
:class:`VectorArrayKernel`, whose annotations are *packed rows* of a 2-D
array driven by :class:`~repro.db.annotated.PackedColumnarKRelation`.
Registration and resolution are identical; only the annotation layout (and
therefore the row hooks) differs.

Every kernel must be *extensionally equal* to the scalar path on its monoid
(same outputs, up to ``monoid.eq``); ``tests/test_kernels.py`` and
``tests/test_array_kernels.py`` check this property on randomized relations
for every bundled monoid.

Example — resolve a batched kernel and run the two batch shapes:

>>> from repro.algebra.counting import CountingSemiring
>>> from repro.core.kernels import kernel_for, scalar_kernels
>>> kernel = kernel_for(CountingSemiring())
>>> kernel.fold_add([[2, 3], [4]])      # ⊕-fold each group (Rule 1)
[5, 4]
>>> kernel.mul_aligned([2, 3], [5, 7])  # aligned ⊗-products (Rule 2)
[10, 21]
>>> with scalar_kernels():              # the perf suite's scalar baseline
...     type(kernel_for(CountingSemiring())).__name__
'GenericKernel'
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, Sequence

from repro.algebra.base import K, TwoMonoid

KernelFactory = Callable[[TwoMonoid], "MonoidKernel"]
ArrayKernelFactory = Callable[[TwoMonoid, object], "Optional[ArrayKernel]"]

# ----------------------------------------------------------------------
# Optional numpy (the columnar tier's only dependency)
# ----------------------------------------------------------------------
_NUMPY_UNRESOLVED = object()
_numpy_module: object = _NUMPY_UNRESOLVED


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it is not importable.

    The probe result is cached for the life of the process;
    :func:`_reset_numpy_probe` (tests only) re-runs it, so a test can block
    the import via ``sys.modules`` and exercise the no-numpy fallback.
    The first probe runs under the registry lock: a thread that imports
    numpy while another's import of it is failing can be handed the
    half-initialized module.
    """
    global _numpy_module
    module = _numpy_module
    if module is _NUMPY_UNRESOLVED:
        with _registry_lock:
            if _numpy_module is _NUMPY_UNRESOLVED:
                try:
                    import numpy
                except ImportError:
                    numpy = None
                _numpy_module = numpy
            module = _numpy_module
    return module


def _reset_numpy_probe() -> None:
    """Forget the cached numpy probe (tests re-probe under a blocked import)."""
    global _numpy_module, _ARRAY_REGISTRY_VERSION
    with _registry_lock:
        _numpy_module = _NUMPY_UNRESOLVED
        # Array kernels close over the probed module; invalidate their caches.
        _ARRAY_REGISTRY_VERSION += 1


class MonoidKernel(Generic[K]):
    """Batched operations over one 2-monoid instance.

    Subclasses override :meth:`mul_aligned` and either :meth:`fold_add`
    (whole-batch specializations) or just the scalar :meth:`_add` hook the
    default left-fold consumes; every override must agree with the scalar
    fold/product over ``monoid.add``/``monoid.mul``.
    """

    def __init__(self, monoid: TwoMonoid[K]):
        self.monoid = monoid

    def _add(self, left: K, right: K) -> K:
        """Scalar ⊕ used by the default :meth:`fold_add` (override for fast
        paths without rewriting the fold loop)."""
        return self.monoid.add(left, right)

    def fold_add(self, groups: Sequence[Sequence[K]]) -> list[K]:
        """⊕-fold each group left-to-right; every group must be non-empty."""
        add = self._add
        out = []
        for group in groups:
            iterator = iter(group)
            result = next(iterator)
            for item in iterator:
                result = add(result, item)
            out.append(result)
        return out

    def mul_aligned(self, lefts: Sequence[K], rights: Sequence[K]) -> list[K]:
        """Pairwise ``lefts[i] ⊗ rights[i]``; the sequences are equal-length."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Bulk ψ-annotation (the Definitions 5.10/5.15 database build)
    # ------------------------------------------------------------------
    def map_annotations(self, annotation_of: Callable[[object], K], facts: Sequence) -> list[K]:
        """ψ over a whole batch of facts in one pass.

        The default is a single list comprehension — one C-level loop driving
        the Python-level ψ — which :meth:`KDatabase.bulk_annotate` calls once
        per relation instead of once per fact.
        """
        return [annotation_of(fact) for fact in facts]

    def annotation_is_zero(self) -> Callable[[K], bool]:
        """The ⊕-identity test :meth:`annotate_support` filters with.

        Returns a plain closure (built once per batch) that tries an identity
        comparison against ``monoid.zero`` before falling back to
        :meth:`TwoMonoid.is_zero`.  Kernels may override *this* — never
        :meth:`annotate_support` itself — when their carrier affords a
        cheaper classification (e.g. the Shapley ψ-spikes); the staging
        semantics live in exactly one place.
        """
        zero = self.monoid.zero
        is_zero = self.monoid.is_zero
        return lambda annotation: annotation is zero or is_zero(annotation)

    def annotate_support(
        self, keys: Sequence, annotations: Sequence[K]
    ) -> dict:
        """Build a support mapping from aligned ``(key, ψ)`` batches.

        Matches the semantics of repeated :meth:`KRelation.set` calls: a later
        occurrence of a key wins, and ⊕-identity annotations are dropped (a
        trailing zero deletes earlier occurrences of its key).  The mapping is
        built with one ``dict`` constructor call and filtered with
        :meth:`annotation_is_zero`.
        """
        staged = dict(zip(keys, annotations))
        drop = self.annotation_is_zero()
        dropped = [
            key for key, annotation in staged.items() if drop(annotation)
        ]
        for key in dropped:
            del staged[key]
        return staged

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self.monoid.name!r}>"


class GenericKernel(MonoidKernel[K]):
    """Scalar fallback: per-element ``monoid.add``/``monoid.mul`` dispatch.

    Groups are folded left-to-right starting from their first element — the
    pre-kernel execution order.  The ⊗ loop short-circuits on ⊗-identity
    operands and, for annihilating monoids, on ⊕-identity operands, so
    instrumentation wrappers (:class:`~repro.core.instrument.CountingMonoid`)
    may observe *fewer* ⊗ applications than the historical per-tuple engine —
    never more, and never in a different order — which keeps the Theorem 6.7
    O(|D|) operation bound (an upper bound) observable.
    """

    def mul_aligned(self, lefts: Sequence[K], rights: Sequence[K]) -> list[K]:
        monoid = self.monoid
        mul = monoid.mul
        is_one = monoid.is_one
        is_zero = monoid.is_zero
        annihilates = monoid.annihilates
        zero = monoid.zero
        out = []
        for left, right in zip(lefts, rights):
            if is_one(right):
                out.append(left)
            elif is_one(left):
                out.append(right)
            elif annihilates and (is_zero(left) or is_zero(right)):
                out.append(zero)
            else:
                out.append(mul(left, right))
        return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[type, KernelFactory] = {}
_REGISTRY_VERSION = 0
#: Serializes registry mutation (both registries share it: registrations are
#: rare, lookups are lock-free dict reads).  The serving layer's worker
#: threads resolve kernels concurrently, so the mutation side must never
#: leave either mapping in a partially-updated state.
_registry_lock = threading.RLock()
#: Per-thread :func:`scalar_kernels` forcing.  Thread-local rather than a
#: process global so one worker timing the scalar tier never flips another
#: concurrently-running worker off its batched/columnar tier (and the
#: restore on block exit cannot race a second thread's save).
_force_generic = threading.local()


def _forced_generic() -> bool:
    return getattr(_force_generic, "value", False)


def register_kernel(monoid_type: type, factory: KernelFactory) -> None:
    """Register *factory* as the kernel builder for *monoid_type*.

    The factory receives the monoid instance (kernels may depend on instance
    parameters such as the Shapley vector length).  Registration is keyed by
    class and resolved along the MRO, so only register a subclass separately
    when it overrides ``add``/``mul``.
    """
    global _REGISTRY_VERSION
    with _registry_lock:
        _REGISTRY[monoid_type] = factory
        _REGISTRY_VERSION += 1


def kernel_for(monoid: TwoMonoid[K]) -> MonoidKernel[K]:
    """The kernel serving *monoid*: its registered one, or the generic fallback.

    The built kernel is memoized on the monoid instance itself (its lifetime
    is exactly the monoid's — no global cache to leak), invalidated when the
    registry changes.  Inside a :func:`scalar_kernels` block every monoid
    gets the generic (scalar-dispatch) kernel regardless of registrations.
    """
    if _forced_generic():
        return GenericKernel(monoid)
    cached = getattr(monoid, "_kernel_cache", None)
    if cached is not None and cached[0] == _REGISTRY_VERSION:
        return cached[1]
    factory: KernelFactory = GenericKernel
    for klass in type(monoid).__mro__:
        registered = _REGISTRY.get(klass)
        if registered is not None:
            factory = registered
            break
    kernel = factory(monoid)
    try:
        monoid._kernel_cache = (_REGISTRY_VERSION, kernel)
    except AttributeError:  # slots/frozen monoid: rebuild per call
        pass
    return kernel


@contextmanager
def scalar_kernels() -> Iterator[None]:
    """Force the generic scalar kernel everywhere inside the block.

    Used by the perf suite to time the scalar baseline on the exact same
    batched execution path, isolating the kernel contribution.  The forcing
    is **per thread**: ``execute_plan(kernel_mode="scalar")`` enters this
    block on whichever worker thread runs it, without perturbing the tier
    of plans executing concurrently on other threads.
    """
    previous = _forced_generic()
    _force_generic.value = True
    try:
        yield
    finally:
        _force_generic.value = previous


def kernels_forced_scalar() -> bool:
    """True inside a :func:`scalar_kernels` block (for tests/diagnostics)."""
    return _forced_generic()


# ----------------------------------------------------------------------
# Array kernels: the columnar (numpy) tier
# ----------------------------------------------------------------------
class ArrayKernel(Generic[K]):
    """Vectorized operations over one *flat-carrier* 2-monoid.

    Where a :class:`MonoidKernel` receives Python lists, an ``ArrayKernel``
    receives numpy arrays: annotation columns of the columnar relation layout
    (:class:`repro.db.annotated.ColumnarKRelation`).  Subclasses set
    :attr:`dtype` and implement the two batched shapes of Algorithm 1:

    * :meth:`fold_groups` — Rule 1: ⊕-reduce contiguous segments of a sorted
      annotation array, one segment per surviving key (``ufunc.reduceat``);
    * :meth:`mul_arrays` — Rule 2: elementwise ⊗ of two aligned columns.

    Plus :meth:`zero_mask`, the vectorized ⊕-identity test used to keep the
    support invariant (annotations equal to ``monoid.zero`` are dropped).
    Every method must agree with the scalar ``monoid.add``/``mul`` up to the
    monoid's equality tolerance — bit-identically for int/bool carriers,
    where reduction order cannot change the result.
    """

    #: numpy dtype of the annotation column (set by subclasses).
    dtype: object = None

    def __init__(self, monoid: TwoMonoid[K], np):
        self.monoid = monoid
        self.np = np

    # -- conversion ----------------------------------------------------
    def to_array(self, annotations: Sequence[K]):
        """Pack a batch of carrier scalars into one annotation column.

        May raise ``OverflowError`` for values outside the dtype's range
        (e.g. Python ints beyond int64); callers treat that as "this
        database is not columnar-representable" and fall back to the
        batched tier.
        """
        return self.np.asarray(annotations, dtype=self.dtype)

    def empty_column(self):
        return self.np.empty(0, dtype=self.dtype)

    def to_scalar(self, value) -> K:
        """One numpy scalar back to the native Python carrier."""
        return value.item()

    def to_scalars(self, column) -> list:
        """A whole annotation column back to native Python scalars."""
        return column.tolist()

    # -- the two batched operations ------------------------------------
    def fold_groups(self, annotations, starts):
        """⊕-reduce ``annotations[starts[i]:starts[i+1]]`` for every ``i``.

        *annotations* is already permuted into group order and *starts*
        (``intp``, strictly increasing, ``starts[0] == 0``) marks each
        group's first index; the last group runs to the end of the array.
        """
        raise NotImplementedError

    def mul_arrays(self, lefts, rights):
        """Elementwise ``lefts[i] ⊗ rights[i]`` over aligned columns."""
        raise NotImplementedError

    def zero_mask(self, column):
        """Boolean mask of entries equal to the ⊕-identity (``monoid.zero``)."""
        return column == self.monoid.zero

    # -- layout hooks (overridden by packed-row kernels) ----------------
    #: Whether annotations are packed multi-slot rows (2-D/3-D arrays) —
    #: the columnar layer then builds
    #: :class:`~repro.db.annotated.PackedColumnarKRelation` views.
    packed_rows = False

    def where_rows(self, found, matched):
        """*matched* with rows where ``~found`` replaced by ``monoid.zero``.

        The union-merge helper: probe rows missing from the other side get
        the ⊕-identity annotation (``a ⊗ 0`` need not be ``0`` in a general
        2-monoid).  Scalar columns use one ``np.where``; packed-row kernels
        override with a row-wise assignment.
        """
        return self.np.where(found, matched, self.monoid.zero)

    def concat_rows(self, first, second):
        """Concatenate two annotation arrays along the row axis.

        Packed-row kernels override to reconcile differing slot widths
        before concatenating.
        """
        return self.np.concatenate([first, second])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self.monoid.name!r}>"


class ExactObjectArrayKernel(ArrayKernel[K]):
    """Array kernel over ``dtype=object`` columns of exact Python values.

    Unbounded-int carriers (counting, (max, ×)) must never be squeezed into
    a fixed-width dtype: int64 arithmetic *wraps silently* on overflow,
    which would corrupt answers under the default ``auto`` tier with no
    exception to trigger the batched fallback.  Object columns keep the
    numpy grouping/alignment machinery (the key columns stay int64) while
    the ⊕/⊗ arithmetic runs on the stored Python ints — exact at any
    magnitude, still one C-dispatched loop per batch instead of a Python
    call per tuple.
    """

    dtype = object

    def to_scalar(self, value) -> K:
        # Object columns store the carrier value itself, not a numpy scalar.
        return value


class VectorArrayKernel(ArrayKernel[K]):
    """Array kernel over *vector* carriers packed as 2-D annotation rows.

    Where a scalar :class:`ArrayKernel` stores one annotation per array
    entry, a vector kernel packs each carrier vector into one **row** of a
    2-D (or, for the two-slice Shapley carrier, 3-D) array: one column per
    vector slot, trimmed to the widest slot actually used.  The columnar
    relation layer (:class:`~repro.db.annotated.PackedColumnarKRelation`)
    only ever indexes, filters and concatenates whole rows, so all the key
    grouping and alignment machinery is shared with the scalar tier; the
    per-row ⊕/⊗ arithmetic — batched sliding-window convolutions with a
    guarded ``int64`` fast path and an exact fallback — lives in the
    concrete kernels next to their monoids (:mod:`repro.algebra.bagset`,
    :mod:`repro.algebra.shapley`), built on :mod:`repro.algebra.packed`.

    Subclasses implement :meth:`zero_row` (the ⊕-identity as one packed
    row) on top of the scalar-kernel contract.
    """

    packed_rows = True

    def zero_row(self, width):
        """``monoid.zero`` packed as a single row of *width* slots."""
        raise NotImplementedError

    def pad_rows(self, rows, width):
        """Right-pad the slot axis to *width* (trailing slots are zeros)."""
        from repro.algebra.packed import pad_rows

        return pad_rows(self.np, rows, width)

    def where_rows(self, found, matched):
        out = matched.copy()
        out[~found] = self.zero_row(matched.shape[-1])
        return out

    def concat_rows(self, first, second):
        np = self.np
        width = max(first.shape[-1], second.shape[-1])
        return np.concatenate(
            [self.pad_rows(first, width), self.pad_rows(second, width)]
        )


_ARRAY_REGISTRY: dict[type, ArrayKernelFactory] = {}
_ARRAY_REGISTRY_VERSION = 0


def register_array_kernel(
    monoid_type: type, factory: ArrayKernelFactory
) -> None:
    """Register *factory* as the array-kernel builder for *monoid_type*.

    The factory receives the monoid instance and the probed numpy module; it
    may return ``None`` to decline (the standard guard for subclasses whose
    carrier is not the flat scalar the kernel vectorizes — e.g. the exact
    rational probability/real monoids, which inherit ``add``/``mul`` but
    carry :class:`~fractions.Fraction`).  Resolution walks the MRO exactly
    like :func:`register_kernel`.
    """
    global _ARRAY_REGISTRY_VERSION
    with _registry_lock:
        _ARRAY_REGISTRY[monoid_type] = factory
        _ARRAY_REGISTRY_VERSION += 1


def array_kernel_for(monoid: TwoMonoid[K]) -> ArrayKernel[K] | None:
    """The array kernel serving *monoid*, or ``None``.

    ``None`` — meaning "use the batched tier" — when numpy is not
    importable, inside a :func:`scalar_kernels` block, when no factory is
    registered along the monoid's MRO, or when the registered factory
    declines the instance.  The result is memoized on the monoid instance,
    invalidated when the registry (or the numpy probe) changes.
    """
    if _forced_generic() or numpy_or_none() is None:
        return None
    cached = getattr(monoid, "_array_kernel_cache", None)
    if cached is not None and cached[0] == _ARRAY_REGISTRY_VERSION:
        return cached[1]
    kernel: ArrayKernel | None = None
    for klass in type(monoid).__mro__:
        factory = _ARRAY_REGISTRY.get(klass)
        if factory is not None:
            kernel = factory(monoid, numpy_or_none())
            break
    try:
        monoid._array_kernel_cache = (_ARRAY_REGISTRY_VERSION, kernel)
    except AttributeError:  # slots/frozen monoid: rebuild per call
        pass
    return kernel
