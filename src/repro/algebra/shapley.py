"""The ``#Sat`` 2-monoid for Shapley value computation (Definition 5.14).

Elements are vectors over ``N × B``: ``x(i, b)`` counts the size-``i`` subsets
of the endogenous facts under a formula that make it evaluate to ``b``.  We
store an element as a pair of integer tuples (the ``b = false`` and
``b = true`` slices), truncated at ``length = |Dn| + 1`` entries.

The operations (Eqs. 15 and 16) are convolutions over the budget index
combined with the Boolean operation on the flag:

* ⊕ pairs flags with ∨:  ``zF = xF*yF``;  ``zT = xF*yT + xT*yF + xT*yT``
* ⊗ pairs flags with ∧:  ``zT = xT*yT``;  ``zF = xF*yF + xF*yT + xT*yF``

where ``*`` is ordinary (+, ×) truncated convolution over exact Python ints.

This 2-monoid famously does **not** satisfy annihilation-by-zero:
``a ⊗ 0 ≠ 0`` in general (the paper highlights this right after
Definition 5.14).  Consequently the annotated-relation join in
:mod:`repro.db.annotated` must evaluate tuples present on *either* side of a
Rule 2 merge, not only on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.algebra.base import TwoMonoid
from repro.algebra.packed import (
    INT64_SAFE,
    PackedOverflow,
    fold_segments,
    max_value,
    sum_conv,
)
from repro.core.kernels import (
    MonoidKernel,
    VectorArrayKernel,
    kernel_for,
    register_array_kernel,
    register_kernel,
)
from repro.exceptions import AlgebraError


@dataclass(frozen=True)
class SatVector:
    """One element of the Definition 5.14 carrier.

    Attributes
    ----------
    false_counts:
        ``x(i, false)`` for ``i = 0 .. length-1``.
    true_counts:
        ``x(i, true)`` for ``i = 0 .. length-1``.
    """

    false_counts: tuple[int, ...]
    true_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.false_counts) != len(self.true_counts):
            raise AlgebraError(
                "false/true slices of a SatVector must have equal length"
            )

    @property
    def length(self) -> int:
        return len(self.true_counts)

    def sat_count(self, size: int) -> int:
        """``#Sat(k)``: number of size-*size* endogenous subsets satisfying Q."""
        return self.true_counts[size]

    def __str__(self) -> str:
        return f"SatVector(false={self.false_counts}, true={self.true_counts})"


def _convolve(left: Sequence[int], right: Sequence[int], length: int) -> list[int]:
    """(+, ×) convolution truncated to *length* entries (exact ints)."""
    out = [0] * length
    for i, left_value in enumerate(left):
        if not left_value:
            continue
        limit = length - i
        for j in range(min(len(right), limit)):
            right_value = right[j]
            if right_value:
                out[i + j] += left_value * right_value
    return out


def _add_into(target: list[int], extra: Sequence[int]) -> None:
    for index, value in enumerate(extra):
        target[index] += value


def kron_convolve(
    left: Sequence[int],
    right: Sequence[int],
    length: int,
    *,
    pack=None,
) -> list[int]:
    """(+, ×) convolution truncated to *length* via Kronecker substitution.

    Packs each operand's (non-negative) coefficients into fixed-width byte
    slots of one big Python int, multiplies once, and unpacks the product's
    slots.  The slot width is chosen from the a-priori coefficient bound
    ``min(n1, n2) · max(left) · max(right)`` so no slot ever carries into its
    neighbour, making the result exactly equal to :func:`_convolve`.  One
    CPython big-int multiply is subquadratic (Karatsuba) and runs entirely in
    C, which is what buys the Shapley kernel its speedup over the four
    per-pair Python convolution loops.

    Operands are trimmed to their true degree first (ψ-annotations like ★
    are 2-term polynomials inside length-(|Dn|+1) vectors), so packing and
    unpacking cost scales with the actual support of the product rather than
    the truncation length; degenerate shapes (empty, constant) short-circuit
    without any big-int work.

    Coefficients must be non-negative (the ``#Sat`` carrier guarantees it);
    negative inputs raise ``OverflowError`` during packing.

    *pack* overrides the packing routine ``(values, count, width) -> int``;
    :class:`ShapleyKernel` passes a caching wrapper so big-int operands are
    packed once and reused across fold steps (see :meth:`ShapleyKernel._pack`).
    """
    if pack is None:
        pack = _kron_pack
    n1 = min(len(left), length)
    n2 = min(len(right), length)
    while n1 and not left[n1 - 1]:
        n1 -= 1
    while n2 and not right[n2 - 1]:
        n2 -= 1
    if not n1 or not n2:
        return [0] * length
    if n1 == 1:
        scale = left[0]
        out = [scale * right[j] for j in range(n2)]
    elif n2 == 1:
        scale = right[0]
        out = [scale * left[i] for i in range(n1)]
    else:
        max_left = max(left[:n1])
        max_right = max(right[:n2])
        if not max_left or not max_right:
            return [0] * length
        bound = min(n1, n2) * max_left * max_right
        width = (bound.bit_length() + 7) // 8
        product = pack(left, n1, width) * pack(right, n2, width)
        out_length = min(length, n1 + n2 - 1)
        raw = product.to_bytes((n1 + n2) * width, "little")
        out = [
            int.from_bytes(raw[i * width : (i + 1) * width], "little")
            for i in range(out_length)
        ]
    if len(out) < length:
        out.extend([0] * (length - len(out)))
    return out


def _kron_pack(values: Sequence[int], count: int, width: int) -> int:
    """Pack ``values[:count]`` into *width*-byte little-endian slots."""
    buffer = bytearray(count * width)
    for index in range(count):
        value = values[index]
        if value:
            buffer[index * width : index * width + width] = value.to_bytes(
                width, "little"
            )
    return int.from_bytes(buffer, "little")


class ShapleyMonoid(TwoMonoid[SatVector]):
    """The Definition 5.14 2-monoid with vectors truncated to a fixed length.

    Parameters
    ----------
    length:
        Number of stored budget entries; ``|Dn|`` endogenous facts need
        ``length = |Dn| + 1``.
    """

    name = "#Sat / Shapley"

    def __init__(self, length: int):
        if length < 1:
            raise AlgebraError("ShapleyMonoid needs at least one vector entry")
        self._length = length
        spike = (1,) + (0,) * (length - 1)
        flat = (0,) * length
        self._zero_vector = SatVector(false_counts=spike, true_counts=flat)
        self._one_vector = SatVector(false_counts=flat, true_counts=spike)
        star_true = (0, 1) + (0,) * (length - 2) if length > 1 else (0,)
        self._star_vector = SatVector(false_counts=spike, true_counts=star_true)

    @property
    def length(self) -> int:
        return self._length

    # ------------------------------------------------------------------
    # Distinguished elements
    # ------------------------------------------------------------------
    @property
    def zero(self) -> SatVector:
        """0: the empty subset (and only it), evaluating to false."""
        return self._zero_vector

    @property
    def one(self) -> SatVector:
        """1: the empty subset (and only it), evaluating to true — an exogenous fact."""
        return self._one_vector

    @property
    def star(self) -> SatVector:
        """★: an endogenous fact — false if excluded (size 0), true if included (size 1)."""
        return self._star_vector

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def add(self, left: SatVector, right: SatVector) -> SatVector:
        """Eq. (15): flags combine with ∨.

        Identity/absorbing spikes short-circuit without convolving:
        ``0 ⊕ y = y`` and ``1 ⊕ y`` merely ∨-collapses ``y``'s flag slices
        (``zF = 0``, ``zT = yF + yT``).  Exogenous-heavy ψ-annotations hit
        these constantly.
        """
        self._check(left)
        self._check(right)
        if left == self._zero_vector:
            return right
        if right == self._zero_vector:
            return left
        if left == self._one_vector:
            return self._or_collapse(right)
        if right == self._one_vector:
            return self._or_collapse(left)
        false_counts = _convolve(left.false_counts, right.false_counts, self._length)
        true_counts = _convolve(left.false_counts, right.true_counts, self._length)
        _add_into(true_counts, _convolve(left.true_counts, right.false_counts, self._length))
        _add_into(true_counts, _convolve(left.true_counts, right.true_counts, self._length))
        return SatVector(tuple(false_counts), tuple(true_counts))

    def mul(self, left: SatVector, right: SatVector) -> SatVector:
        """Eq. (16): flags combine with ∧.

        Mirror-image fast paths: ``1 ⊗ y = y`` and ``0 ⊗ y`` ∧-collapses
        (``zT = 0``, ``zF = yF + yT``) — note the latter is *not* ``0``; the
        Shapley 2-monoid does not annihilate.
        """
        self._check(left)
        self._check(right)
        if left == self._one_vector:
            return right
        if right == self._one_vector:
            return left
        if left == self._zero_vector:
            return self._and_collapse(right)
        if right == self._zero_vector:
            return self._and_collapse(left)
        true_counts = _convolve(left.true_counts, right.true_counts, self._length)
        false_counts = _convolve(left.false_counts, right.false_counts, self._length)
        _add_into(false_counts, _convolve(left.false_counts, right.true_counts, self._length))
        _add_into(false_counts, _convolve(left.true_counts, right.false_counts, self._length))
        return SatVector(tuple(false_counts), tuple(true_counts))

    def _or_collapse(self, vector: SatVector) -> SatVector:
        """``1 ⊕ vector``: every subset now evaluates to true."""
        merged = tuple(
            f + t for f, t in zip(vector.false_counts, vector.true_counts)
        )
        return SatVector(false_counts=(0,) * self._length, true_counts=merged)

    def _and_collapse(self, vector: SatVector) -> SatVector:
        """``0 ⊗ vector``: every subset now evaluates to false."""
        merged = tuple(
            f + t for f, t in zip(vector.false_counts, vector.true_counts)
        )
        return SatVector(false_counts=merged, true_counts=(0,) * self._length)

    @property
    def annihilates(self) -> bool:
        """False: ``a ⊗ 0 ≠ 0`` in general (noted after Definition 5.14)."""
        return False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check(self, vector: SatVector) -> None:
        if vector.length != self._length:
            raise AlgebraError(
                f"SatVector of length {vector.length} used in a "
                f"ShapleyMonoid of length {self._length}"
            )

    def validate(self, vector: SatVector) -> SatVector:
        self._check(vector)
        negatives = [
            v for v in (*vector.false_counts, *vector.true_counts) if v < 0
        ]
        if negatives:
            raise AlgebraError(f"{vector} has negative counts")
        return vector


#: Bound on each per-kernel reuse cache; on overflow the cache is cleared
#: wholesale (the workloads re-warm it within one fold step).
KERNEL_CACHE_LIMIT = 1 << 14


class ShapleyKernel(MonoidKernel[SatVector]):
    """Batched ``#Sat`` operations via Kronecker-substitution convolution.

    Each scalar ⊕/⊗ needs four truncated convolutions (Eqs. 15/16).  The
    kernel needs only **two** big-int multiplies per operation, using the
    marginal identity ``(xF + xT) * (yF + yT) = zF + zT`` (every output
    subset carries exactly one flag): compute the total ``S`` and one flag
    slice directly, then recover the other slice as ``S − slice`` — exact,
    since all counts are non-negative integers.  Combined with
    :func:`kron_convolve` this turns ``O(n²)`` Python loops into a handful
    of C-level big-int multiplications, while remaining bit-identical to
    the scalar :class:`ShapleyMonoid` path.

    The kernel additionally keeps three bounded reuse caches, keyed by the
    (immutable) operand vectors:

    * ``packed`` — Kronecker-packed big-int operands per ``(coeffs, width)``,
      so a vector appearing in many ⊕/⊗ applications is packed once and its
      big int reused across fold steps instead of re-packed at every ⊕;
    * ``totals`` — the marginal slice ``xF + xT`` per vector;
    * ``products`` — whole ⊕/⊗ results per operand pair (Rule 2 merges
      re-pair the same annotations across many tuples).

    Kernels are memoized on their monoid instance (see
    :func:`repro.core.kernels.kernel_for`), so an
    :class:`~repro.engine.session.EngineSession` that pins one
    :class:`ShapleyMonoid` keeps these caches warm across *every* evaluation
    request it answers — the packed-state reuse the session API exists for.
    All cached values are exact immutable ints/tuples; hits are bit-identical
    to recomputation.
    """

    def __init__(self, monoid: ShapleyMonoid):
        super().__init__(monoid)
        self._length = monoid.length
        self._zero = monoid.zero
        self._one = monoid.one
        self._star = monoid.star
        self._pack_cache: dict[tuple, int] = {}
        self._totals_cache: dict[SatVector, tuple[int, ...]] = {}
        self._product_cache: dict[tuple, SatVector] = {}
        self._pack_hits = 0
        self._pack_misses = 0

    def cache_info(self) -> dict[str, int]:
        """Sizes and hit counters of the reuse caches (tests/diagnostics)."""
        return {
            "packed": len(self._pack_cache),
            "pack_hits": self._pack_hits,
            "pack_misses": self._pack_misses,
            "totals": len(self._totals_cache),
            "products": len(self._product_cache),
        }

    def clear_caches(self) -> None:
        """Drop every cached packed operand, total and product."""
        self._pack_cache.clear()
        self._totals_cache.clear()
        self._product_cache.clear()
        self._pack_hits = 0
        self._pack_misses = 0

    # -- reuse caches ----------------------------------------------------
    def _pack(self, values: Sequence[int], count: int, width: int) -> int:
        """Caching :func:`_kron_pack`: one packing per ``(coeffs, width)``."""
        if isinstance(values, tuple) and len(values) == count:
            coeffs = values
        else:
            coeffs = tuple(values[:count])
        key = (coeffs, width)
        packed = self._pack_cache.get(key)
        if packed is None:
            self._pack_misses += 1
            if len(self._pack_cache) >= KERNEL_CACHE_LIMIT:
                self._pack_cache.clear()
            packed = _kron_pack(coeffs, count, width)
            self._pack_cache[key] = packed
        else:
            self._pack_hits += 1
        return packed

    def _convolve(self, left: Sequence[int], right: Sequence[int]) -> list[int]:
        return kron_convolve(left, right, self._length, pack=self._pack)

    # -- scalar building blocks (with the same spike fast paths) --------
    def _totals(self, vector: SatVector) -> tuple[int, ...]:
        totals = self._totals_cache.get(vector)
        if totals is None:
            if len(self._totals_cache) >= KERNEL_CACHE_LIMIT:
                self._totals_cache.clear()
            totals = tuple(
                f + t for f, t in zip(vector.false_counts, vector.true_counts)
            )
            self._totals_cache[vector] = totals
        return totals

    def _cache_product(self, key: tuple, result: SatVector) -> SatVector:
        if len(self._product_cache) >= KERNEL_CACHE_LIMIT:
            self._product_cache.clear()
        self._product_cache[key] = result
        return result

    def _add(self, left: SatVector, right: SatVector) -> SatVector:
        if left == self._zero:
            return right
        if right == self._zero:
            return left
        monoid: ShapleyMonoid = self.monoid  # type: ignore[assignment]
        if left == self._one:
            return monoid._or_collapse(right)
        if right == self._one:
            return monoid._or_collapse(left)
        key = (True, left, right)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        totals = self._convolve(self._totals(left), self._totals(right))
        false_counts = self._convolve(left.false_counts, right.false_counts)
        true_counts = tuple(s - f for s, f in zip(totals, false_counts))
        return self._cache_product(
            key, SatVector(tuple(false_counts), true_counts)
        )

    def _mul(self, left: SatVector, right: SatVector) -> SatVector:
        if left == self._one:
            return right
        if right == self._one:
            return left
        monoid: ShapleyMonoid = self.monoid  # type: ignore[assignment]
        if left == self._zero:
            return monoid._and_collapse(right)
        if right == self._zero:
            return monoid._and_collapse(left)
        key = (False, left, right)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        totals = self._convolve(self._totals(left), self._totals(right))
        true_counts = self._convolve(left.true_counts, right.true_counts)
        false_counts = tuple(s - t for s, t in zip(totals, true_counts))
        return self._cache_product(
            key, SatVector(false_counts, tuple(true_counts))
        )

    # -- bulk ψ-annotation -----------------------------------------------
    def annotation_is_zero(self):
        """Zero test with identity fast paths for the ψ spikes.

        The Definition 5.15 ψ maps every fact to one of the distinguished
        instances ``1``/``★``/``0`` the monoid hands out, so identity checks
        classify almost every annotation without a deep vector comparison
        (``★`` and ``0`` share their false-slice, so ``== zero`` would walk
        the whole slice before differing).
        """
        zero, one, star = self._zero, self._one, self._star
        return lambda annotation: annotation is zero or (
            annotation is not one
            and annotation is not star
            and annotation == zero
        )

    def _spike_fold(self, ones: int, stars: int) -> SatVector:
        """Closed form for ``1^⊕ones ⊕ ★^⊕stars`` (at least one spike).

        The ⊕-fold of ``b`` stars tracks subsets of ``b`` endogenous facts
        under ∨: a size-``i`` subset is true iff non-empty, so the true slice
        is the binomial row ``C(b, i)`` with the ``i = 0`` entry zeroed and
        the false slice is the 0-spike.  Any ``1`` in the fold makes every
        subset true (``T(i) = C(b, i)``, ``F = 0``).  These are exactly what
        the Eq. 15 convolutions produce, without running them.
        """
        length = self._length
        binomial = [0] * length
        binomial[0] = 1
        value = 1
        for index in range(1, min(stars, length - 1) + 1):
            value = value * (stars - index + 1) // index
            binomial[index] = value
        flat = (0,) * length
        if ones:
            return SatVector(false_counts=flat, true_counts=tuple(binomial))
        binomial[0] = 0
        spike = (1,) + flat[1:]
        return SatVector(false_counts=spike, true_counts=tuple(binomial))

    # -- batch interface -------------------------------------------------
    def fold_add(self, groups):
        add = self._add
        zero = self._zero
        one = self._one
        star = self._star
        out = []
        for group in groups:
            ones = stars = 0
            others = []
            for item in group:
                if item == star:
                    stars += 1
                elif item == one:
                    ones += 1
                elif item == zero:
                    continue
                else:
                    others.append(item)
            if ones or stars:
                result = self._spike_fold(ones, stars)
                for item in others:
                    result = add(result, item)
            elif others:
                iterator = iter(others)
                result = next(iterator)
                for item in iterator:
                    result = add(result, item)
            else:
                result = zero
            out.append(result)
        return out

    def mul_aligned(self, lefts, rights):
        mul = self._mul
        return [mul(left, right) for left, right in zip(lefts, rights)]

    # -- reverse mode: adjoints of the Eq. 15/16 products -----------------
    # An adjoint (aF, aT) stands for the linear map z ↦ aF·zF + aT·zT
    # (truncated convolutions).  Both products are bilinear in the flag
    # slices, so the adjoint of x in z = x ∘ y is again a pair, three
    # convolutions away from z's.  See repro.core.algorithm.leaf_adjoints.
    def add_adjoint(self, adjoint, sibling: SatVector):
        """x's adjoint in ``z = x ⊕ y``: ``(aF·yF + aT·yT, aT·(yF + yT))``.

        From Eq. 15: ``zF = xF·yF`` and ``zT = xF·yT + xT·(yF + yT)``.
        """
        if sibling == self._zero:
            return adjoint
        a_false, a_true = adjoint
        if sibling == self._one:
            return a_true, a_true
        convolve = self._convolve
        return (
            _sum(
                convolve(a_false, sibling.false_counts),
                convolve(a_true, sibling.true_counts),
            ),
            tuple(convolve(a_true, self._totals(sibling))),
        )

    def mul_adjoint(self, adjoint, sibling: SatVector):
        """x's adjoint in ``z = x ⊗ y``: ``(aF·(yF + yT), aF·yF + aT·yT)``.

        From Eq. 16: ``zT = xT·yT`` and ``zF = xF·(yF + yT) + xT·yF``.
        """
        if sibling == self._one:
            return adjoint
        a_false, a_true = adjoint
        if sibling == self._zero:
            return a_false, a_false
        convolve = self._convolve
        return (
            tuple(convolve(a_false, self._totals(sibling))),
            _sum(
                convolve(a_false, sibling.false_counts),
                convolve(a_true, sibling.true_counts),
            ),
        )


def _sum(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(left, right))


register_kernel(ShapleyMonoid, ShapleyKernel)


class ShapleyArrayKernel(VectorArrayKernel):
    """Packed columnar ``#Sat`` polynomials: ``(n, 2, w)`` rows with a
    guarded int64 fast path and the Kronecker kernel as exact fallback.

    A relation's annotations live in one 3-D array — one row per support
    tuple, the false/true slices along the middle axis, and one column per
    degree slot, **trimmed** to the highest degree any row uses (ψ-spikes
    are 2-term polynomials inside length-(|Dn|+1) vectors, so input
    relations pack to width 2, and widths only grow as convolutions
    genuinely need them).

    Both operations use the marginal identity of :class:`ShapleyKernel` —
    compute the totals convolution and one flag slice, recover the other by
    subtraction — so each batched ⊕/⊗ is **two** sliding-window
    convolutions (:func:`repro.algebra.packed.sum_conv`) over all aligned
    rows at once.  The int64 path is taken only when an a-priori coefficient
    bound (``min(w₁, w₂) · max(left) · max(right)``, evaluated in unbounded
    Python ints) stays inside the guarded range; otherwise the operation
    falls back to the **batched Shapley kernel** row by row — the
    Kronecker-substitution big-int multiply with its packed-operand /
    totals / product reuse caches — and re-packs the result (returning to
    int64 whenever coefficients shrink back).  ``#Sat`` counts reach
    ``C(|Dn|, k)`` magnitudes, so the exact leg is routinely exercised by
    the final ⊕-fold; either way every value is an exact integer and the
    tier is bit-identical to the scalar path.
    """

    def __init__(self, monoid: ShapleyMonoid, np):
        super().__init__(monoid, np)
        self._length = monoid.length
        self.dtype = np.int64
        # The registered batched kernel — shared through kernel_for's
        # per-monoid memo, so the exact fallback reuses the same warm
        # packed-operand caches as the batched tier.
        self._batched = kernel_for(monoid)

    # -- conversion ----------------------------------------------------
    def to_array(self, annotations):
        np = self.np
        if not len(annotations):
            return np.empty((0, 2, 1), dtype=np.int64)
        widest = max(vector.length for vector in annotations)
        rows = [
            (
                vector.false_counts + (0,) * (widest - vector.length),
                vector.true_counts + (0,) * (widest - vector.length),
            )
            if vector.length != widest
            else (vector.false_counts, vector.true_counts)
            for vector in annotations
        ]
        try:
            packed = np.array(rows, dtype=np.int64)
            if int(packed.max()) > INT64_SAFE:
                packed = np.array(rows, dtype=object)
        except OverflowError:  # coefficients beyond int64: exact rows
            packed = np.array(rows, dtype=object)
        used = np.flatnonzero((packed != 0).any(axis=(0, 1)))
        width = int(used[-1]) + 1 if used.size else 1
        if width < packed.shape[-1]:
            packed = packed[:, :, :width].copy()
        return packed

    def to_scalar(self, value) -> SatVector:
        false_counts, true_counts = value.tolist()
        padding = (0,) * (self._length - len(false_counts))
        return SatVector(
            tuple(false_counts) + padding, tuple(true_counts) + padding
        )

    def to_scalars(self, column) -> list:
        padding = (0,) * (self._length - column.shape[-1])
        return [
            SatVector(tuple(false) + padding, tuple(true) + padding)
            for false, true in column.tolist()
        ]

    def _trimmed_scalars(self, column) -> list:
        """Decode rows *without* padding to the truncation length.

        The exact-fallback legs hand these straight to the batched kernel,
        whose convolutions accept operands of any degree — trailing zeros
        would only inflate the packing work.  Public decodes
        (:meth:`to_scalars`/:meth:`to_scalar`) always pad: stored carriers
        must satisfy the monoid's length check.
        """
        return [
            SatVector(tuple(false), tuple(true))
            for false, true in column.tolist()
        ]

    def zero_row(self, width):
        row = self.np.zeros((2, width), dtype=self.np.int64)
        row[0, 0] = 1  # the 0-spike: only the empty subset, evaluating false
        return row

    def zero_mask(self, column):
        return (column == self.zero_row(column.shape[-1])).all(axis=(1, 2))

    # -- the guarded int64 convolution path ----------------------------
    def _convolve_rows(self, lefts, rights, true_slice: bool):
        """One batched Eq. 15/16 application, or :class:`PackedOverflow`.

        *true_slice* picks which flag slice convolves directly (the true
        slices for ⊗, the false slices for ⊕); the other one is recovered
        from the totals by exact subtraction.
        """
        np = self.np
        if lefts.dtype == object or rights.dtype == object:
            raise PackedOverflow
        n1, n2 = lefts.shape[-1], rights.shape[-1]
        totals_left = lefts[:, 0, :] + lefts[:, 1, :]
        totals_right = rights[:, 0, :] + rights[:, 1, :]
        bound = (
            min(n1, n2)
            * max_value(np, totals_left)
            * max_value(np, totals_right)
        )
        if bound > INT64_SAFE:
            raise PackedOverflow
        totals = sum_conv(np, totals_left, totals_right, self._length)
        index = 1 if true_slice else 0
        direct = sum_conv(
            np, lefts[:, index, :], rights[:, index, :], self._length
        )
        other = totals - direct
        slices = (other, direct) if true_slice else (direct, other)
        return np.stack(slices, axis=1)

    def _decode_groups(self, annotations, starts):
        scalars = self._trimmed_scalars(annotations)
        edges = [int(start) for start in starts] + [len(scalars)]
        return [
            scalars[first:last] for first, last in zip(edges, edges[1:])
        ]

    def _spike_fold_groups(self, annotations, starts):
        """Closed-form ⊕-fold when every row is a ψ-spike (``0``/``1``/``★``).

        The Definition 5.15 ψ maps every fact to a distinguished spike, so
        input-relation folds reduce to *counting*: two **per-slot**
        ``add.reduceat`` passes count the ``1``s and ``★``s per group, and
        the fold of ``b`` stars (plus any ``1``) is the binomial row
        ``C(b, i)`` — exactly :meth:`ShapleyKernel._spike_fold`, built here
        for all groups at once by a vectorized Pascal recurrence
        (``C(b, i) = C(b, i−1)·(b−i+1)/i``, exact in int64 under the
        a-priori bound).  Returns ``None`` when some row is not a spike or
        the binomials could leave the guarded range (the convolution fold
        takes over).
        """
        np = self.np
        width = annotations.shape[-1]
        if annotations.dtype == object or width > 2:
            return None  # spikes pack to ≤ 2 slots; wider rows ⇒ not spikes
        length = self._length
        zero_row = self.zero_row(width)
        one_row = np.zeros((2, width), dtype=np.int64)
        one_row[1, 0] = 1
        is_zero = (annotations == zero_row).all(axis=(1, 2))
        is_one = (annotations == one_row).all(axis=(1, 2))
        if width == 2 and length > 1:
            star_row = np.zeros((2, width), dtype=np.int64)
            star_row[0, 0] = 1
            star_row[1, 1] = 1
            is_star = (annotations == star_row).all(axis=(1, 2))
        else:
            is_star = np.zeros(annotations.shape[0], dtype=bool)
        if not (is_zero | is_one | is_star).all():
            return None
        ones = np.add.reduceat(is_one.astype(np.int64), starts)
        stars = np.add.reduceat(is_star.astype(np.int64), starts)
        max_stars = int(stars.max())
        out_width = min(max_stars, length - 1) + 1
        bound = math.comb(max_stars, min(out_width - 1, max_stars // 2))
        if bound * out_width > INT64_SAFE:
            return None
        groups = stars.shape[0]
        true_rows = np.zeros((groups, out_width), dtype=np.int64)
        true_rows[:, 0] = 1
        for index in range(1, out_width):
            true_rows[:, index] = (
                true_rows[:, index - 1]
                * np.maximum(stars - index + 1, 0)
                // index
            )
        has_one = ones > 0
        false_rows = np.zeros((groups, out_width), dtype=np.int64)
        false_rows[:, 0] = ~has_one  # the 0-spike of one-less groups
        true_rows[:, 0] = has_one  # C(b, 0) counts only when a 1 is present
        return np.stack([false_rows, true_rows], axis=1)

    # -- the two batched operations ------------------------------------
    def fold_groups(self, annotations, starts):
        np = self.np
        if annotations.shape[0]:
            folded = self._spike_fold_groups(annotations, starts)
            if folded is not None:
                return folded

        def combine(lefts, rights):
            return self._convolve_rows(lefts, rights, true_slice=False)

        def exact_fold(rows, segment_starts):
            # Coefficients left the guarded int64 range: finish from the
            # partially-folded rows through the Kronecker kernel (and its
            # warm packed-operand caches), one group at a time.
            groups = self._decode_groups(rows, segment_starts)
            return self.to_array(self._batched.fold_add(groups))

        return fold_segments(
            np, annotations, starts, combine, self.pad_rows, exact_fold
        )

    def mul_arrays(self, lefts, rights):
        try:
            return self._convolve_rows(lefts, rights, true_slice=True)
        except PackedOverflow:
            products = self._batched.mul_aligned(
                self._trimmed_scalars(lefts), self._trimmed_scalars(rights)
            )
            return self.to_array(products)


register_array_kernel(ShapleyMonoid, ShapleyArrayKernel)
