"""K-annotated relations and databases (the inputs of Algorithm 1).

A K-annotated relation formally assigns an element of the 2-monoid ``K`` to
*every* tuple in ``Dom^X``; we store only the tuples whose annotation differs
from ``K.zero`` (the *support*, Definition 6.5) plus, transiently, tuples the
algorithm computes.  Absent tuples implicitly carry ``K.zero``.

The subtle point, inherited from the weakness of 2-monoids: ``a ⊗ 0 = 0``
need **not** hold (the Shapley 2-monoid violates it).  A Rule 2 merge must
therefore evaluate every tuple in the *union* of the two supports — a tuple
present on one side only gets ``a ⊗ 0``, which can be non-zero.  Only when
the monoid declares :attr:`~repro.algebra.base.TwoMonoid.annihilates` may the
join skip one-sided tuples.

Execution strategy: the elimination operations *collect-then-batch*.  They
first gather the whole workload — ⊕-groups for Rule 1, aligned annotation
pairs for Rule 2 — and then hand it to the monoid's batched
:class:`~repro.core.kernels.MonoidKernel` in one call, instead of issuing a
dynamic ``monoid.add``/``mul`` per tuple.  The kernel registry picks a
carrier-specialized implementation when one is registered and the
always-correct scalar fallback otherwise (see :mod:`repro.core.kernels`).

On top of the dict layout sits an optional **columnar** tier
(:class:`ColumnarKRelation`): support tuples stored as parallel int64 key
columns (domain values dictionary-encoded through a per-database
:class:`_ValueInterner`) plus one numpy annotation array.  On this layout
Rule 1 is ``lexsort`` + segment-boundary detection + one ``reduceat``-style
⊕-fold, and Rule 2 is sorted-key alignment (``searchsorted`` intersection
for annihilating monoids, a union merge otherwise) followed by one
elementwise ⊗ — no per-tuple Python at all after materialization.  Views
are seeded by the annotation loader (:meth:`KDatabase.load_columns`) or
materialized lazily from the dict form, and cached on the
:class:`KDatabase` across plan executions (sessions replay one annotated
database many times); any mutation of a relation bumps its version and
invalidates only that relation's view.

Vector carriers — the bag-set multiplicity profiles and Shapley ``#Sat``
polynomials — ride the same machinery through
:class:`PackedColumnarKRelation`: the annotation array becomes **2-D** (one
row per tuple, one column per vector slot; Shapley adds a false/true slice
axis), and the generic operations only ever index, filter and concatenate
whole rows, delegating the row arithmetic — batched sliding-window
convolutions with a guarded int64 fast path — to the monoid's
:class:`~repro.core.kernels.VectorArrayKernel`.
"""

from __future__ import annotations

import math
import threading
from itertools import compress, islice
from operator import itemgetter
from typing import Callable, Generic, Iterable, Iterator, Mapping, Sequence

from repro.algebra.base import K, TwoMonoid
from repro.db.database import Database
from repro.db.fact import Fact, Value
from repro.exceptions import AlgebraError, SchemaError
from repro.query.atoms import Atom, Variable
from repro.query.bcq import BCQ


def _kernel_for(monoid: TwoMonoid[K]):
    # Imported lazily: repro.core.algorithm imports this module at class-def
    # time, so a module-level import of repro.core here would be circular.
    from repro.core.kernels import kernel_for

    return kernel_for(monoid)


def _tuple_picker(
    positions: tuple[int, ...]
) -> Callable[[tuple[Value, ...]], tuple[Value, ...]]:
    """A C-level callable mapping a tuple to ``tuple(t[i] for i in positions)``.

    ``itemgetter`` already returns a tuple for two or more indices; the
    nullary/unary shapes need wrapping.  These run once per support tuple in
    the elimination hot loops, so avoiding a Python-level generator per tuple
    matters.
    """
    if len(positions) == 0:
        return lambda values: ()
    if len(positions) == 1:
        index = positions[0]
        return lambda values: (values[index],)
    return itemgetter(*positions)


class KRelation(Generic[K]):
    """A K-annotated relation over the variables of one atom.

    Tuples are stored positionally, aligned with ``atom.variables``.
    Annotations equal to ``monoid.zero`` are dropped on construction, so the
    stored mapping is exactly the support.
    """

    def __init__(
        self,
        atom: Atom,
        monoid: TwoMonoid[K],
        annotations: Mapping[tuple[Value, ...], K] | None = None,
    ):
        self.atom = atom
        self.monoid = monoid
        self._annotations: dict[tuple[Value, ...], K] = {}
        #: Mutation counter: bumped by every write so cached columnar views
        #: (see :meth:`KDatabase.columnar_relation`) can detect staleness.
        self._version = 0
        #: Optional mutation listener installed by an owning
        #: :class:`KDatabase` when invalidation hooks are registered; called
        #: (with no arguments) after every version bump.  ``None`` keeps the
        #: hot write path at a single attribute load.
        self._on_mutate: Callable[[], None] | None = None
        if annotations:
            for values, annotation in annotations.items():
                self.set(values, annotation)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def annotation(self, values: tuple[Value, ...]) -> K:
        """The annotation of *values* (``zero`` for absent tuples)."""
        return self._annotations.get(tuple(values), self.monoid.zero)

    def set(self, values: tuple[Value, ...], annotation: K) -> None:
        """Set an annotation, keeping the zero-dropping invariant."""
        values = tuple(values)
        if len(values) != self.atom.arity:
            raise SchemaError(
                f"tuple {values} has arity {len(values)}; atom {self.atom} "
                f"expects {self.atom.arity}"
            )
        self._version += 1
        if self.monoid.is_zero(annotation):
            self._annotations.pop(values, None)
        else:
            self._annotations[values] = annotation
        on_mutate = self._on_mutate
        if on_mutate is not None:
            on_mutate()

    def bulk_load(
        self,
        keys: Sequence[tuple[Value, ...]],
        annotations: Sequence[K],
    ) -> None:
        """Load aligned ``(tuple, annotation)`` batches in one kernel pass.

        Semantically equivalent to calling :meth:`set` once per pair — later
        occurrences of a key win, ⊕-identity annotations drop the key — but
        the support dict is produced by the monoid kernel's
        :meth:`~repro.core.kernels.MonoidKernel.annotate_support` in one
        ``dict`` constructor call instead of a per-tuple ``set`` dispatch.
        *keys* must already be tuples (e.g. :attr:`~repro.db.fact.Fact.values`).
        """
        self._check_batch(keys, annotations)
        if not self._annotations:
            self._install(
                _kernel_for(self.monoid).annotate_support(keys, annotations)
            )
            return
        # Merging into existing support: a zero-annotated key in the batch
        # must still delete any earlier entry, so replay with set semantics.
        self._version += 1
        annotations_dict = self._annotations
        is_zero = self.monoid.is_zero
        for values, annotation in dict(zip(keys, annotations)).items():
            if is_zero(annotation):
                annotations_dict.pop(values, None)
            else:
                annotations_dict[values] = annotation
        on_mutate = self._on_mutate
        if on_mutate is not None:
            on_mutate()

    def _check_batch(
        self, keys: Sequence[tuple[Value, ...]], annotations: Sequence[K]
    ) -> None:
        """:class:`SchemaError` unless the batch is aligned and every key
        has the atom's arity."""
        if len(keys) != len(annotations):
            raise SchemaError(
                f"{self.atom.relation} got {len(keys)} tuples but "
                f"{len(annotations)} annotations"
            )
        arity = self.atom.arity
        if set(map(len, keys)) - {arity}:
            bad = next(values for values in keys if len(values) != arity)
            raise SchemaError(
                f"tuple {bad} has arity {len(bad)}; atom {self.atom} "
                f"expects {arity}"
            )

    def _install(self, support: dict[tuple[Value, ...], K]) -> None:
        """Adopt *support* (zero-free, arity-checked) as this empty
        relation's annotations: one version bump, one mutation signal."""
        self._version += 1
        self._annotations = support
        on_mutate = self._on_mutate
        if on_mutate is not None:
            on_mutate()

    def copy(self) -> "KRelation[K]":
        """An independent copy (same atom/monoid, cloned support dict)."""
        clone = KRelation(self.atom, self.monoid)
        clone._annotations = dict(self._annotations)
        return clone

    def support(self) -> frozenset[tuple[Value, ...]]:
        """The tuples with non-zero annotation (Definition 6.5)."""
        return frozenset(self._annotations)

    def items(self) -> Iterator[tuple[tuple[Value, ...], K]]:
        return iter(self._annotations.items())

    def __len__(self) -> int:
        """The *size* of the relation: its support cardinality (Def. 6.5)."""
        return len(self._annotations)

    def __repr__(self) -> str:
        return f"KRelation({self.atom}, |support|={len(self)})"

    # ------------------------------------------------------------------
    # The two elimination operations of Algorithm 1
    # ------------------------------------------------------------------
    def project_out(self, variable: Variable, target: Atom) -> "KRelation[K]":
        """Rule 1 (line 4): ``R'(x') = ⊕_y R(x', y)``.

        Groups the support by the remaining positions, then ⊕-folds all the
        groups in one batched kernel call.  Tuples outside the support
        contribute the ⊕-identity and are skipped.
        """
        if variable not in self.atom.variable_set:
            raise AlgebraError(f"{variable} does not occur in {self.atom}")
        keep_positions = tuple(
            i for i, v in enumerate(self.atom.variables) if v != variable
        )
        pick = _tuple_picker(keep_positions)
        monoid = self.monoid
        groups: dict[tuple[Value, ...], list[K]] = {}
        for values, annotation in self._annotations.items():
            key = pick(values)
            members = groups.get(key)
            if members is None:
                groups[key] = [annotation]
            else:
                members.append(annotation)
        folded = _kernel_for(monoid).fold_add(list(groups.values()))
        result = KRelation(target, monoid)
        annotations = result._annotations
        is_zero = monoid.is_zero
        for key, annotation in zip(groups, folded):
            if not is_zero(annotation):
                annotations[key] = annotation
        return result

    def merge(self, other: "KRelation[K]", target: Atom) -> "KRelation[K]":
        """Rule 2 (line 7): ``R'(x) = R1(x) ⊗ R2(x)``.

        Evaluates the union of the two supports (see module docstring for why
        the union — not the intersection — is required in general), or just
        this relation's support when the monoid annihilates by zero and the
        other side's missing tuples would zero out anyway.  The aligned
        annotation pairs are collected first and ⊗-multiplied in one batched
        kernel call; when a source atom already lists the target's variables
        in order, its tuples are used as keys directly with no re-tupling.
        """
        if self.atom.variable_set != other.atom.variable_set:
            raise AlgebraError(
                f"cannot merge {self.atom} with {other.atom}: "
                "different variable sets"
            )
        monoid = self.monoid
        if monoid is not other.monoid:
            raise AlgebraError("cannot merge relations over different monoids")
        # Positional alignment: both sides' tuples reordered to target's
        # order.  The identity permutation is skipped entirely.
        if other.atom.variables == target.variables:
            other_by_key: Mapping[tuple[Value, ...], K] = other._annotations
        else:
            align_other = _tuple_picker(
                tuple(other.atom.variables.index(v) for v in target.variables)
            )
            other_by_key = {
                align_other(values): annotation
                for values, annotation in other.items()
            }
        self_identity = self.atom.variables == target.variables
        align_self = (
            None
            if self_identity
            else _tuple_picker(
                tuple(self.atom.variables.index(v) for v in target.variables)
            )
        )
        zero = monoid.zero
        keys: list[tuple[Value, ...]] = []
        lefts: list[K] = []
        rights: list[K] = []
        for values, annotation in self._annotations.items():
            key = values if self_identity else align_self(values)
            keys.append(key)
            lefts.append(annotation)
            rights.append(other_by_key.get(key, zero))
        if not monoid.annihilates:
            present = (
                self._annotations if self_identity else frozenset(keys)
            )
            for key, other_annotation in other_by_key.items():
                if key not in present:
                    keys.append(key)
                    lefts.append(zero)
                    rights.append(other_annotation)
        products = _kernel_for(monoid).mul_aligned(lefts, rights)
        result = KRelation(target, monoid)
        annotations = result._annotations
        is_zero = monoid.is_zero
        for key, product in zip(keys, products):
            if not is_zero(product):
                annotations[key] = product
        return result

    def absorb(self, smaller: "KRelation[K]", target: Atom) -> "KRelation[K]":
        """Semi-join-style merge of an atom over a variable *subset*.

        ``R'(y) = self(y) ⊗ smaller(y|X)`` where ``X ⊂ Y``.  Used only by the
        free-variable engine (:mod:`repro.core.grouped`) to fold an atom whose
        remaining variables are all free into a superset atom.  Each tuple of
        *smaller* may annotate many output tuples, so this is sound only when
        no later ⊕ ever folds two outputs sharing a *smaller* tuple — the
        grouped engine guarantees that by never projecting free variables —
        and only for monoids with annihilation-by-zero (otherwise tuples
        absent from this relation but whose projection hits *smaller* would
        need non-zero annotations over an unbounded domain).
        """
        monoid = self.monoid
        if monoid is not smaller.monoid:
            raise AlgebraError("cannot absorb a relation over a different monoid")
        if not monoid.annihilates:
            raise AlgebraError(
                f"absorb requires annihilation-by-zero; {monoid.name} lacks it"
            )
        if not smaller.atom.variable_set < self.atom.variable_set:
            raise AlgebraError(
                f"{smaller.atom} is not over a strict variable subset of {self.atom}"
            )
        if target.variable_set != self.atom.variable_set:
            raise AlgebraError(
                f"target {target} must keep the variable set of {self.atom}"
            )
        self_identity = self.atom.variables == target.variables
        align_self = (
            None
            if self_identity
            else _tuple_picker(
                tuple(self.atom.variables.index(v) for v in target.variables)
            )
        )
        project_small = _tuple_picker(
            tuple(target.variables.index(v) for v in smaller.atom.variables)
        )
        smaller_annotations = smaller._annotations
        zero = monoid.zero
        keys: list[tuple[Value, ...]] = []
        lefts: list[K] = []
        rights: list[K] = []
        for values, annotation in self._annotations.items():
            key = values if self_identity else align_self(values)
            projected = project_small(key)
            keys.append(key)
            lefts.append(annotation)
            rights.append(smaller_annotations.get(projected, zero))
        products = _kernel_for(monoid).mul_aligned(lefts, rights)
        result = KRelation(target, monoid)
        annotations = result._annotations
        is_zero = monoid.is_zero
        for key, product in zip(keys, products):
            if not is_zero(product):
                annotations[key] = product
        return result


class _ValueInterner:
    """A bijective value ↔ int64-code dictionary shared by one database.

    Codes are assigned in first-seen order, so equal domain values (under
    Python ``==``/``hash`` — the same notion the dict layout keys on) get
    equal codes **across relations**, which is what lets the columnar merge
    compare keys by integer comparison alone.
    """

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: dict = {}
        self._values: list = []

    def __len__(self) -> int:
        return len(self._values)

    def encode_column(self, np, values: Iterable[Value]):
        """One int64 code array for a column of domain values.

        Unseen values get the next free codes in first-seen order.  The
        codes are collected in one ``dict.setdefault`` list (``len`` is read
        before each insert, so a new value's code is the size before it),
        the new values are appended to the decode list from the dict's
        insertion-ordered tail, and the list is converted to numpy once.
        """
        codes = self._codes
        known = len(codes)
        setdefault = codes.setdefault
        column = [setdefault(value, len(codes)) for value in values]
        if len(codes) > known:
            self._values.extend(islice(codes, known, None))
        return np.array(column, dtype=np.int64)

    def encode_keys(self, np, keys: Sequence[tuple[Value, ...]], arity: int):
        """Per-position code columns of *keys*, position 0 first."""
        return tuple(
            self.encode_column(np, map(itemgetter(position), keys))
            for position in range(arity)
        )

    def decode(self, code: int) -> Value:
        return self._values[code]


class ColumnarKRelation(Generic[K]):
    """Array-backed view of a :class:`KRelation`: the columnar tier's layout.

    Support tuples live as parallel int64 key columns (one per atom
    position, dictionary-encoded through the database's
    :class:`_ValueInterner`) plus one numpy annotation column typed by the
    monoid's :class:`~repro.core.kernels.ArrayKernel`.  The three
    elimination operations mirror :class:`KRelation`'s semantics exactly —
    same zero-dropping, same union-vs-intersection Rule 2 discipline — but
    run their grouping, alignment and arithmetic entirely inside numpy.
    """

    __slots__ = (
        "atom", "kernel", "columns", "annotations", "interner", "_sort_cache"
    )

    def __init__(
        self, atom, kernel, columns, annotations, interner, sort_cache=None
    ):
        self.atom = atom
        self.kernel = kernel
        self.columns = columns
        self.annotations = annotations
        self.interner = interner
        # Lexsort memo for Rule 1 over *this* view's key columns, keyed by
        # the kept-position tuple: ``keep → (order, group starts)``.  Only
        # cached base-relation views carry a dict (set by the database-level
        # builders); single-use intermediates keep ``None`` and sort
        # directly.  Stacked fused views share their base view's dict, so
        # the sort is computed once per relation version across serial *and*
        # fused executions.  Entries depend only on the (immutable) key
        # columns, so concurrent readers may at worst duplicate a sort.
        self._sort_cache = sort_cache

    @classmethod
    def from_relation(
        cls, relation: KRelation[K], kernel, interner: _ValueInterner
    ) -> "ColumnarKRelation[K]":
        """Materialize the dict layout (may raise ``OverflowError`` for
        annotations outside the kernel dtype's range — callers fall back to
        the batched tier)."""
        annotations = relation._annotations
        columns = interner.encode_keys(
            kernel.np, list(annotations), relation.atom.arity
        )
        packed = kernel.to_array(list(annotations.values()))
        return cls(
            relation.atom, kernel, columns, packed, interner, sort_cache={}
        )

    def __len__(self) -> int:
        return int(self.annotations.shape[0])

    def __repr__(self) -> str:
        return f"ColumnarKRelation({self.atom}, |support|={len(self)})"

    def to_krelation(self) -> KRelation[K]:
        """Decode back to the dict layout (used for final/grouped outputs)."""
        result = KRelation(self.atom, self.kernel.monoid)
        decode = self.interner._values
        columns = [column.tolist() for column in self.columns]
        annotations = self.kernel.to_scalars(self.annotations)
        support = result._annotations
        for index, annotation in enumerate(annotations):
            key = tuple(decode[column[index]] for column in columns)
            support[key] = annotation
        return result

    def nullary_annotation(self) -> K:
        """The annotation of ``()`` — the terminal read of Algorithm 1."""
        if self.atom.arity != 0:
            raise AlgebraError(
                f"{self.atom} is not nullary; cannot read the () annotation"
            )
        if len(self) == 0:
            return self.kernel.monoid.zero
        return self.kernel.to_scalar(self.annotations[0])

    # ------------------------------------------------------------------
    # Key plumbing
    # ------------------------------------------------------------------
    def _aligned_columns(self, target: Atom):
        """This relation's key columns reordered to *target*'s variables."""
        if self.atom.variables == target.variables:
            return self.columns
        variables = self.atom.variables
        return tuple(
            self.columns[variables.index(v)] for v in target.variables
        )

    # ------------------------------------------------------------------
    # The elimination operations, columnar
    # ------------------------------------------------------------------
    def project_out(
        self, variable: Variable, target: Atom
    ) -> "ColumnarKRelation[K]":
        """Rule 1: sort by the surviving columns, ⊕-reduce each segment."""
        if variable not in self.atom.variable_set:
            raise AlgebraError(f"{variable} does not occur in {self.atom}")
        kernel = self.kernel
        np = kernel.np
        keep = tuple(
            i for i, v in enumerate(self.atom.variables) if v != variable
        )
        n = len(self)
        columns = tuple(self.columns[i] for i in keep)
        if n == 0:
            return type(self)(
                target, kernel, columns, self.annotations, self.interner
            )
        if not columns:
            # Projecting to the nullary atom: one group, one fold.
            starts = np.zeros(1, dtype=np.intp)
            folded = kernel.fold_groups(self.annotations, starts)
            keep_mask = ~kernel.zero_mask(folded)
            return type(self)(
                target, kernel, (), folded[keep_mask], self.interner
            )
        cache = self._sort_cache
        cached = None if cache is None else cache.get(keep)
        if cached is None:
            order = np.lexsort(columns[::-1])
            sorted_columns = tuple(column[order] for column in columns)
            boundary = np.zeros(n, dtype=bool)
            boundary[0] = True
            for column in sorted_columns:
                boundary[1:] |= column[1:] != column[:-1]
            starts = np.flatnonzero(boundary)
            if cache is not None:
                cache[keep] = (order, starts)
        else:
            order, starts = cached
        folded = kernel.fold_groups(self.annotations[order], starts)
        group_rows = order[starts]
        out_columns = tuple(column[group_rows] for column in columns)
        folded, out_columns = _drop_zeros(kernel, folded, out_columns)
        return type(self)(
            target, kernel, out_columns, folded, self.interner
        )

    def merge(
        self, other: "ColumnarKRelation[K]", target: Atom
    ) -> "ColumnarKRelation[K]":
        """Rule 2: sorted-key alignment, then one elementwise ⊗.

        Annihilating monoids intersect the supports (``searchsorted`` of
        this side's composite ids in the other side's sorted ids); the
        general 2-monoid case walks the support *union* — matched pairs get
        ``a ⊗ b``, one-sided tuples ``a ⊗ 0`` / ``0 ⊗ b``, exactly like the
        dict layout.
        """
        if self.atom.variable_set != other.atom.variable_set:
            raise AlgebraError(
                f"cannot merge {self.atom} with {other.atom}: "
                "different variable sets"
            )
        kernel = self.kernel
        monoid = kernel.monoid
        if monoid is not other.kernel.monoid:
            raise AlgebraError("cannot merge relations over different monoids")
        np = kernel.np
        self_columns = self._aligned_columns(target)
        other_columns = other._aligned_columns(target)
        n_self, n_other = len(self), len(other)
        self_ids, other_ids = _paired_ids(
            np, self_columns, other_columns, n_self, n_other,
            len(self.interner),
        )
        if monoid.annihilates:
            # Intersection: one-sided tuples would ⊗-annihilate anyway.
            # Orient the lookup so the argsort runs over the SMALLER side
            # and the larger side only pays a searchsorted probe.
            if n_self <= n_other:
                found, matched_rows = _sorted_lookup(np, other_ids, self_ids)
                left = self.annotations[matched_rows[found]]
                right = other.annotations[found]
                matched_columns = other_columns
            else:
                found, matched_rows = _sorted_lookup(np, self_ids, other_ids)
                left = self.annotations[found]
                right = other.annotations[matched_rows[found]]
                matched_columns = self_columns
            products = kernel.mul_arrays(left, right)
            out_columns = tuple(
                column[found] for column in matched_columns
            )
        else:
            found, matched_rows = _sorted_lookup(np, self_ids, other_ids)
            # Union: self rows against matched-or-zero, then other-only rows
            # against zero (a ⊗ 0 need not be 0 in a general 2-monoid).
            zero_value = monoid.zero
            if n_other:
                matched_annotations = other.annotations[matched_rows]
            else:
                matched_annotations = kernel.to_array([zero_value] * n_self)
            right = kernel.where_rows(found, matched_annotations)
            products_self = kernel.mul_arrays(self.annotations, right)
            other_only = np.ones(n_other, dtype=bool)
            other_only[matched_rows[found]] = False
            only_annotations = other.annotations[other_only]
            zeros = kernel.to_array([zero_value] * int(other_only.sum()))
            products_other = kernel.mul_arrays(zeros, only_annotations)
            products = kernel.concat_rows(products_self, products_other)
            out_columns = tuple(
                np.concatenate([mine, theirs[other_only]])
                for mine, theirs in zip(self_columns, other_columns)
            )
        products, out_columns = _drop_zeros(kernel, products, out_columns)
        return type(self)(
            target, kernel, out_columns, products, self.interner
        )

    def absorb(
        self, smaller: "ColumnarKRelation[K]", target: Atom
    ) -> "ColumnarKRelation[K]":
        """Columnar semi-join merge over a variable subset (grouped engine).

        Same soundness conditions as :meth:`KRelation.absorb` — in
        particular annihilation-by-zero, which is what licenses keeping only
        the matched rows.
        """
        kernel = self.kernel
        monoid = kernel.monoid
        if monoid is not smaller.kernel.monoid:
            raise AlgebraError("cannot absorb a relation over a different monoid")
        if not monoid.annihilates:
            raise AlgebraError(
                f"absorb requires annihilation-by-zero; {monoid.name} lacks it"
            )
        if not smaller.atom.variable_set < self.atom.variable_set:
            raise AlgebraError(
                f"{smaller.atom} is not over a strict variable subset of {self.atom}"
            )
        if target.variable_set != self.atom.variable_set:
            raise AlgebraError(
                f"target {target} must keep the variable set of {self.atom}"
            )
        np = kernel.np
        self_columns = self._aligned_columns(target)
        projected = tuple(
            self_columns[target.variables.index(v)]
            for v in smaller.atom.variables
        )
        n_self, n_small = len(self), len(smaller)
        self_ids, small_ids = _paired_ids(
            np, projected, smaller.columns, n_self, n_small,
            len(self.interner),
        )
        found, matched_rows = _sorted_lookup(np, self_ids, small_ids)
        left = self.annotations[found]
        right = smaller.annotations[matched_rows[found]]
        products = kernel.mul_arrays(left, right)
        out_columns = tuple(column[found] for column in self_columns)
        products, out_columns = _drop_zeros(kernel, products, out_columns)
        return type(self)(
            target, kernel, out_columns, products, self.interner
        )


class PackedColumnarKRelation(ColumnarKRelation[K]):
    """Columnar view whose annotations are *packed vector rows*.

    The layout for vector carriers (bag-set multiplicity profiles, Shapley
    ``#Sat`` polynomials): the annotation array is 2-D — one row per support
    tuple, one column per vector slot, trimmed to the widest slot in use
    (the Shapley carrier packs its false/true slices along a middle axis,
    shape ``(n, 2, w)``).  Every elimination operation is inherited: the
    generic code only indexes, filters and concatenates whole rows through
    the kernel's layout hooks, and the row arithmetic — batched
    sliding-window convolutions with a guarded int64 fast path and an exact
    big-int fallback — lives in the monoid's
    :class:`~repro.core.kernels.VectorArrayKernel`.
    """

    __slots__ = ()

    @property
    def packed_width(self) -> int:
        """Slots stored per vector row (≤ the monoid's truncation length)."""
        return int(self.annotations.shape[-1])

    def __repr__(self) -> str:
        return (
            f"PackedColumnarKRelation({self.atom}, |support|={len(self)}, "
            f"width={self.packed_width}, dtype={self.annotations.dtype})"
        )


def columnar_relation_class(kernel) -> type:
    """The columnar-view class serving *kernel*'s annotation layout."""
    return (
        PackedColumnarKRelation
        if getattr(kernel, "packed_rows", False)
        else ColumnarKRelation
    )


def _drop_zeros(kernel, annotations, columns):
    """Filter ⊕-identity annotations out of an op result (the support
    invariant), shared by all three columnar elimination operations."""
    zero = kernel.zero_mask(annotations)
    if not zero.any():
        return annotations, columns
    keep = ~zero
    return annotations[keep], tuple(column[keep] for column in columns)


def _paired_ids(np, left_columns, right_columns, n_left, n_right, radix):
    """Composite int64 ids for two aligned column sets, comparable across
    the pair (equal composite keys ⇔ equal ids).

    Radix-packs the per-position codes when the interner is small enough to
    fit int64; otherwise falls back to ``np.unique(axis=0)`` inverse codes
    over the *stacked* rows of both sides (stacking is what keeps the
    fallback's codes consistent between the two relations).
    """
    arity = len(left_columns)
    if arity == 0:
        return (
            np.zeros(n_left, dtype=np.int64),
            np.zeros(n_right, dtype=np.int64),
        )
    if arity == 1:
        return left_columns[0], right_columns[0]
    packed = _pack_ids(np, left_columns, radix)
    if packed is not None:
        return packed, _pack_ids(np, right_columns, radix)
    stacked = np.concatenate(
        [np.stack(left_columns, axis=1), np.stack(right_columns, axis=1)]
    )
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    return inverse[:n_left], inverse[n_left:]


def _sorted_lookup(np, probe_ids, build_ids):
    """Sort-merge probe: for each probe id, whether it occurs in *build_ids*
    and at which (original) row.

    Returns ``(found, rows)`` — a boolean mask over the probe side and an
    index array into the build side (meaningful where ``found``).  Build-side
    ids are distinct (relation supports are keyed), so one ``argsort`` + one
    ``searchsorted`` suffice.
    """
    n_build = build_ids.shape[0]
    if n_build == 0:
        return (
            np.zeros(probe_ids.shape[0], dtype=bool),
            np.zeros(probe_ids.shape[0], dtype=np.intp),
        )
    order = np.argsort(build_ids, kind="stable")
    sorted_ids = build_ids[order]
    positions = np.minimum(
        np.searchsorted(sorted_ids, probe_ids), n_build - 1
    )
    found = sorted_ids[positions] == probe_ids
    return found, order[positions]


def _pack_ids(np, columns, radix: int):
    """Radix-pack per-position code columns into one int64 id per row.

    Order- and equality-preserving for any relations sharing the interner
    the codes came from.  Returns ``None`` when ``radix**len(columns)``
    could overflow int64 (callers fall back to unique-inverse codes).
    """
    radix = max(radix, 1)
    if len(columns) * math.log2(radix) >= 62:
        return None
    packed = columns[0].astype(np.int64, copy=True)
    for column in columns[1:]:
        packed *= radix
        packed += column
    return packed


class KDatabase(Generic[K]):
    """A K-annotated database: one :class:`KRelation` per atom of a query."""

    def __init__(self, query: BCQ, monoid: TwoMonoid[K]):
        query.require_self_join_free()
        self.query = query
        self.monoid = monoid
        self._relations: dict[str, KRelation[K]] = {
            atom.relation: KRelation(atom, monoid) for atom in query.atoms
        }
        # Columnar-view cache (the array tier): one interner + one view per
        # relation, reused across plan executions until a relation mutates.
        self._interner: _ValueInterner | None = None
        self._columnar: dict[str, tuple[int, ColumnarKRelation[K]]] = {}
        self._columnar_kernel = None
        # Memoized "not columnar-representable" verdict (kernel, version
        # fingerprint): a database whose packing overflowed must not re-pay
        # the failed encode attempt on every execution.
        self._columnar_declined: tuple | None = None
        # Protects the columnar-view cache, the decline memo and the hook
        # list: concurrent plan executions over one shared database (the
        # serving layer) materialize views lazily from worker threads.
        self._lock = threading.RLock()
        #: Version-keyed invalidation hooks: ``hook(database, name, version)``
        #: fires after any mutation of the named relation.  Installed lazily
        #: onto the relations so the unhooked write path stays free.
        self._invalidation_hooks: list[Callable[["KDatabase[K]", str, int], None]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def annotate(
        cls,
        query: BCQ,
        monoid: TwoMonoid[K],
        facts: Iterable[Fact],
        annotation_of: Callable[[Fact], K],
        *,
        columnar: bool = False,
    ) -> "KDatabase[K]":
        """Annotate *facts* with ``annotation_of`` (the ψ of Defs. 5.10/5.15).

        See :meth:`bulk_annotate`; ``columnar=True`` also seeds the array
        tier's columnar views from the same pass.
        """
        annotated = cls(query, monoid)
        annotated.bulk_annotate(facts, annotation_of, columnar=columnar)
        return annotated

    def bulk_annotate(
        self,
        facts: Iterable[Fact],
        annotation_of: Callable[[Fact], K],
        *,
        columnar: bool = False,
    ) -> None:
        """Annotate *facts* in bulk (equivalent to per-fact :meth:`set` calls).

        Groups the facts per relation in one pass and hands each group to
        :meth:`load_columns` as ``(relation, fact value tuples, facts)``, so
        ψ runs on the facts themselves.  Raises
        :class:`~repro.exceptions.SchemaError` for facts naming a relation
        the query does not mention, exactly like the per-fact path.
        """
        grouped: dict[str, list[Fact]] = {}
        for fact in facts:
            bucket = grouped.get(fact.relation)
            if bucket is None:
                grouped[fact.relation] = [fact]
            else:
                bucket.append(fact)
        self.load_columns(
            (
                (name, [fact.values for fact in bucket], bucket)
                for name, bucket in grouped.items()
            ),
            annotation_of,
            columnar=columnar,
        )

    def load_columns(
        self,
        columns: Iterable[tuple[str, Sequence[tuple[Value, ...]], Sequence]],
        annotation_of: Callable[[object], K],
        *,
        columnar: bool = False,
    ) -> None:
        """The annotation loader: ψ-annotate per-relation columns.

        *columns* yields ``(relation, keys, items)`` triples, *keys* the
        value tuples and *items* the aligned ψ inputs; each relation's
        annotations are ``annotation_of`` over its items, computed as one
        batch by the kernel's
        :meth:`~repro.core.kernels.MonoidKernel.map_annotations`.  Loading
        has :meth:`KRelation.set` semantics — a later key wins, ⊕-identities
        drop — and every relation is resolved before anything loads, so an
        unknown one raises :class:`~repro.exceptions.SchemaError` with no
        partial annotation.

        With ``columnar=True`` (sessions pass it when the engine can run the
        array tier) and an array kernel for the monoid, a relation loaded
        into an empty :class:`KRelation` is packed into one annotation
        column, its ⊕-identities are dropped with the kernel's
        ``zero_mask``, and the packed column seeds the relation's
        :class:`ColumnarKRelation` view.  An ``OverflowError`` while packing
        loads that relation the scalar way and records the decline verdict,
        like a failed lazy materialization.  Otherwise (or with
        ``columnar=False``) the relation loads through
        :meth:`KRelation.bulk_load` and its view materializes lazily.
        """
        resolved = [
            (self.relation(name), keys, items) for name, keys, items in columns
        ]
        kernel = _kernel_for(self.monoid)
        array_kernel = None
        if columnar:
            from repro.core.kernels import array_kernel_for

            array_kernel = array_kernel_for(self.monoid)
        for relation, keys, items in resolved:
            annotations = kernel.map_annotations(annotation_of, items)
            if array_kernel is None or relation._annotations:
                relation.bulk_load(keys, annotations)
                continue
            try:
                self._load_columnar(relation, array_kernel, keys, annotations)
            except OverflowError:
                relation.bulk_load(keys, annotations)
                self.decline_columnar(array_kernel)

    def _load_columnar(
        self,
        relation: KRelation[K],
        kernel,
        keys: Sequence[tuple[Value, ...]],
        annotations: Sequence[K],
    ) -> None:
        """Load an empty relation from one packed column and seed its view.

        The support dict and the view hold the same rows in the same order
        (first occurrence of each key, its last annotation, ⊕-identities
        dropped), so the view equals :meth:`ColumnarKRelation.from_relation`
        of the loaded relation.  Raises ``OverflowError`` before touching
        the relation when the annotations do not fit the kernel's dtype.
        """
        relation._check_batch(keys, annotations)
        support = dict(zip(keys, annotations))
        if len(support) != len(keys):
            keys = list(support)
            annotations = list(support.values())
        packed = kernel.to_array(annotations)
        zero = kernel.zero_mask(packed)
        if zero.any():
            for key in compress(keys, zero.tolist()):
                del support[key]
            keys = list(support)
            packed = packed[~zero]
        relation._install(support)
        with self._lock:
            interner = self._view_interner(kernel)
            columns = interner.encode_keys(kernel.np, keys, relation.atom.arity)
            view = columnar_relation_class(kernel)(
                relation.atom, kernel, columns, packed, interner, sort_cache={}
            )
            self._columnar[relation.atom.relation] = (relation._version, view)

    @classmethod
    def from_database(
        cls,
        query: BCQ,
        monoid: TwoMonoid[K],
        database: Database,
        annotation_of: Callable[[Fact], K] | None = None,
    ) -> "KDatabase[K]":
        """Annotate every fact of *database* (defaulting to ``monoid.one``)."""
        database.validate_against(query)
        fn = annotation_of or (lambda _fact: monoid.one)
        return cls.annotate(query, monoid, database.facts(), fn)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def relation(self, name: str) -> KRelation[K]:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no annotated relation named {name!r}") from None

    def set(self, fact: Fact, annotation: K) -> None:
        relation = self.relation(fact.relation)
        relation.set(fact.values, annotation)

    def annotation(self, fact: Fact) -> K:
        return self.relation(fact.relation).annotation(fact.values)

    def relations(self) -> Iterator[KRelation[K]]:
        return iter(self._relations.values())

    def size(self) -> int:
        """``|D|`` for annotated databases: total support size (Def. 6.5)."""
        return sum(len(relation) for relation in self._relations.values())

    # ------------------------------------------------------------------
    # Columnar views (the array execution tier)
    # ------------------------------------------------------------------
    def columnar_relation(self, name: str, kernel) -> ColumnarKRelation[K]:
        """The columnar view of one relation, cached across executions.

        *kernel* is the monoid's :class:`~repro.core.kernels.ArrayKernel`.
        Views are materialized lazily, share one :class:`_ValueInterner`
        (so merges can compare keys by integer id), and are invalidated
        per-relation by the :class:`KRelation` version counter — a session
        replaying one annotated database across many requests pays the
        dict → column conversion once per relation, not once per run.
        Thread-safe: the cache (and the shared interner) is only ever read
        or written under the database lock, so concurrent plan executions
        over one shared database materialize each view exactly once.
        """
        relation = self.relation(name)
        with self._lock:
            interner = self._view_interner(kernel)
            cached = self._columnar.get(name)
            if cached is not None and cached[0] == relation._version:
                return cached[1]
            view = columnar_relation_class(kernel).from_relation(
                relation, kernel, interner
            )
            self._columnar[name] = (relation._version, view)
            return view

    def _view_interner(self, kernel) -> _ValueInterner:
        """The shared interner of the view cache, which now serves *kernel*.

        Called under the database lock.  A different kernel instance
        (registry change or first use) drops the cached views, whose
        annotation dtype may differ.
        """
        if self._columnar_kernel is not kernel:
            self._columnar.clear()
            self._columnar_kernel = kernel
        if self._interner is None:
            self._interner = _ValueInterner()
        return self._interner

    def columnar_cache_info(self) -> dict[str, int]:
        """Cached-view count and interner size (tests/diagnostics)."""
        with self._lock:
            return {
                "relations": len(self._columnar),
                "interned_values": (
                    0 if self._interner is None else len(self._interner)
                ),
            }

    def _version_fingerprint(self) -> int:
        """Strictly increases with any relation mutation (version bumps)."""
        return sum(
            relation._version for relation in self._relations.values()
        )

    def columnar_declined(self, kernel) -> bool:
        """Whether a previous columnar materialization with *kernel* failed
        (``OverflowError``) and no relation has mutated since."""
        with self._lock:
            return self._columnar_declined == (
                kernel, self._version_fingerprint()
            )

    def decline_columnar(self, kernel) -> None:
        """Record a failed columnar materialization (executors call this
        after catching ``OverflowError`` so later runs skip the attempt)."""
        with self._lock:
            self._columnar_declined = (kernel, self._version_fingerprint())

    # ------------------------------------------------------------------
    # Versioned invalidation hooks (the serving layer's eviction signal)
    # ------------------------------------------------------------------
    def add_invalidation_hook(
        self, hook: Callable[["KDatabase[K]", str, int], None]
    ) -> None:
        """Register ``hook(database, relation_name, version)`` for mutations.

        The hook fires after every mutation of any relation of this database
        (per-fact :meth:`KRelation.set` and bulk loads alike), with the
        relation's post-mutation version — the same counter that keys the
        columnar-view cache and the session memo fingerprints, so hook
        consumers can evict exactly the state the mutation staled.  The
        per-relation listener is installed lazily on the first hook and
        removed with the last one, keeping the unhooked write path free.
        Hooks run on the mutating thread and must not mutate the database
        themselves.
        """
        with self._lock:
            self._invalidation_hooks.append(hook)
            if len(self._invalidation_hooks) == 1:
                for name, relation in self._relations.items():
                    relation._on_mutate = self._make_mutation_listener(
                        name, relation
                    )

    def remove_invalidation_hook(
        self, hook: Callable[["KDatabase[K]", str, int], None]
    ) -> None:
        """Unregister a hook added with :meth:`add_invalidation_hook`.

        Unknown hooks are ignored (idempotent removal, so pool teardown
        never races itself).
        """
        with self._lock:
            try:
                self._invalidation_hooks.remove(hook)
            except ValueError:
                return
            if not self._invalidation_hooks:
                for relation in self._relations.values():
                    relation._on_mutate = None

    def _make_mutation_listener(self, name: str, relation: KRelation[K]):
        def notify() -> None:
            with self._lock:
                hooks = list(self._invalidation_hooks)
            version = relation._version
            for hook in hooks:
                hook(self, name, version)

        return notify

    def relation_version(self, name: str) -> int:
        """The mutation counter of one relation (see version-keyed caches)."""
        return self.relation(name)._version

    def restore_relation_version(self, name: str, version: int) -> None:
        """Reset a relation's version after a mutate-and-restore cycle.

        For callers that flip annotations in place and restore them
        **bit-identically** (the session Shapley reduction): once the content
        is back, resetting the counter keeps every version-keyed consumer —
        columnar views, decline verdicts, memo fingerprints — truthful, so
        the transient flips do not permanently evict state derived from the
        restored content.  Any columnar view materialized from the transient
        content is dropped (its tag no longer matches the restored version).
        """
        relation = self.relation(name)
        with self._lock:
            relation._version = version
            cached = self._columnar.get(name)
            if cached is not None and cached[0] != version:
                del self._columnar[name]
