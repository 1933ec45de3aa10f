"""Finitely presented algebras, their tensor products, and ideal transport.

An algebra is a polynomial ring modulo a relations ideal; every ideal of
the algebra is stored as its full preimage (lift) in the ambient ring, so
the whole ideal calculus happens at the polynomial level with the
relations absorbed.  The tensor product of two presentations is the
presentation on the disjoint union of the variables with both relation
sets; clashing right-factor names are suffixed with a fresh index and the
renaming is kept for reports.

Inside a memo scope (see :mod:`cmtensor.context`) the tensor of two
presentation objects and each contraction of an ideal object are computed
once, keyed by the identity of their inputs; outside every scope each call
computes afresh.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import AmbientMismatchError, ImproperIdealError, KernelError, ZeroRingError
from .context import scope_cached
from .groebner import IdealPresentation, eliminate, normal_form
from .polyring import Polynomial, PolyRing, map_variables, restrict_variables


class AlgebraPresentation:
    """A nonzero algebra F_p[vars]/J; build through :func:`make_algebra`.

    Presentations compare by identity: an ideal belongs to one of them.
    `homogeneous` says whether every relation generator is homogeneous.
    """

    def __init__(self, ring: PolyRing, relations: IdealPresentation):
        self.ring = ring
        self.relations = relations
        self.homogeneous = all(g.is_homogeneous() for g in relations.generators)
        self._description = None

    def describe(self) -> str:
        """The presentation as text, rendered on the first call and kept."""
        if self._description is None:
            self._description = self._render()
        return self._description

    def _render(self) -> str:
        base = self.ring.describe()
        if self.relations.generators:
            return f"{base}/{self.relations.describe()}"
        return base

    def __repr__(self):
        return f"<algebra {self.describe()}>"


def make_algebra(ring: PolyRing, relations: Iterable[Polynomial] = ()) -> AlgebraPresentation:
    """Validated presentation: rejects the zero ring."""
    rels = IdealPresentation(ring, relations)
    if rels.contains_one():
        raise ZeroRingError(f"relations {rels.describe()} present the zero ring")
    return AlgebraPresentation(ring, rels)


class TensorAlgebra(AlgebraPresentation):
    """A tensor presentation; remembers its factors and the renaming table."""

    def __init__(self, ring: PolyRing, relations: IdealPresentation,
                 left: AlgebraPresentation, right: AlgebraPresentation, renaming: dict):
        super().__init__(ring, relations)
        self.left = left
        self.right = right
        self.renaming = renaming

    @property
    def left_positions(self) -> range:
        return range(self.left.ring.nvars)

    @property
    def right_positions(self) -> range:
        n = self.left.ring.nvars
        return range(n, n + self.right.ring.nvars)

    def _render(self) -> str:
        base = super()._render()
        if self.renaming:
            table = ", ".join(f"{old}->{new}" for old, new in self.renaming.items())
            return f"{base} [tensor; renamed: {table}]"
        return f"{base} [tensor]"


def tensor(A: AlgebraPresentation, B: AlgebraPresentation) -> TensorAlgebra:
    """A ⊗ B on the disjoint union of the variables with both relation sets.

    Inside a memo scope the tensor of the same two presentation objects is
    built once, and every later call returns that object without any work;
    outside every scope each call builds a new presentation.
    """
    return scope_cached(("tensor", A, B), lambda: _tensor(A, B))


def _tensor(A: AlgebraPresentation, B: AlgebraPresentation) -> TensorAlgebra:
    if A.ring.field != B.ring.field:
        raise AmbientMismatchError("tensor factors over different prime fields")
    taken = set(A.ring.names)
    pool = taken | set(B.ring.names)
    renaming = {}
    right_names = []
    for nm in B.ring.names:
        new = nm
        if new in taken:
            k = 1
            while f"{nm}_{k}" in pool:
                k += 1
            new = f"{nm}_{k}"
            renaming[nm] = new
            pool.add(new)
        taken.add(new)
        right_names.append(new)
    ring = PolyRing(A.ring.names + tuple(right_names), A.ring.field)
    nA = A.ring.nvars
    rels = [map_variables(g, ring, range(nA)) for g in A.relations.generators]
    rels += [
        map_variables(g, ring, range(nA, nA + B.ring.nvars))
        for g in B.relations.generators
    ]
    # A ⊗ B is nonzero whenever A and B are, so no zero-ring check is needed.
    return TensorAlgebra(
        ring=ring,
        relations=IdealPresentation(ring, rels),
        left=A,
        right=B,
        renaming=renaming,
    )


class AlgebraIdeal:
    """An ideal of a presented algebra, stored with its ambient lift.

    `gens` are the distinguished generators as given; `lift` is the ideal
    they generate together with the owner's relations.
    """

    __slots__ = ("owner", "gens", "lift")

    def __init__(self, owner: AlgebraPresentation, gens: Iterable[Polynomial] = ()):
        gens = tuple(g for g in gens if g.terms)
        for g in gens:
            if g.ring is not owner.ring and g.ring != owner.ring:
                raise AmbientMismatchError(
                    f"generator over {g.ring.names} for an ideal of {owner.ring.names}"
                )
        self.owner = owner
        self.gens = gens
        self.lift = IdealPresentation(owner.ring, gens + owner.relations.generators)

    def is_proper(self) -> bool:
        """Whether 1 ∉ I.

        When no generator of the lift has a constant term, the lift lies in
        (x_1, ..., x_n), so I is proper and no basis is built; otherwise the
        lift's reduced basis decides.
        """
        zero = (0,) * self.owner.ring.nvars
        if all(zero not in g.terms for g in self.lift.generators):
            return True
        return not self.lift.contains_one()

    def is_zero(self) -> bool:
        basis = self.owner.relations.reduced_basis()
        return all(not normal_form(g, basis).terms for g in self.gens)

    def describe(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(g.render() for g in self.gens) + ")"

    def __repr__(self):
        return f"<ideal {self.describe()} of {self.owner.describe()}>"


def require_proper(I: AlgebraIdeal, what: str = "ideal"):
    if not I.is_proper():
        raise ImproperIdealError(f"{what} {I.describe()} is not proper")


def quotient_algebra(A: AlgebraPresentation, I: AlgebraIdeal) -> AlgebraPresentation:
    """The presentation of A/I on the same ambient ring."""
    if I.owner is not A:
        raise KernelError("quotient by an ideal of a different algebra")
    if not I.is_proper():
        raise ZeroRingError(f"quotient by the improper ideal {I.describe()}")
    rels = IdealPresentation(A.ring, I.lift.generators)
    return AlgebraPresentation(A.ring, rels)


def _side(T: TensorAlgebra, side: str) -> tuple:
    """The factor on `side` of T and the positions of its variables in T."""
    if side == "left":
        return T.left, T.left_positions
    if side == "right":
        return T.right, T.right_positions
    raise KernelError(f"side must be 'left' or 'right', not {side!r}")


def embed_ideal(I: AlgebraIdeal, T: TensorAlgebra, side: str) -> AlgebraIdeal:
    """The extension of I along the factor inclusion into the tensor."""
    if not isinstance(T, TensorAlgebra):
        raise KernelError("embedding target is not a tensor presentation")
    factor, pos = _side(T, side)
    if I.owner is not factor:
        raise KernelError(f"ideal of {I.owner.describe()} is not a {side} ideal of this tensor")
    gens = [map_variables(g, T.ring, pos) for g in I.gens]
    return AlgebraIdeal(T, gens)


def joined_ideal(I: AlgebraIdeal, J: AlgebraIdeal, T: TensorAlgebra) -> AlgebraIdeal:
    """The ideal extending I from the left and J from the right, summed.

    The quotient of the tensor by this ideal presents (A/I) ⊗ (B/J).
    """
    require_proper(I, "left ideal")
    require_proper(J, "right ideal")
    ei = embed_ideal(I, T, "left")
    ej = embed_ideal(J, T, "right")
    return AlgebraIdeal(T, ei.gens + ej.gens)


def product_ideal(I: AlgebraIdeal, J: AlgebraIdeal, T: TensorAlgebra) -> AlgebraIdeal:
    """The ideal generated by all products of I's and J's generator images."""
    require_proper(I, "left ideal")
    require_proper(J, "right ideal")
    ei = embed_ideal(I, T, "left")
    ej = embed_ideal(J, T, "right")
    gens = [f * g for f in ei.gens for g in ej.gens]
    return AlgebraIdeal(T, gens)


def contract(P: AlgebraIdeal, side: str) -> AlgebraIdeal:
    """P ∩ A (resp. P ∩ B): eliminate the other factor's variables from the lift.

    Inside a memo scope each ideal object is contracted to each side once,
    and every later call returns that ideal; outside every scope each call
    computes afresh.
    """
    return scope_cached(("contract", P, side), lambda: _contract(P, side))


def _contract(P: AlgebraIdeal, side: str) -> AlgebraIdeal:
    T = P.owner
    if not isinstance(T, TensorAlgebra):
        raise KernelError("contraction needs an ideal of a tensor presentation")
    factor, pos = _side(T, side)
    others = [name for i, name in enumerate(T.ring.names) if i not in pos]
    elim = eliminate(P.lift, others)
    restricted = [restrict_variables(g, factor.ring, pos) for g in elim.generators]
    rel_basis = factor.relations.reduced_basis()
    gens = [g for g in restricted if normal_form(g, rel_basis).terms]
    return AlgebraIdeal(factor, gens)
