from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtensor import (
    AlgebraIdeal,
    ImproperIdealError,
    KernelError,
    PolyRing,
    PrimeField,
    StepBudgetExceeded,
    ZeroRingError,
    contract,
    embed_ideal,
    grade,
    ideal_equal,
    joined_ideal,
    krull_dim,
    limits,
    make_algebra,
    product_ideal,
    quotient_algebra,
    tensor,
)
from cmtensor.groebner import IdealPresentation
from conftest import random_poly

F = PrimeField()


def poly_algebra(*names):
    return make_algebra(PolyRing(names, F))


class TestMakeAlgebra:
    def test_polynomial_ring(self):
        A = poly_algebra("x")
        assert A.relations.generators == ()
        assert A.homogeneous

    def test_classic_quotient(self):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x ** 2, x * y))
        assert A.homogeneous
        assert A.relations.reduced_basis() == (x * y, x ** 2)

    def test_zero_ring_rejected(self):
        ring = PolyRing(("x",), F)
        with pytest.raises(ZeroRingError):
            make_algebra(ring, (ring.one,))
        with pytest.raises(ZeroRingError):
            make_algebra(ring, (ring.var(0), ring.var(0) - 1))

    def test_inhomogeneous_flag(self):
        ring = PolyRing(("x",), F)
        x = ring.var(0)
        assert not make_algebra(ring, (x ** 2 - 1,)).homogeneous


class TestTensor:
    def test_polynomial_rings(self):
        T = tensor(poly_algebra("x"), poly_algebra("y"))
        assert T.ring.names == ("x", "y")
        assert T.relations.generators == ()

    def test_relations_are_joined(self):
        ra = PolyRing(("x",), F)
        rb = PolyRing(("y",), F)
        A = make_algebra(ra, (ra.var(0) ** 2,))
        B = make_algebra(rb, (rb.var(0) ** 3,))
        T = tensor(A, B)
        x, y = T.ring.gens()
        assert ideal_equal(T.relations, IdealPresentation(T.ring, (x ** 2, y ** 3)))
        assert T.homogeneous

    def test_tensor_with_base_field(self):
        A = poly_algebra("x", "y")
        T = tensor(A, make_algebra(PolyRing((), F)))
        assert T.ring.names == ("x", "y")

    def test_name_clash_renames_right_factor(self):
        T = tensor(poly_algebra("x", "y"), poly_algebra("y", "z"))
        assert T.ring.names == ("x", "y", "y_1", "z")
        assert T.renaming == {"y": "y_1"}
        assert "renamed" in T.describe()

    def test_description_is_rendered_once(self, monkeypatch):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x * y,))
        T = tensor(A, poly_algebra("y"))
        rendered = []
        inner = IdealPresentation.describe

        def counting(self):
            rendered.append(self)
            return inner(self)

        monkeypatch.setattr(IdealPresentation, "describe", counting)
        assert A.describe() == "GF(32003)[x, y]/(x*y)"
        assert T.describe() == "GF(32003)[x, y, y_1]/(x*y) [tensor; renamed: y->y_1]"
        assert A.describe() is A.describe() and T.describe() is T.describe()
        assert rendered == [A.relations, T.relations]

    def test_dim_additivity(self):
        rng = random.Random(23)
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        cases = [
            poly_algebra("x", "y"),
            make_algebra(ring, (x * y,)),
            make_algebra(ring, (x ** 2, x * y)),
            make_algebra(PolyRing(("x",), F), (PolyRing(("x",), F).var(0) ** 2,)),
        ]
        for A in cases:
            for B in (poly_algebra("u"), poly_algebra("u", "v")):
                assert krull_dim(tensor(A, B)) == krull_dim(A) + krull_dim(B)

    def test_symmetry_up_to_renaming(self):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x ** 2, x * y))
        B = poly_algebra("u")
        T1, T2 = tensor(A, B), tensor(B, A)
        assert krull_dim(T1) == krull_dim(T2)
        g1 = grade(T1, AlgebraIdeal(T1, T1.ring.gens()), seed=1)
        g2 = grade(T2, AlgebraIdeal(T2, T2.ring.gens()), seed=1)
        assert g1.grade == g2.grade


class TestEmbedding:
    def setup_method(self):
        self.A = poly_algebra("x", "y")
        self.B = poly_algebra("z")
        self.T = tensor(self.A, self.B)

    def test_simple_extension(self):
        x, y = self.A.ring.gens()
        E = embed_ideal(AlgebraIdeal(self.A, (x,)), self.T, "left")
        assert ideal_equal(E.lift, IdealPresentation(self.T.ring, (self.T.ring.var("x"),)))

    def test_zero_ideal_extends_to_relations(self):
        E = embed_ideal(AlgebraIdeal(self.A, ()), self.T, "left")
        assert E.gens == ()
        assert ideal_equal(E.lift, self.T.relations)

    def test_both_variables(self):
        x, y = self.A.ring.gens()
        E = embed_ideal(AlgebraIdeal(self.A, (x, y)), self.T, "left")
        tx, ty = self.T.ring.var("x"), self.T.ring.var("y")
        assert ideal_equal(E.lift, IdealPresentation(self.T.ring, (tx, ty)))

    def test_side_mismatch(self):
        x, _ = self.A.ring.gens()
        with pytest.raises(KernelError):
            embed_ideal(AlgebraIdeal(self.A, (x,)), self.T, "right")

    def test_properness_transfer(self):
        rng = random.Random(31)
        for _ in range(8):
            gens = [
                random_poly(rng, self.A.ring, max_deg=2, max_terms=2, constant_free=True)
                for _ in range(rng.randint(1, 2))
            ]
            I = AlgebraIdeal(self.A, gens)
            if not I.is_proper():
                continue
            assert embed_ideal(I, self.T, "left").is_proper()


class TestJoinedAndProduct:
    def setup_method(self):
        self.A = poly_algebra("x", "y")
        self.B = poly_algebra("z")
        self.T = tensor(self.A, self.B)

    def test_joined_variables(self):
        x, y = self.A.ring.gens()
        z = self.B.ring.var(0)
        K = joined_ideal(AlgebraIdeal(self.A, (x, y)), AlgebraIdeal(self.B, (z,)), self.T)
        expect = IdealPresentation(self.T.ring, self.T.ring.gens())
        assert ideal_equal(K.lift, expect)

    def test_joined_zero_ideals(self):
        K = joined_ideal(AlgebraIdeal(self.A, ()), AlgebraIdeal(self.B, ()), self.T)
        assert ideal_equal(K.lift, self.T.relations)

    def test_product_pairwise(self):
        x, y = self.A.ring.gens()
        z = self.B.ring.var(0)
        P = product_ideal(AlgebraIdeal(self.A, (x,)), AlgebraIdeal(self.B, (z,)), self.T)
        tx, tz = self.T.ring.var("x"), self.T.ring.var("z")
        assert ideal_equal(P.lift, IdealPresentation(self.T.ring, (tx * tz,)))

    def test_product_with_zero_is_relations(self):
        x, _ = self.A.ring.gens()
        P = product_ideal(AlgebraIdeal(self.A, (x,)), AlgebraIdeal(self.B, ()), self.T)
        assert P.gens == ()
        assert ideal_equal(P.lift, self.T.relations)

    def test_improper_input_rejected(self):
        x, _ = self.A.ring.gens()
        bad = AlgebraIdeal(self.A, (x - 1, x))
        good = AlgebraIdeal(self.B, (self.B.ring.var(0),))
        with pytest.raises(ImproperIdealError):
            joined_ideal(bad, good, self.T)
        with pytest.raises(ImproperIdealError):
            product_ideal(bad, good, self.T)

    def test_quotient_isomorphism_witness(self):
        # the joined lift and the directly assembled presentation have the
        # same reduced basis
        x, y = self.A.ring.gens()
        z = self.B.ring.var(0)
        K = joined_ideal(AlgebraIdeal(self.A, (x, y ** 2)), AlgebraIdeal(self.B, (z,)), self.T)
        direct = IdealPresentation(
            self.T.ring,
            (
                self.T.ring.var("x"),
                self.T.ring.var("y") ** 2,
                self.T.ring.var("z"),
            )
            + self.T.relations.generators,
        )
        assert K.lift.reduced_basis() == direct.reduced_basis()


class TestContract:
    def test_variable_prime(self):
        A, B = poly_algebra("x"), poly_algebra("y")
        T = tensor(A, B)
        P = AlgebraIdeal(T, (T.ring.var("x"), T.ring.var("y")))
        p = contract(P, "left")
        assert p.owner is A
        assert ideal_equal(p.lift, IdealPresentation(A.ring, (A.ring.var(0),)))

    def test_diagonal_contracts_to_zero(self):
        A, B = poly_algebra("x"), poly_algebra("y")
        T = tensor(A, B)
        P = AlgebraIdeal(T, (T.ring.var("x") - T.ring.var("y"),))
        assert contract(P, "left").gens == ()
        assert contract(P, "right").gens == ()

    def test_right_contraction(self):
        A, B = poly_algebra("x", "y"), poly_algebra("z")
        T = tensor(A, B)
        P = AlgebraIdeal(T, T.ring.gens())
        q = contract(P, "right")
        assert q.owner is B
        assert ideal_equal(q.lift, IdealPresentation(B.ring, (B.ring.var(0),)))

    def test_requires_tensor(self):
        A = poly_algebra("x")
        with pytest.raises(KernelError):
            contract(AlgebraIdeal(A, (A.ring.var(0),)), "left")

    def test_adjunction_on_random_proper_ideals(self):
        rng = random.Random(37)
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x * y,))
        B = poly_algebra("u", "v")
        T = tensor(A, B)
        for _ in range(8):
            gens = [
                random_poly(rng, ring, max_deg=2, max_terms=2, constant_free=True)
                for _ in range(rng.randint(1, 2))
            ]
            I = AlgebraIdeal(A, gens)
            if not I.is_proper():
                continue
            back = contract(embed_ideal(I, T, "left"), "left")
            assert back.owner is A
            assert ideal_equal(back.lift, I.lift)


class TestProperness:
    """``is_proper`` answers a constant-free lift without a basis, and
    ``is_zero`` monomial relations."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_agrees_with_the_basis(self, seed, nvars):
        rng = random.Random(seed)
        ring = PolyRing(("x", "y", "z")[:nvars], F)
        rels = [random_poly(rng, ring, max_deg=2) for _ in range(rng.randint(0, 2))]
        try:
            A = make_algebra(ring, rels)
        except ZeroRingError:
            return
        gens = [random_poly(rng, ring, max_deg=2) for _ in range(rng.randint(0, 3))]
        I = AlgebraIdeal(A, gens)
        assert I.is_proper() == (not I.lift.contains_one())

    def test_units_and_improper_sums(self):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x ** 2,))
        assert not AlgebraIdeal(A, (1 + x,)).is_proper()  # (1 + x)(1 - x) = 1 - x^2
        assert not AlgebraIdeal(A, (x, x + 1)).is_proper()
        assert not AlgebraIdeal(A, (x * y - 1, y)).is_proper()
        assert AlgebraIdeal(A, (x + y ** 2, y)).is_proper()
        assert AlgebraIdeal(A, (y - 1,)).is_proper()  # inside the maximal (x, y - 1)

    def test_constant_free_lift_builds_no_basis(self):
        ring = PolyRing(("x", "y", "z"), F)
        x, y, z = ring.gens()
        A = make_algebra(ring, (x * y - z ** 2,))
        I = AlgebraIdeal(A, (y * z - x ** 2, x * z - y ** 2))
        with limits(step_budget=0):
            assert I.is_proper()
            with pytest.raises(StepBudgetExceeded):
                I.lift.contains_one()
        assert I.lift._basis is None

    def test_is_zero_over_monomial_relations_builds_no_basis(self):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x ** 2, x * y))
        with limits(step_budget=0):
            assert AlgebraIdeal(A, (x ** 3, 2 * x * y ** 2)).is_zero()
            assert not AlgebraIdeal(A, (x ** 2, y)).is_zero()
            assert AlgebraIdeal(A, ()).is_zero()
        assert A.relations._basis is None


class TestQuotientAlgebra:
    def test_presents_the_quotient(self):
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        U = quotient_algebra(A, AlgebraIdeal(A, (x,)))
        assert krull_dim(U) == 1

    def test_improper_rejected(self):
        A = poly_algebra("x")
        x = A.ring.var(0)
        with pytest.raises(ZeroRingError):
            quotient_algebra(A, AlgebraIdeal(A, (x, x - 1)))
