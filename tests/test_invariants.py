from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtensor import (
    AlgebraIdeal,
    AlgebraPresentation,
    AmbientMismatchError,
    CertificateError,
    GradedOnlyError,
    GradeCertificate,
    ImproperIdealError,
    NzdSearchExhausted,
    PermutationBoundExceeded,
    PolyRing,
    PrimeField,
    StepBudgetExceeded,
    ZeroRingError,
    buchberger,
    dim_quotient,
    embed_ideal,
    grade,
    height,
    is_cohen_macaulay,
    is_permutable_regular_sequence,
    is_regular_sequence,
    krull_dim,
    limits,
    make_algebra,
    normal_form,
    tensor,
    validate_grade_certificate,
)
from cmtensor import GREVLEX, LEX, IdealPresentation, Polynomial, groebner, invariants
from cmtensor.context import memo_scope
from cmtensor.errors import KernelError
from cmtensor.invariants import (
    _colon_witness,
    _extension_witness,
    _is_nzd_mod,
)
from cmtensor.polyring import DEGLEX, block_order
from conftest import basis_under, permuted, random_poly
from test_basis_memo import computed  # noqa: F401  (fixture)
from oracles import (
    dim_subset_oracle,
    reference_grade,
    reference_is_nzd,
    reference_quotient,
    reference_validate_grade_certificate,
)

F = PrimeField()


def poly_algebra(*names):
    return make_algebra(PolyRing(names, F))


def algebra(names, relation_builder):
    ring = PolyRing(names, F)
    return make_algebra(ring, relation_builder(*ring.gens()))


class TestKrullDim:
    def test_hypersurface(self):
        A = algebra(("x", "y", "z"), lambda x, y, z: (x * y,))
        assert krull_dim(A) == 2

    def test_classic_non_cm_support(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        assert krull_dim(A) == 1

    def test_base_field(self):
        assert krull_dim(make_algebra(PolyRing((), F))) == 0

    def test_polynomial_ring(self):
        assert krull_dim(poly_algebra("x", "y", "z")) == 3

    def test_agrees_with_subset_oracle(self):
        rng = random.Random(17)
        checked = 0
        for nvars in (2, 3, 4, 5, 6):
            ring = PolyRing(tuple("abcdef"[:nvars]), F)
            for _ in range(4):
                gens = [
                    random_poly(rng, ring, max_deg=2, max_terms=2, constant_free=True)
                    for _ in range(rng.randint(1, 3))
                ]
                try:
                    A = make_algebra(ring, gens)
                except ZeroRingError:
                    continue
                rels = A.relations
                supports = [
                    frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
                    for g in rels.reduced_basis()
                ]
                assert krull_dim(A) == dim_subset_oracle(nvars, supports)
                checked += 1
        assert checked >= 15


class TestDimQuotientAndHeight:
    def test_principal(self):
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        assert dim_quotient(A, AlgebraIdeal(A, (x,))) == 1
        assert dim_quotient(A, AlgebraIdeal(A, (x, y))) == 0

    def test_inside_quotient_ring(self):
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        x, _ = A.ring.gens()
        assert dim_quotient(A, AlgebraIdeal(A, (x,))) == 1

    def test_improper_is_zero_quotient_error(self):
        A = poly_algebra("x")
        x = A.ring.var(0)
        with pytest.raises(ImproperIdealError):
            dim_quotient(A, AlgebraIdeal(A, (x, x - 1)))

    def test_height_of_maximal(self):
        A = poly_algebra("x", "y", "z")
        x, y, _ = A.ring.gens()
        assert height(A, AlgebraIdeal(A, (x, y))) == 2

    def test_height_of_zero_ideal(self):
        A = poly_algebra("x", "y")
        assert height(A, AlgebraIdeal(A, ())) == 0

    def test_height_in_tensor(self):
        T = tensor(poly_algebra("x", "y"), poly_algebra("z"))
        P = AlgebraIdeal(T, T.ring.gens())
        assert height(T, P) == 3


def _zerodivisor_witness(A, gens):
    """The stop test on the relations of A: some a outside them with
    a * (gens) inside them, or None when (gens) holds a nonzerodivisor."""
    return _colon_witness(A.relations, AlgebraIdeal(A, gens))


class TestZerodivisors:
    def test_hypersurface_witness(self):
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        x, y = A.ring.gens()
        assert not is_regular_sequence(A, [x])
        assert _zerodivisor_witness(A, (x,)) == y

    def test_domain_has_none(self):
        A = poly_algebra("x", "y")
        x = A.ring.var(0)
        assert is_regular_sequence(A, [x])
        assert _zerodivisor_witness(A, (x,)) is None

    def test_nilpotent_is_a_zerodivisor(self):
        # x*x = x^2 lies in the relations, so x is a zerodivisor; the
        # witness must satisfy the annihilation contract (x itself and y
        # are both valid picks)
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        x, _ = A.ring.gens()
        assert not is_regular_sequence(A, [x])
        wit = _zerodivisor_witness(A, (x,))
        assert not A.relations.contains(wit)
        assert A.relations.contains(wit * x)

    def test_zero_element_witnessed_by_one(self):
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        x, y = A.ring.gens()
        assert not is_regular_sequence(A, [x * y])
        assert _zerodivisor_witness(A, (x * y,)) == A.ring.one

    def test_ideal_wholly_zerodivisors(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        x, y = A.ring.gens()
        assert _zerodivisor_witness(A, (x, y)) == x

    def test_ideal_with_a_nonzerodivisor(self):
        A = poly_algebra("x", "y")
        assert _zerodivisor_witness(A, (A.ring.var(0),)) is None

    def test_principal_on_hypersurface(self):
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        x, y = A.ring.gens()
        assert _zerodivisor_witness(A, (x,)) == y

    def test_product_of_nonzerodivisors_in_tensor(self):
        # a nonzerodivisor of A times one of B stays a nonzerodivisor of
        # the tensor
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        B = algebra(("u", "v"), lambda u, v: (u * v,))
        f = A.ring.var(0) + A.ring.var(1)
        g = B.ring.var(0) + B.ring.var(1)
        assert is_regular_sequence(A, [f])
        assert is_regular_sequence(B, [g])
        T = tensor(A, B)
        product = (
            embed_ideal(AlgebraIdeal(A, (f,)), T, "left").gens[0]
            * embed_ideal(AlgebraIdeal(B, (g,)), T, "right").gens[0]
        )
        assert is_regular_sequence(T, [product])


class TestRegularSequences:
    def test_variables_are_regular(self):
        A = poly_algebra("x", "y")
        assert is_regular_sequence(A, A.ring.gens())

    def test_repeat_fails(self):
        A = poly_algebra("x", "y")
        x, _ = A.ring.gens()
        assert not is_regular_sequence(A, (x, x))

    def test_properness_clause(self):
        ring = PolyRing(("x",), F)
        x = ring.var(0)
        A = make_algebra(ring, (x - 1,))
        assert not is_regular_sequence(A, (x,))

    def test_variables_regular_up_to_five(self):
        for n in range(1, 6):
            A = poly_algebra(*[f"x{i}" for i in range(n)])
            assert is_regular_sequence(A, A.ring.gens())
            assert is_permutable_regular_sequence(A, A.ring.gens())

    def test_permutable_pair(self):
        A = poly_algebra("x", "y")
        assert is_permutable_regular_sequence(A, A.ring.gens())

    def test_regular_but_not_permutable(self):
        # the order shown is regular; starting from y*(1-x) is not
        A = poly_algebra("x", "y", "z")
        x, y, z = A.ring.gens()
        seq = (x, y * (1 - x), z * (1 - x))
        assert is_regular_sequence(A, seq)
        assert not is_regular_sequence(A, (y * (1 - x), z * (1 - x), x))
        assert not is_permutable_regular_sequence(A, seq)

    def test_empty_sequence(self):
        A = poly_algebra("x")
        assert is_permutable_regular_sequence(A, ())

    def test_factorial_bound(self):
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        # homogeneous of positive degree: one regularity test, at any length
        assert not is_permutable_regular_sequence(A, (x, y, x, y, x, y))
        with pytest.raises(PermutationBoundExceeded):
            is_permutable_regular_sequence(A, (x, y, x, y, x, y + 1))


def _all_orders_regular(A, seq) -> bool:
    return all(is_regular_sequence(A, q) for q in itertools.permutations(seq))


@pytest.fixture
def regularity_tests(monkeypatch):
    """The sequences `is_permutable_regular_sequence` hands to
    `is_regular_sequence`, in order."""
    seen = []
    inner = invariants.is_regular_sequence

    def counting(A, seq):
        seen.append(tuple(seq))
        return inner(A, seq)

    monkeypatch.setattr(invariants, "is_regular_sequence", counting)
    return seen


class TestGradedPermutability:
    """Over a homogeneous presentation a homogeneous sequence of positive
    degrees is tested in its given order alone; every other input in all
    orders."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from((2, 3, 32003)))
    def test_random_homogeneous_input_matches_all_orders(self, data_seed, p):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z", "w")[: rng.randint(1, 4)], PrimeField(p))
        gens = ring.gens()

        def form():
            return random_poly(
                rng, ring, max_deg=2, max_terms=2, homogeneous=True, constant_free=True
            )

        A = make_algebra(ring, [form() for _ in range(rng.randint(0, 2))])
        # most elements get a power of their own variable, so that regular
        # sequences of every length are drawn
        order = list(range(ring.nvars))
        rng.shuffle(order)
        seq = []
        for i in range(rng.randint(0, 4)):
            f = form()
            if rng.random() < 0.7:
                f = f + gens[order[i % ring.nvars]] ** f.total_degree()
            if f.terms:
                seq.append(f)
        assert A.homogeneous
        assert all(f.is_homogeneous() and f.total_degree() > 0 for f in seq)
        assert is_permutable_regular_sequence(A, seq) == _all_orders_regular(A, seq)

    def test_homogeneous_sequence_is_tested_in_its_order_only(self, regularity_tests):
        A = make_algebra(PolyRing(("x", "y", "z"), F))
        x, y, z = A.ring.gens()
        seq = (x * x, y * y + x * z, z ** 2)
        assert is_permutable_regular_sequence(A, seq)
        assert regularity_tests == [seq]

    def test_inhomogeneous_element_is_tested_in_all_orders(self, regularity_tests):
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        seq = (x, y * (1 + x))
        assert is_permutable_regular_sequence(A, seq)
        assert regularity_tests == list(itertools.permutations(seq))

    def test_nonzero_constant(self):
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        three = A.ring.const(3)
        for seq in ((three,), (x, three), (three, y), (x, y, three)):
            assert not is_permutable_regular_sequence(A, seq)
            assert not _all_orders_regular(A, seq)

    def test_inhomogeneous_algebra(self, regularity_tests):
        # t = 1 - x in A, so this is x, y*(1-x), z*(1-x) of k[x,y,z] in
        # homogeneous elements: regular in the order shown, not in all
        ring = PolyRing(("x", "y", "z", "t"), F)
        x, y, z, t = ring.gens()
        A = make_algebra(ring, (t + x - 1,))
        seq = (x, y * t, z * t)
        assert not A.homogeneous
        assert is_regular_sequence(A, seq)
        assert not is_permutable_regular_sequence(A, seq)
        assert len(regularity_tests) > 1

    def test_bound_is_checked_after_the_graded_shortcut(self, regularity_tests):
        A = poly_algebra(*"abcdef")
        seq = A.ring.gens()
        assert is_permutable_regular_sequence(A, seq)
        assert regularity_tests == [seq]
        inhomogeneous = seq[:-1] + (seq[-1] + 1,)
        with pytest.raises(PermutationBoundExceeded):
            is_permutable_regular_sequence(A, inhomogeneous)
        assert regularity_tests == [seq]


R4 = PolyRing(("x", "y", "z", "w"), F)
NZD_ORDERS = [GREVLEX, LEX, DEGLEX, block_order((0, 1))]


def _coprime_lead_element(rng, stage, homogeneous):
    """An f whose leading monomial is coprime to every leading monomial of
    the stage's reduced basis, plus lower terms; None when every variable
    occurs in some of those leading monomials."""
    taken = {i for g in stage.reduced_basis() for i, e in enumerate(g.leading_monomial()) if e}
    free = [i for i in range(R4.nvars) if i not in taken]
    if not free:
        return None
    lead = [0] * R4.nvars
    for _ in range(rng.randint(1, 2)):
        lead[rng.choice(free)] += 1
    lead = tuple(lead)
    terms = {lead: rng.randrange(1, F.p)}
    for t in random_poly(rng, R4, 2, 4, homogeneous=homogeneous).terms:
        if GREVLEX.key(t) < GREVLEX.key(lead) and (not homogeneous or sum(t) == sum(lead)):
            terms[t] = rng.randrange(1, F.p)
    return Polynomial(R4, terms)


class TestStageBasisRoutes:
    """The stage's own reduced basis G decides many nonzerodivisor tests:
    a leading monomial coprime to those of G makes f a nonzerodivisor and
    G ∪ {f} the next stage's Groebner basis, and a cofactor g/f outside
    the stage of a stage element g makes f a zerodivisor."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.permutations(range(R4.nvars)),
        st.booleans(),
        st.sampled_from(["coprime lead", "cofactor inside", "cofactor outside", "any"]),
    )
    def test_against_the_colon(self, data_seed, perm, homogeneous, kind):
        rng = random.Random(data_seed)
        variables = rng.sample(range(R4.nvars), rng.randint(1, 3))

        def draw():
            # a random nonconstant element in the chosen variables
            degree = rng.randint(1, 2)
            terms = {}
            for k in range(rng.randint(1, 3)):
                e = [0] * R4.nvars
                for _ in range(degree if homogeneous or not k else rng.randint(0, 2)):
                    e[rng.choice(variables)] += 1
                terms[tuple(e)] = rng.randrange(1, F.p)
            return Polynomial(R4, terms)

        def factor():
            return random_poly(rng, R4, 2, 3, homogeneous=homogeneous, constant_free=True)

        gens = permuted([draw() for _ in range(rng.randint(1, 2))], perm)
        stage = IdealPresentation(R4, gens)
        if kind == "coprime lead":
            f = _coprime_lead_element(rng, stage, homogeneous) or factor()
        else:
            f = normal_form(factor(), stage.reduced_basis())
        if kind == "cofactor inside":
            stage = IdealPresentation(R4, gens + [f * factor() * rng.choice(gens)])
        elif kind == "cofactor outside":
            stage = IdealPresentation(R4, gens + [f * factor()])
        with memo_scope():
            r = normal_form(f, stage.reduced_basis())
            regular = _is_nzd_mod(stage, r)
            assert regular == reference_is_nzd(stage, f)
            if regular and r.terms:
                # the next stage's basis, seeded or not, is Buchberger's
                basis = invariants._next_stage(stage, r).reduced_basis()
                expected = buchberger(stage.generators + (r,))
                assert [g.terms for g in basis] == [g.terms for g in expected]

    @pytest.mark.parametrize("order", NZD_ORDERS)
    @pytest.mark.parametrize("inhomogeneous", [False, True])
    def test_seeded_stage_is_the_buchberger_basis(self, monkeypatch, order, inhomogeneous):
        # x does not occur in the stage, presented by its basis under
        # `order`, and x^2 leads f
        x, y, z, w = R4.gens()
        stage = IdealPresentation(R4, basis_under((y * w - z ** 2, y * z - w ** 2), order))
        f = x ** 2 - 3 * x * w + y * z + (y + 1 if inhomogeneous else 0)
        basis = stage.reduced_basis()
        expected = buchberger(stage.generators + (f,))

        def refuse(*args):
            raise AssertionError("the seeded stage ran Buchberger")

        monkeypatch.setattr(groebner, "_packed_buchberger", refuse)
        with memo_scope():
            r = normal_form(f, basis)
            assert _is_nzd_mod(stage, r)
            seeded = invariants._next_stage(stage, r).reduced_basis()
            assert [g.terms for g in seeded] == [g.terms for g in expected]
            assert [g.leading_monomial() for g in seeded] == [
                g.leading_monomial() for g in expected
            ]
            memo = groebner._memo_of(list(seeded))
            assert memo is not None and not memo.first
            h = x ** 3 * w + y ** 2 * w ** 2 + z ** 3
            assert normal_form(h, seeded) == normal_form(h, expected)
            assert memo.first  # the division read and filled the seeded basis's memo

    def test_both_routes_decide_without_hilbert_colon_or_buchberger(self, monkeypatch):
        x, y, z, w = R4.gens()
        coprime = IdealPresentation(R4, (x * y - z ** 2,))
        cofactor = IdealPresentation(R4, (x * y - z ** 2, (x + w) * y))
        trap = IdealPresentation(R4, (x * y, y))
        for stage in (coprime, cofactor, trap):
            stage.reduced_basis()

        def refuse(*args):
            raise AssertionError("the stage's basis should decide")

        monkeypatch.setattr(IdealPresentation, "hilbert_numerator", refuse)
        monkeypatch.setattr(invariants, "ideal_quotient", refuse)
        monkeypatch.setattr(groebner, "_packed_buchberger", refuse)
        with memo_scope():
            assert _is_nzd_mod(coprime, z + w)  # z shares no variable with xy
            assert invariants._next_stage(coprime, z + w).reduced_basis()
            # (x + w) * y lies in the stage and y does not
            assert not _is_nzd_mod(cofactor, x + w)
            # x divides xy, but the cofactor y lies in the stage: x is regular
            assert _is_nzd_mod(trap, x)

    def test_a_cofactor_inside_the_stage_decides_nothing(self):
        # (x + w) divides the second generator, by the first one: no
        # conclusion, and x + w is regular modulo the prime (xy - z^2)
        x, y, z, w = R4.gens()
        stage = IdealPresentation(R4, (x * y - z ** 2, (x + w) * (x * y - z ** 2)))
        assert _is_nzd_mod(stage, x + w)
        assert reference_is_nzd(stage, x + w)

    def test_the_cofactor_division_has_the_step_budget(self):
        x, y, z, w = R4.gens()
        stage = IdealPresentation(R4, (x * y - z ** 2, (x + w) * y))
        stage.reduced_basis()
        with limits(step_budget=0), pytest.raises(StepBudgetExceeded):
            _is_nzd_mod(stage, x + w)
        with limits(step_budget=1):
            assert not _is_nzd_mod(stage, x + w)

    def test_a_computed_basis_is_kept(self):
        x, y, z, w = R4.gens()
        stage = IdealPresentation(R4, (x * y - z ** 2,))
        with memo_scope():
            nxt = invariants._next_stage(stage, z + w)
            before = nxt.reduced_basis()
            assert _is_nzd_mod(stage, z + w)
            assert invariants._next_stage(stage, z + w) is nxt
            assert nxt.reduced_basis() is before

    @pytest.mark.parametrize("case", ["graded", "inhomogeneous"])
    def test_validation_takes_neither_route(self, monkeypatch, case):
        x, y, z, w = R4.gens()
        if case == "graded":
            A = make_algebra(R4, (x * z - y ** 2, y * w - z ** 2, x * w - y * z))
        else:
            A = make_algebra(R4, (x * y - z ** 3, z * w - x ** 2 + w))
        I = AlgebraIdeal(A, R4.gens())
        certs = [grade(A, I, seed) for seed in range(3)]

        def refuse(*args):
            raise AssertionError("validation used a route of the grade loop")

        for name in ("_is_nzd_mod", "_cofactor_outside", "_divide", "_next_stage"):
            monkeypatch.setattr(invariants, name, refuse)
        for cert in certs:
            validate_grade_certificate(A, I, cert)


class TestGrade:
    def test_maximal_ideal_of_plane(self):
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        cert = grade(A, AlgebraIdeal(A, (x, y)))
        assert cert.grade == 2
        assert cert.witness == A.ring.one

    def test_non_cm_socle(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        x, y = A.ring.gens()
        cert = grade(A, AlgebraIdeal(A, (x, y)))
        assert cert.grade == 0
        assert cert.witness == x
        assert cert.sequence == ()

    def test_monomial_pair(self):
        A = poly_algebra("x", "y", "z")
        x, y, z = A.ring.gens()
        cert = grade(A, AlgebraIdeal(A, (x * y, x * z)))
        assert cert.grade == 1
        assert cert.witness == y

    def test_zero_ideal_has_grade_zero(self):
        A = poly_algebra("x")
        cert = grade(A, AlgebraIdeal(A, ()))
        assert cert.grade == 0 and cert.witness == A.ring.one

    def test_improper_rejected(self):
        A = poly_algebra("x")
        x = A.ring.var(0)
        with pytest.raises(ImproperIdealError):
            grade(A, AlgebraIdeal(A, (x, x - 1)))

    def test_seed_independent_value(self):
        A = algebra(("x", "y", "z"), lambda x, y, z: (x * y,))
        x, y, z = A.ring.gens()
        I = AlgebraIdeal(A, (x + y, z, y ** 2))
        values = {grade(A, I, seed=s).grade for s in (0, 1, 2, 3, 4)}
        assert len(values) == 1

    def test_certificates_validate_for_every_seed(self):
        A = algebra(("x", "y", "z"), lambda x, y, z: (x * y,))
        x, y, z = A.ring.gens()
        I = AlgebraIdeal(A, (x + y, z))
        for s in (0, 1, 2):
            cert = grade(A, I, seed=s)
            validate_grade_certificate(A, I, cert)

    def test_complete_intersection_grade_equals_length(self):
        # homogeneous regular sequences of length n have grade n
        A = poly_algebra("x", "y", "z")
        x, y, z = A.ring.gens()
        cases = [
            (x,),
            (x, y ** 2),
            (x ** 2, y ** 2, z ** 3),
            (x ** 2 - y * z, y ** 2),
        ]
        for seq in cases:
            assert is_regular_sequence(A, seq)
            cert = grade(A, AlgebraIdeal(A, seq))
            assert cert.grade == len(seq)

    def test_grade_at_most_height(self):
        rng = random.Random(41)
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        algebras = [
            poly_algebra("x", "y"),
            make_algebra(ring, (x * y,)),
            make_algebra(ring, (x ** 2, x * y)),
        ]
        for A in algebras:
            for _ in range(4):
                gens = [
                    random_poly(rng, A.ring, max_deg=2, max_terms=2, constant_free=True)
                    for _ in range(rng.randint(1, 2))
                ]
                I = AlgebraIdeal(A, gens)
                if not I.is_proper() or I.is_zero():
                    continue
                assert grade(A, I).grade <= height(A, I)

    def test_search_exhaustion_is_reported(self):
        # over F_2 the associated primes (x), (y), (x+y) cover every
        # F_2-combination of the generators, so the search must give up
        ring = PolyRing(("x", "y"), PrimeField(2))
        x, y = ring.gens()
        A = make_algebra(ring, (x * y * (x + y),))
        I = AlgebraIdeal(A, (x, y))
        with limits(nzd_retries=8), pytest.raises(NzdSearchExhausted, match="in 8 draws"):
            grade(A, I, seed=0)

    def test_sequence_is_bounded_by_the_number_of_variables(self, monkeypatch):
        # a stage loop that never grows its stage must stop, not hang
        monkeypatch.setattr(invariants, "_next_stage", lambda stage, f: stage)
        A = poly_algebra("x", "y")
        x, y = A.ring.gens()
        with pytest.raises(KernelError, match="longer than 2, the number of variables"):
            grade(A, AlgebraIdeal(A, (x + y, x - y)))


def _grade_outcome(fn, A, I, seed):
    try:
        with limits(nzd_retries=8):
            return fn(A, I, seed)
    except KernelError as exc:
        return type(exc)


class TestGradeAgainstReference:
    """`grade` tries the candidates before the full colon ideal; the
    reference computes (stage : I) at every stage.  Same certificates."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3))
    def test_random_algebras_and_ideals(self, data_seed, seed):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z")[: rng.randint(1, 3)], F)
        rels = [
            random_poly(rng, ring, max_deg=2, max_terms=2, constant_free=True)
            for _ in range(rng.randint(0, 2))
        ]
        A = make_algebra(ring, rels)
        gens = [
            random_poly(rng, ring, max_deg=2, max_terms=2, constant_free=True)
            for _ in range(rng.randint(0, 3))
        ]
        I = AlgebraIdeal(A, gens)
        assert _grade_outcome(grade, A, I, seed) == _grade_outcome(reference_grade, A, I, seed)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3))
    def test_non_cm_family(self, data_seed, seed):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z")[: rng.randint(2, 3)], F)
        a, b = rng.sample(range(ring.nvars), 2)
        va, vb = ring.var(a), ring.var(b)
        A = make_algebra(ring, (va * va, va * vb))
        gens = [
            random_poly(rng, ring, max_deg=2, max_terms=2, constant_free=True)
            for _ in range(rng.randint(1, 3))
        ]
        for I in (AlgebraIdeal(A, gens), AlgebraIdeal(A, ring.gens())):
            assert _grade_outcome(grade, A, I, seed) == _grade_outcome(reference_grade, A, I, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_draw_stage(self, seed):
        # x and y are zerodivisors modulo (x*y) but x + y is not, so the
        # first stage needs the full colon and then random draws
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        I = AlgebraIdeal(A, A.ring.gens())
        cert = grade(A, I, seed)
        assert cert.grade == 1 and len(cert.sequence[0].terms) == 2
        assert cert == reference_grade(A, I, seed)

    @staticmethod
    def _colon_paths(monkeypatch, order, relation, inhomogeneous=False):
        """The grade of I = (x, y, z, u, v) in the CM tensor
        k[x, y, z]/(relation) ⊗ k[u, v], its relations presented by their
        basis under `order` (see ``basis_under``), and with v replaced by
        v + u^2 when `inhomogeneous`: the colons by the whole of I.lift,
        all tag-variable intersections, all colons and all degrees of the
        linear-algebra stop test, and the witness."""
        ring = PolyRing(("x", "y", "z"), F)
        A = make_algebra(ring, basis_under((relation(*ring.gens()),), order))
        T = tensor(A, poly_algebra("u", "v"))
        x, y, z, u, v = T.ring.gens()
        I = AlgebraIdeal(T, (x, y, z, u, v + u * u if inhomogeneous else v))
        lift = I.lift.generators
        full, intersections, colons, degrees = [], [], [], []
        quotient = invariants.ideal_quotient
        intersection = groebner.ideal_intersection
        kernel = invariants._least_kernel_element

        def counting_quotient(I, J):
            colons.append(J)
            if J.generators == lift:
                full.append(J)
            return quotient(I, J)

        def counting_intersection(I1, I2):
            intersections.append((I1, I2))
            return intersection(I1, I2)

        def counting_kernel(*args):
            degrees.append(args)
            return kernel(*args)

        monkeypatch.setattr(invariants, "ideal_quotient", counting_quotient)
        monkeypatch.setattr(groebner, "ideal_intersection", counting_intersection)
        monkeypatch.setattr(invariants, "_least_kernel_element", counting_kernel)
        cert = grade(T, I)
        assert cert.grade == 4 == krull_dim(T)
        counts = dict(
            full=len(full), intersections=len(intersections), colons=len(colons),
            degrees=len(degrees),
        )
        return counts, cert.witness

    @staticmethod
    def _binomial(x, y, z):
        # x, u and v extend the sequence; y and z are zerodivisors modulo
        # (x, yz, u, v), a monomial stage equal to its colon by I, which the
        # monomial route decides; a random y + c*z is drawn, and the last
        # stage, not a monomial ideal, takes the stop test counted here
        return x * x - y * z

    def test_full_colon_computed_once_for_a_cm_tensor(self, monkeypatch):
        # the last stage is homogeneous, so its stop test is linear algebra
        # and no colon by I.lift is computed at all
        counts, witness = self._colon_paths(monkeypatch, GREVLEX, self._binomial)
        assert counts["full"] == 0 and witness == witness.ring.var(2)

    def test_full_colon_computed_once_for_a_lex_cm_tensor(self, monkeypatch):
        # with v + u^2 in I the last stage takes the one full colon
        # (stage : I): the stop test is linear algebra for homogeneous
        # input only, whatever basis presents the relations
        counts, witness = self._colon_paths(monkeypatch, LEX, self._binomial, inhomogeneous=True)
        assert counts["full"] == 1 and witness == witness.ring.var(2)

    def test_intersections_of_a_cm_tensor(self, monkeypatch):
        # every principal test is decided by Hilbert series and the stop
        # test by linear algebra: no tag-variable intersection at all
        assert self._colon_paths(monkeypatch, GREVLEX, self._binomial)[0]["intersections"] == 0

    def test_intersections_of_a_lex_cm_tensor(self, monkeypatch):
        # with v + u^2 in I the last stage's colon is by z alone: the other
        # generators of I.lift reduce to zero or to multiples of z
        counts = self._colon_paths(monkeypatch, LEX, self._binomial, inhomogeneous=True)[0]
        assert counts["intersections"] == 1

    def test_monomial_cm_tensor_takes_no_colon(self, monkeypatch):
        # (x^2) ⊗ k[u, v]: every stage is a monomial ideal, so grade runs on
        # exponent tuples, with no colon, intersection or linear algebra;
        # (x^2) is its own reduced basis under every order
        counts, witness = self._colon_paths(monkeypatch, GREVLEX, lambda x, y, z: x * x)
        assert counts == dict(full=0, intersections=0, colons=0, degrees=0)
        assert witness == witness.ring.var(0)


def _colon_route(stage, I):
    """The stop test's witness from the colon ideal (stage : I) itself,
    computed by the reference colon, which shares no route with the
    kernel's."""
    return _extension_witness(stage, reference_quotient(stage, I.lift))


def _random_form(rng, ring, deg):
    return random_poly(rng, ring, max_deg=deg, max_terms=3, homogeneous=True, constant_free=True)


def _homogeneous_algebra(rng, names, kind):
    ring = PolyRing(names, F)
    if kind == "artinian":
        rels = [v ** rng.randint(1, 3) for v in ring.gens()]
        rels += [_random_form(rng, ring, 2) for _ in range(rng.randint(0, 1))]
    elif kind == "non-cm":
        a, b = rng.sample(range(ring.nvars), 2)
        rels = [ring.var(a) ** 2, ring.var(a) * ring.var(b)]
    else:
        rels = [_random_form(rng, ring, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    return make_algebra(ring, rels)


class TestColonWitness:
    """For homogeneous input the stop test finds its witness by linear
    algebra in one degree at a time; inhomogeneous input, and everything
    past the degree cap, takes the colon ideal.  The witness is
    the same polynomial either way."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["artinian", "forms", "non-cm", "tensor"]),
        st.integers(0, 3),
    )
    def test_random_homogeneous_algebras(self, data_seed, kind, seed):
        rng = random.Random(data_seed)
        if kind == "tensor":
            A = tensor(
                _homogeneous_algebra(rng, ("x", "y"), rng.choice(["artinian", "forms", "non-cm"])),
                _homogeneous_algebra(rng, ("u", "v"), rng.choice(["artinian", "forms"])),
            )
        else:
            A = _homogeneous_algebra(rng, ("x", "y", "z")[: rng.randint(2, 3)], kind)
        if rng.random() < 0.3:
            gens = A.ring.gens()
        else:
            gens = [_random_form(rng, A.ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        I = AlgebraIdeal(A, gens)
        outcome = _grade_outcome(grade, A, I, seed)
        assert outcome == _grade_outcome(reference_grade, A, I, seed)
        stages = [A.relations.generators]
        if isinstance(outcome, GradeCertificate):
            stages = outcome.stage_ideals
        for gens in stages:
            stage = IdealPresentation(A.ring, gens)
            assert _colon_witness(stage, I) == _colon_route(stage, I)

    @staticmethod
    def _witness_and_colons(monkeypatch, stage, I):
        colons = []
        inner = invariants.ideal_quotient

        def counting(I1, I2):
            colons.append(I2)
            return inner(I1, I2)

        monkeypatch.setattr(invariants, "ideal_quotient", counting)
        return _colon_witness(stage, I), len(colons)

    @staticmethod
    def _fallback_case(case, shift):
        """An algebra, an ideal and the expected witness for each fallback.
        With `shift` the variable x becomes x + y, so that no stage is a
        monomial ideal; in the lex case it becomes x + y^2, which makes
        the relations, presented by their reduced lex basis, inhomogeneous."""
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        if shift:
            x = x + (y * y if case == "lex" else y)
        if case == "lex":
            A = make_algebra(ring, basis_under((x * x, x * y), LEX))
            return A, AlgebraIdeal(A, (x, y)), x
        if case == "inhomogeneous":
            A = make_algebra(ring, (x * y - x,))
            return A, AlgebraIdeal(A, (y - 1,)), x
        if case == "above-the-cap":
            # the socle x^4 y^4 lies in degree 8, past the cap 5 + 2
            A = make_algebra(ring, (x ** 5, y ** 5))
            socle = normal_form(x ** 4 * y ** 4, A.relations.reduced_basis())
            return A, AlgebraIdeal(A, (x, y)), socle.monic()
        # y is a nonzerodivisor modulo (x^2): the colon is the stage
        A = make_algebra(ring, (x * x,))
        return A, AlgebraIdeal(A, (y,)), None

    @pytest.mark.parametrize("case", ["lex", "inhomogeneous", "above-the-cap"])
    def test_fallback_takes_the_colon(self, monkeypatch, case):
        # the inhomogeneous case is not monomial as it stands
        A, I, expected = self._fallback_case(case, shift=case != "inhomogeneous")
        w, colons = self._witness_and_colons(monkeypatch, A.relations, I)
        assert colons == 1
        assert w == expected == _colon_route(A.relations, I)

    def test_colon_equal_to_the_stage_stops_at_the_cap(self, monkeypatch):
        # y is a nonzerodivisor modulo ((x + y)^2), so no degree has a
        # witness; degrees 0..max(2, 1) + 2 are tried, then the colon decides
        A, I, _ = self._fallback_case("colon-is-the-stage", shift=True)
        degrees = []
        inner = invariants._least_kernel_element

        def tripwire(*args):
            degrees.append(args)
            if len(degrees) > 50:
                raise AssertionError("the degree loop does not stop")
            return inner(*args)

        monkeypatch.setattr(invariants, "_least_kernel_element", tripwire)
        w, colons = self._witness_and_colons(monkeypatch, A.relations, I)
        assert (w, colons, len(degrees)) == (None, 1, 5)
        assert _colon_route(A.relations, I) is None

    @pytest.mark.parametrize("case", ["lex", "above-the-cap", "colon-is-the-stage"])
    def test_monomial_stage_takes_no_colon(self, monkeypatch, case):
        # the unshifted inputs of the three tests above: a monomial stage
        # and single-term normal forms give the witness from the minimal
        # generators of the colon, with no colon, linear algebra or
        # intersection
        A, I, expected = self._fallback_case(case, shift=False)
        calls = []

        def refuse(*args):
            calls.append(args)
            raise AssertionError("a monomial stage takes the combinatorial route")

        monkeypatch.setattr(invariants, "_least_kernel_element", refuse)
        monkeypatch.setattr(groebner, "ideal_intersection", refuse)
        w, colons = self._witness_and_colons(monkeypatch, A.relations, I)
        assert (colons, calls) == (0, [])
        assert w == expected == _colon_route(A.relations, I)

    def test_no_standard_monomials_means_no_witness(self, monkeypatch):
        # (x^2, y^2) : (1) is the stage itself; the stage and the normal
        # form 1 are single terms, so the monomial route decides it
        # without the colon
        A = algebra(("x", "y"), lambda x, y: (x * x, y * y))
        I = AlgebraIdeal(A, (A.ring.one,))
        w, colons = self._witness_and_colons(monkeypatch, A.relations, I)
        assert (w, colons) == (None, 0)
        assert _colon_route(A.relations, I) is None

    def test_least_leading_monomial_is_the_witness(self, monkeypatch):
        # no linear form kills all of xy, xz, yz modulo the squares, and in
        # degree 2 xy, xz and yz all do: the witness is the least, yz
        A = algebra(("x", "y", "z"), lambda x, y, z: (x * x, y * y, z * z))
        x, y, z = A.ring.gens()
        I = AlgebraIdeal(A, (x * y, x * z, y * z))
        w, colons = self._witness_and_colons(monkeypatch, A.relations, I)
        assert colons == 0
        assert w == y * z == _colon_route(A.relations, I)

    def test_zero_ring_stage(self, monkeypatch):
        A = poly_algebra("x", "y")
        I = AlgebraIdeal(A, A.ring.gens())
        stage = IdealPresentation(A.ring, (A.ring.one,))
        w, colons = self._witness_and_colons(monkeypatch, stage, I)
        assert (w, colons) == (None, 0)
        assert _colon_route(stage, I) is None

    @pytest.mark.parametrize("e", range(2, 31))
    def test_binomial_curve_family(self, e):
        # I = (x, y) in k[x, y]/(x^e y - x y^e), a hypersurface of grade
        # 1, whose last stop test takes linear algebra up to degree about
        # e: the witness of every stage of the grade is the colon's
        A = algebra(("x", "y"), lambda x, y: (x ** e * y - x * y ** e,))
        I = AlgebraIdeal(A, A.ring.gens())
        cert = grade(A, I)
        assert cert.grade == 1
        for gens in cert.stage_ideals:
            stage = IdealPresentation(A.ring, gens)
            assert _colon_witness(stage, I) == _colon_route(stage, I)

    def test_ideal_inside_the_stage_is_witnessed_by_one(self):
        A = algebra(("x", "y"), lambda x, y: (x * y,))
        x, y = A.ring.gens()
        stage = IdealPresentation(A.ring, (x * y, x, y))
        I = AlgebraIdeal(A, (x, y))
        assert _colon_witness(stage, I) == A.ring.one == _colon_route(stage, I)


def _random_terms(rng, ring, count, max_exp=3):
    """`count` single-term polynomials with coefficients anywhere in F_p
    minus 0, some of them repeated, now and then with another coefficient."""
    terms = []
    for _ in range(count):
        if terms and rng.random() < 0.25:
            m = next(iter(rng.choice(terms).terms))
        else:
            m = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms.append(Polynomial(ring, {m: rng.choice([1, rng.randrange(1, ring.field.p)])}))
    return terms


class TestMonomialGrade:
    """Single-term relations and ideals: `grade` runs its stage loop on
    exponent tuples, the stop test and principal colons take the monomial
    routes, and each gives what the general path gives.  The references
    compute every colon with the tag variable."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.permutations(range(3)))
    def test_grade_against_the_reference(self, data_seed, seed, perm):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z")[: rng.randint(1, 3)], F)
        rels = permuted(_random_terms(rng, ring, rng.randint(0, 3)), perm)
        if any(not any(m) for g in rels for m in g.terms):
            return  # make_algebra refuses the zero ring; see test_zero_ring
        A = make_algebra(ring, rels)
        I = AlgebraIdeal(A, permuted(_random_terms(rng, ring, rng.randint(0, 4)), perm))
        outcome = _grade_outcome(grade, A, I, seed)
        assert outcome == _grade_outcome(reference_grade, A, I, seed)
        if isinstance(outcome, GradeCertificate):
            validate_grade_certificate(A, I, outcome)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", ["xy", "z-first", "after-the-draw"])
    def test_hand_off_to_the_random_draw(self, case, seed):
        # (M : I) = M at a monomial stage where no generator is a
        # nonzerodivisor: the general loop draws, with the rng unused
        ring = PolyRing(("x", "y", "z"), F)
        x, y, z = ring.gens()
        if case == "xy":
            A, gens = make_algebra(ring, (x * y,)), (x, y)
        elif case == "z-first":
            A, gens = make_algebra(ring, (3 * x * y,)), (5 * z, x, 2 * y, x)
        else:
            A, gens = make_algebra(ring, (x * y, x * z, y * z)), (x, y, z)
        I = AlgebraIdeal(A, gens)
        cert = grade(A, I, seed)
        assert cert == reference_grade(A, I, seed)
        assert any(len(f.terms) > 1 for f in cert.sequence)
        validate_grade_certificate(A, I, cert)

    def test_zero_ring(self):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = AlgebraPresentation(ring, IdealPresentation(ring, (x, 4 * ring.one)))
        I = AlgebraIdeal(A, (y,))
        assert _grade_outcome(grade, A, I, 0) is ImproperIdealError
        assert _grade_outcome(reference_grade, A, I, 0) is ImproperIdealError
        stage = IdealPresentation(ring, (x * y, 4 * ring.one))
        assert _colon_witness(stage, I) is None is _colon_route(stage, I)

    def test_spends_no_reduction_steps(self, step_counters):
        # the general loop reduces x^2 * y modulo (x^2, xy) in its stop test
        A = algebra(("x", "y"), lambda x, y: (x * x, x * y))
        x, y = A.ring.gens()
        I = AlgebraIdeal(A, (x, y))
        with limits(step_budget=0):
            cert = grade(A, I)
        assert (cert.grade, cert.witness) == (0, x)
        assert sum(c.used for c in step_counters) == 0
        assert cert == reference_grade(A, I)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.permutations(range(3)))
    def test_principal_quotient_against_the_reference(self, data_seed, perm):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z")[: rng.randint(1, 3)], F)
        I = IdealPresentation(ring, permuted(_random_terms(rng, ring, rng.randint(0, 4)), perm))
        J = IdealPresentation(ring, permuted(_random_terms(rng, ring, 1), perm))
        got = groebner.ideal_quotient(I, J)
        expected = reference_quotient(I, J)
        assert [h.terms for h in got.generators] == [h.terms for h in expected.generators]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.permutations(range(3)))
    def test_colon_witness_against_the_colon(self, data_seed, perm):
        """The stage is a monomial ideal; I's generators are single terms,
        or single terms plus a multiple of a relation, whose normal forms
        are single terms, or now and then a sum of two terms."""
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z")[: rng.randint(1, 3)], F)
        rels = permuted(_random_terms(rng, ring, rng.randint(0, 2)), perm)
        if any(not any(m) for g in rels for m in g.terms):
            return
        A = make_algebra(ring, rels)
        gens = permuted(_random_terms(rng, ring, rng.randint(1, 3)), perm)
        for i, g in enumerate(gens):
            kind = rng.randrange(5)
            if kind == 0 and rels:
                gens[i] = g + random_poly(rng, ring, 2, 2) * rng.choice(rels)
            elif kind == 1:
                gens[i] = g + _random_terms(rng, ring, 1)[0]
        I = AlgebraIdeal(A, gens)
        stage = IdealPresentation(ring, rels + permuted(_random_terms(rng, ring, rng.randint(0, 3)), perm))
        assert _colon_witness(stage, I) == _colon_route(stage, I)


class TestNonzerodivisorAgainstReference:
    """`_is_nzd_mod` decides homogeneous inputs by Hilbert series without
    a colon ideal; the reference computes (stage : f) every time."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["form", "constant", "inside", "inhomogeneous"]),
    )
    def test_random_stages(self, data_seed, kind):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z", "w")[: rng.randint(1, 4)], F)
        gens = [
            random_poly(rng, ring, max_deg=2, max_terms=3, homogeneous=True, constant_free=True)
            for _ in range(rng.randint(0, 3))
        ]
        if kind == "inhomogeneous":
            gens.append(ring.var(rng.randrange(ring.nvars)) ** 2 + ring.var(0))
        stage = IdealPresentation(ring, gens)
        if kind == "constant":
            f = ring.const(rng.randrange(ring.field.p))
        elif kind == "inside" and stage.generators:
            f = sum((random_poly(rng, ring, 1, 2, homogeneous=True) * g
                     for g in stage.generators[:1]), ring.zero)
        else:
            f = random_poly(rng, ring, max_deg=2, max_terms=3, homogeneous=True)
        homogeneous = kind != "inhomogeneous" and f.is_homogeneous()
        calls = []
        inner = groebner.ideal_intersection

        def counting(I1, I2):
            calls.append(I1)
            return inner(I1, I2)

        r = normal_form(f, stage.reduced_basis())
        groebner.ideal_intersection = counting
        try:
            verdict = _is_nzd_mod(stage, r)
        finally:
            groebner.ideal_intersection = inner
        assert verdict == reference_is_nzd(stage, f)
        if homogeneous:
            assert not calls

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_known_cases(self, order):
        # the relations are presented by their basis under `order`; under
        # lex, everything goes through the automorphism x -> x + y^2,
        # z -> z + x, so that the stage's reduced lex basis is not its
        # grevlex one
        ring = PolyRing(("x", "y", "z"), F)
        x, y, z = ring.gens()
        if order == LEX:
            x, z = x + y * y, z + x
        stage = make_algebra(ring, basis_under((x * y, x * z), order)).relations
        assert (set(stage.generators) == set(stage.reduced_basis())) == (order == GREVLEX)
        cases = {
            y + z: False,  # kills x
            x + y: True,
            x + y * z: None,  # not homogeneous: the colon decides
            ring.const(5): True,
            ring.zero: False,
            x * y: False,
        }
        for f, expected in cases.items():
            verdict = _is_nzd_mod(stage, normal_form(f, stage.reduced_basis()))
            assert verdict == reference_is_nzd(stage, f)
            if expected is not None:
                assert verdict == expected
        unit = IdealPresentation(ring, (x, ring.one))
        assert _is_nzd_mod(unit, ring.zero) and reference_is_nzd(unit, y)


class TestCertificateValidation:
    def setup_method(self):
        self.A = poly_algebra("x", "y")
        x, y = self.A.ring.gens()
        self.I = AlgebraIdeal(self.A, (x, y))
        self.cert = grade(self.A, self.I)

    def test_valid_certificate_passes(self):
        validate_grade_certificate(self.A, self.I, self.cert)

    def test_tampered_grade(self):
        bad = GradeCertificate(
            self.cert.sequence, self.cert.witness, self.cert.stage_ideals, 99
        )
        with pytest.raises(CertificateError):
            validate_grade_certificate(self.A, self.I, bad)

    def test_stage_chain_of_the_wrong_length(self):
        # the grade matches the sequence, but a stage is missing or extra
        cert = self.cert
        for stages in (cert.stage_ideals[:-1], cert.stage_ideals + cert.stage_ideals[-1:]):
            bad = cert._replace(stage_ideals=stages)
            with pytest.raises(CertificateError, match="^stage chain length is inconsistent$"):
                validate_grade_certificate(self.A, self.I, bad)

    def test_foreign_witness_of_the_zero_ideal(self):
        # the final stage and I.lift are both zero, so no normal form is
        # taken; the membership test still refuses the witness's ring
        A = poly_algebra("x")
        I = AlgebraIdeal(A, ())
        cert = grade(A, I)
        assert (cert.grade, cert.stage_ideals) == (0, ((),))
        bad = cert._replace(witness=PolyRing(("X",), F).one)
        with pytest.raises(AmbientMismatchError, match=r"^polynomial over \('x',\) used in \('X',\)$"):
            validate_grade_certificate(A, I, bad)

    def test_tampered_witness(self):
        x, _ = self.A.ring.gens()
        bad = GradeCertificate(
            self.cert.sequence, x, self.cert.stage_ideals, self.cert.grade
        )
        with pytest.raises(CertificateError):
            validate_grade_certificate(self.A, self.I, bad)

    def test_foreign_sequence_element(self):
        # a sequence through elements outside the ideal must be refused
        A = self.A
        x, y = A.ring.gens()
        I = AlgebraIdeal(A, (x,))
        good = grade(A, I)
        bad = GradeCertificate(
            (y,),
            good.witness,
            (A.relations.generators, A.relations.generators + (y,)),
            1,
        )
        with pytest.raises(CertificateError):
            validate_grade_certificate(A, I, bad)

    def test_zerodivisor_in_sequence(self):
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x * y,))
        I = AlgebraIdeal(A, (x,))
        bad = GradeCertificate(
            (x,),
            ring.one,
            (A.relations.generators, A.relations.generators + (x,)),
            1,
        )
        with pytest.raises(CertificateError):
            validate_grade_certificate(A, I, bad)

    def test_members_that_are_not_generators(self):
        # membership of an element that is no generator of I.lift is still
        # decided by the basis of I.lift
        A = self.A
        x, y = A.ring.gens()
        I = AlgebraIdeal(A, (x,))
        rels = A.relations.generators
        for f, w in ((2 * x, A.ring.one), (x + x * y, 1 + y)):
            cert = GradeCertificate((f,), w, (rels, rels + (f,)), 1)
            validate_grade_certificate(A, I, cert)

    def test_foreign_element_after_a_generator(self):
        # the basis of I.lift is built only at the second element, and it
        # must still refuse that element
        A = poly_algebra("x", "y", "z")
        x, y, _ = A.ring.gens()
        I = AlgebraIdeal(A, (x,))
        rels = A.relations.generators
        bad = GradeCertificate((x, y), A.ring.one, (rels, rels + (x,), rels + (x, y)), 2)
        with pytest.raises(CertificateError, match="outside the ideal"):
            validate_grade_certificate(A, I, bad)

    def test_witness_annihilating_only_the_final_stage(self):
        # w = z annihilates every generator of the final stage (z^2, x), but
        # not the generator y of I that lies outside it
        ring = PolyRing(("x", "y", "z"), F)
        x, y, z = ring.gens()
        A = make_algebra(ring, (z ** 2,))
        I = AlgebraIdeal(A, (x, y))
        rels = A.relations.generators
        bad = GradeCertificate((x,), z, (rels, rels + (x,)), 1)
        with pytest.raises(CertificateError, match="does not annihilate"):
            validate_grade_certificate(A, I, bad)

    def test_all_generator_certificate_builds_no_lift_basis(self, computed):
        # every sequence element is a generator of I.lift, so its basis is
        # never built; the stages are not monomial, so theirs are
        ring = PolyRing(("x", "y"), F)
        x, y = ring.gens()
        A = make_algebra(ring, (x ** 2 - y ** 2,))
        I = AlgebraIdeal(A, (x, y, x * y + y ** 2))
        cert = grade(A, I)
        assert cert.sequence == (x,)
        computed.clear()
        validate_grade_certificate(A, I, cert)
        assert computed  # the stages' bases are still built
        lift = frozenset(I.lift.generators)
        assert all(frozenset(args[1]) != lift for args in computed)

    def test_monomial_certificate_builds_no_basis(self, computed, monkeypatch):
        # monomial stages and a monomial I.lift are read by divisibility,
        # also for an element that is not a generator of I.lift
        A = algebra(("x", "y", "z"), lambda x, y, z: (x * y,))
        x, y, z = A.ring.gens()
        I = AlgebraIdeal(A, (x, z))
        cert = grade(A, I)
        assert (cert.sequence, cert.witness) == ((z,), y)
        rels = A.relations.generators
        scaled = GradeCertificate((3 * z,), 2 * y, (rels, rels + (3 * z,)), 1)

        def refuse(*args):
            raise AssertionError("validation took a normal form or a colon")

        monkeypatch.setattr(invariants, "normal_form", refuse)
        monkeypatch.setattr(invariants, "ideal_quotient", refuse)
        computed.clear()
        for c in (cert, scaled):
            validate_grade_certificate(A, I, c)
        with pytest.raises(CertificateError, match="lies in the final stage"):
            validate_grade_certificate(A, I, scaled._replace(witness=2 * x * y))
        with pytest.raises(CertificateError, match="f_2 is a zerodivisor modulo stage 1"):
            validate_grade_certificate(A, I, GradeCertificate(
                (z, x), y, (rels, rels + (z,), rels + (z, x)), 2
            ))
        assert computed == []

    def test_monomial_stages_spend_no_steps(self):
        # under a zero step budget the monomial certificate still validates
        # (its witness products reduce to zero, which would spend steps);
        # a certificate with a non-monomial stage still raises
        mono = algebra(("x", "y", "z"), lambda x, y, z: (x * y,))
        x, y, z = mono.ring.gens()
        I = AlgebraIdeal(mono, (x, z))
        rels = mono.relations.generators
        cert = GradeCertificate((3 * z,), 2 * y, (rels, rels + (3 * z,)), 1)
        curve = algebra(("x", "y", "z"), lambda x, y, z: (x * y - z ** 2,))
        J = AlgebraIdeal(curve, curve.ring.gens())
        other = grade(curve, J)
        with limits(step_budget=0):
            validate_grade_certificate(mono, I, cert)
            with pytest.raises(StepBudgetExceeded):
                reference_validate_grade_certificate(mono, I, cert)
            with pytest.raises(StepBudgetExceeded):
                validate_grade_certificate(curve, J, other)
        validate_grade_certificate(curve, J, other)


def _validation_outcome(validate, A, I, cert):
    """None when `validate` passes, else the type and message it raised."""
    try:
        validate(A, I, cert)
    except Exception as exc:  # noqa: BLE001  (compared, never swallowed)
        return type(exc), str(exc)
    return None


def _tampered(rng, A, I, cert):
    """`cert` and its tamperings, as (name, ideal, certificate)."""
    ring = A.ring
    rels = A.relations.generators
    other = PolyRing(tuple(n.upper() for n in ring.names), ring.field)
    seq = cert.sequence

    def chain(sequence, relations=rels):
        stages = tuple(relations + sequence[:k] for k in range(len(sequence) + 1))
        return GradeCertificate(sequence, cert.witness, stages, len(sequence))

    def foreign(f):
        return Polynomial(other, f.terms)

    c = rng.randrange(2, ring.field.p)
    outside = [
        Polynomial(ring, {m: c})
        for m in itertools.product(range(3), repeat=ring.nvars)
        if not I.lift.contains(Polynomial(ring, {m: 1}))
    ]
    out = [
        ("valid", I, cert),
        ("foreign witness", I, cert._replace(witness=foreign(cert.witness))),
        ("empty relations", I, chain(seq, ())),
        ("constant appended", I, chain(seq + (ring.const(c),))),
        ("constant in I", AlgebraIdeal(A, I.gens + (ring.const(c),)), chain(seq + (ring.const(c),))),
    ]
    if cert.stage_ideals[-1]:
        g = rng.choice(cert.stage_ideals[-1])
        out += [
            ("final generator", I, cert._replace(witness=g)),
            # a valid witness whose first terms lie in the final stage
            ("witness plus a generator", I, cert._replace(witness=g + cert.witness)),
        ]
    if outside:
        out.append(("outside appended", I, chain(seq + (rng.choice(outside),))))
    if seq:
        k = rng.randrange(len(seq))

        def swap(f):
            return chain(seq[:k] + (f,) + seq[k + 1:])

        out += [
            ("dropped", I, chain(seq[:-1])),
            ("repeated", I, chain(seq + seq[-1:])),
            ("zero", I, swap(ring.zero)),
            ("constant", I, swap(ring.const(c))),
            ("foreign element", I, swap(foreign(seq[k]))),
            ("foreign zero", I, swap(Polynomial(other, {}))),
            ("foreign stage", I, cert._replace(
                stage_ideals=cert.stage_ideals[:k + 1]
                + tuple(s[:-1] + (foreign(s[-1]),) for s in cert.stage_ideals[k + 1:])
            )),
        ]
        if outside:
            t = rng.choice(outside)
            out += [("outside I", I, swap(t)), ("element plus outside", I, swap(seq[k] + t))]
        # a certificate with an inhomogeneous element is checked by colons
        out.append(("inhomogeneous element", I, swap(seq[k] * (ring.one + ring.var(0)))))
    final = IdealPresentation(ring, cert.stage_ideals[-1])
    zerodivisors = [g for g in I.lift.generators if not final.contains(g)]
    if zerodivisors:
        # the witness annihilates it, so it is a zerodivisor modulo the
        # final stage, homogeneous when I.lift is
        out.append(("lift generator appended", I, chain(seq + (rng.choice(zerodivisors),))))
    return out


class TestValidationAgainstReference:
    """Validation reads monomial stages by divisibility, decides the
    elements of a graded certificate by Hilbert numerators, and takes
    normal forms and colons for the rest; the reference takes colons and
    normal forms for every stage.  Both pass, or raise the same exception
    with the same message, on valid certificates of random monomial and
    graded input and on tampered ones."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.permutations(range(4)))
    def test_random_monomial_certificates(self, data_seed, seed, perm):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z", "w")[: rng.randint(1, 4)], F)
        rels = permuted(_random_terms(rng, ring, rng.randint(0, 3), max_exp=2), perm)
        if any(not any(m) for g in rels for m in g.terms):
            return  # make_algebra refuses the zero ring
        A = make_algebra(ring, rels)
        I = AlgebraIdeal(A, permuted(_random_terms(rng, ring, rng.randint(1, 4), max_exp=2), perm))
        cert = _grade_outcome(grade, A, I, seed)
        if not isinstance(cert, GradeCertificate):
            return
        for name, J, c in _tampered(rng, A, I, cert):
            outcome = _validation_outcome(validate_grade_certificate, A, J, c)
            assert outcome == _validation_outcome(reference_validate_grade_certificate, A, J, c), name
            if name == "valid":
                assert outcome is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.permutations(range(4)))
    def test_random_graded_certificates(self, data_seed, seed, perm):
        rng = random.Random(data_seed)
        ring = PolyRing(("x", "y", "z", "w")[: rng.randint(2, 4)], F)
        rels = permuted(
            [_random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))], perm
        )
        if rng.random() < 0.3:
            gens = ring.gens()
        else:
            gens = [_random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        gens = permuted(gens, perm)
        if all(len(g.terms) == 1 for g in rels + gens):
            return  # monomial input: test_random_monomial_certificates
        A = make_algebra(ring, rels)
        I = AlgebraIdeal(A, gens)
        cert = _grade_outcome(grade, A, I, seed)
        if not isinstance(cert, GradeCertificate):
            return
        for name, J, c in _tampered(rng, A, I, cert):
            outcome = _validation_outcome(validate_grade_certificate, A, J, c)
            assert outcome == _validation_outcome(reference_validate_grade_certificate, A, J, c), name
            if name == "valid":
                assert outcome is None

    def test_foreign_polynomials_of_the_zero_ideal(self):
        # the final stage and I.lift are both zero, so no divisor checks
        # the ring of a witness or sequence element over k[X]; both
        # validators refuse them with the message of the membership test
        A = poly_algebra("x")
        I = AlgebraIdeal(A, ())
        one = PolyRing(("X",), F).one
        foreign_witness = GradeCertificate((), one, ((),), 0)
        foreign_element = GradeCertificate((one,), A.ring.var(0), ((), (one,)), 1)
        refused = (AmbientMismatchError, "polynomial over ('x',) used in ('X',)")
        for cert in (foreign_witness, foreign_element):
            assert _validation_outcome(validate_grade_certificate, A, I, cert) == refused
            assert _validation_outcome(reference_validate_grade_certificate, A, I, cert) == refused


class TestCohenMacaulay:
    def test_regular_ring(self):
        v = is_cohen_macaulay(poly_algebra("x", "y"))
        assert v.is_cm and v.dim == 2 and v.depth == 2

    def test_classic_failure(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        v = is_cohen_macaulay(A)
        assert not v.is_cm and v.dim == 1 and v.depth == 0
        irrelevant = AlgebraIdeal(A, A.ring.gens())
        validate_grade_certificate(A, irrelevant, v.certificate)

    def test_artinian(self):
        A = algebra(("x",), lambda x: (x ** 2,))
        v = is_cohen_macaulay(A)
        assert v.is_cm and v.dim == 0 and v.depth == 0

    def test_base_field(self):
        v = is_cohen_macaulay(make_algebra(PolyRing((), F)))
        assert v.is_cm and v.dim == 0

    def test_hypersurface(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2 + y ** 2,))
        v = is_cohen_macaulay(A)
        assert v.is_cm and v.dim == 1 and v.depth == 1

    def test_a_relation_of_degree_a_million(self):
        # the Hilbert test compares sparse numerators, so memory follows
        # their terms and not the relation's degree
        e = 10 ** 6
        A = algebra(("x", "y"), lambda x, y: (x ** e - y ** e,))
        tracemalloc.start()
        try:
            v = is_cohen_macaulay(A)
            validate_grade_certificate(A, AlgebraIdeal(A, A.ring.gens()), v.certificate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.is_cm and v.dim == v.depth == 1
        assert peak < 1_000_000

    def test_graded_only(self):
        A = algebra(("x",), lambda x: (x ** 2 - 1,))
        with pytest.raises(GradedOnlyError):
            is_cohen_macaulay(A)
