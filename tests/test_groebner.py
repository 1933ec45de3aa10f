from __future__ import annotations

import heapq
import importlib
import inspect
import pkgutil
import random
import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cmtensor

from cmtensor import (
    DEFAULT_STEP_BUDGET,
    GREVLEX,
    LEX,
    AlgebraIdeal,
    AmbientMismatchError,
    IdealPresentation,
    KernelError,
    PolyRing,
    Polynomial,
    PrimeField,
    StepBudgetExceeded,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    grade,
    limits,
    make_algebra,
    normal_form,
    validate_grade_certificate,
)
from cmtensor import context, groebner, invariants
from cmtensor.context import NZD_RETRY_CAP, current_limits, memo_scope, scope_cached
from cmtensor.invariants import _is_nzd_mod
from cmtensor.polyring import DEGLEX, block_order, map_variables, mono_divides, mono_mul
from conftest import basis_under, random_poly
from oracles import (
    membership_oracle,
    reference_buchberger,
    reference_buchberger_all_pairs,
    reference_eliminate,
    reference_intersection,
    reference_is_nzd,
    reference_normal_form,
    reference_quotient,
)

F = PrimeField()
R2 = PolyRing(("x", "y"), F)
R3 = PolyRing(("x", "y", "z"), F)


def ideal(ring, *gens):
    return IdealPresentation(ring, gens)


class TestNormalForm:
    def test_substitution(self):
        x, y = R2.gens()
        assert normal_form(x ** 2, [x - y], LEX) == y ** 2

    def test_self_reduces_to_zero(self):
        x, y = R2.gens()
        g = x ** 2 * y + 3 * x - 1
        assert not normal_form(g, [g], GREVLEX)

    def test_untouched_when_no_divisor(self):
        x, y = R2.gens()
        assert normal_form(y + 1, [x], LEX) == y + 1

    def test_empty_basis_is_identity(self):
        f = R2.var(0) + 2
        assert normal_form(f, [], GREVLEX) == f

    def test_deterministic_given_basis_sequence(self):
        # the remainder may differ between basis orderings, but each
        # ordering always produces the same remainder, congruent to f
        x, y = R2.gens()
        f = x * y
        r1 = normal_form(f, [x, x - y], GREVLEX)
        r2 = normal_form(f, [x - y, x], GREVLEX)
        assert r1 == R2.zero
        assert r2 == y ** 2
        assert r1 == normal_form(f, [x, x - y], GREVLEX)
        assert r2 == normal_form(f, [x - y, x], GREVLEX)
        I = ideal(R2, x, x - y)
        assert I.contains(f - r1) and I.contains(f - r2)


    def test_entry_inverse_equals_the_fermat_inverse(self):
        # the inverse leading coefficient of a division entry, up to the
        # largest prime below MODULUS_BOUND
        rng = random.Random(5)
        for p in (2, 3, 32003, 3_317_044_064_679_887_385_961_813):
            for _ in range(50):
                c = rng.randrange(1, p)
                lm, inv, tail = groebner._entry({7: c, 3: 1}, p)
                assert (lm, inv, tail) == (7, pow(c, p - 2, p), ((3, 1),))


class TestBuchberger:
    def test_hand_example(self):
        x, y = R2.gens()
        basis = buchberger([x - y ** 2, x], GREVLEX)
        assert basis == [x, y ** 2]

    def test_monomial_ideal_already_reduced(self):
        x, y = R2.gens()
        assert buchberger([x, y], GREVLEX) == [y, x]

    def test_zero_ideal(self):
        basis = buchberger([R2.zero], GREVLEX)
        assert basis == []
        f = R2.var(0) + 1
        assert not ideal(R2).contains(f)

    def test_unit_ideal(self):
        x, y = R2.gens()
        basis = buchberger([x - 1, x], GREVLEX)
        assert basis == [R2.one]

    def test_reduced_basis_is_monic_and_autoreduced(self):
        x, y, z = R3.gens()
        basis = buchberger([3 * x ** 2 - y, x * y - z, y ** 2 + z], GREVLEX)
        for i, g in enumerate(basis):
            assert g.leading_term(GREVLEX)[1] == 1
            others = [h for j, h in enumerate(basis) if j != i]
            assert normal_form(g, others, GREVLEX) == g

    def test_uniqueness_under_generator_shuffles(self):
        rng = random.Random(42)
        for trial in range(12):
            gens = [random_poly(rng, R3, max_deg=2, max_terms=3) for _ in range(3)]
            reference = buchberger(gens, GREVLEX)
            for _ in range(3):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert buchberger(shuffled, GREVLEX) == reference

    def test_step_budget_is_enforced(self):
        # non-coprime leading monomials, so the pair criteria cannot skip
        x, y, z = R3.gens()
        gens = [x * y - z ** 2, y * z - x ** 2, x * z - y ** 2]
        full = buchberger(gens, GREVLEX)
        assert full  # sanity: the unrestricted computation succeeds
        with limits(step_budget=3), pytest.raises(StepBudgetExceeded):
            buchberger(gens, GREVLEX)

    def test_zero_step_budget_is_not_the_default(self):
        x, y, z = R3.gens()
        with limits(step_budget=0):
            with pytest.raises(StepBudgetExceeded):
                buchberger([x * y - z ** 2, y * z - x ** 2], GREVLEX)
            with pytest.raises(StepBudgetExceeded):
                normal_form(x ** 2, [x], GREVLEX)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            buchberger([R2.var(0), R3.var(0)], GREVLEX)


class TestMembership:
    def test_monomial_multiple(self):
        x, y = R2.gens()
        assert ideal(R2, x).contains(x ** 2 * y)

    def test_unit_ideal_contains_everything(self):
        x, y = R2.gens()
        assert ideal(R2, x - 1, x).contains(R2.one)

    def test_reduced_element_stays_out(self):
        x, y = R2.gens()
        assert not ideal(R2, x ** 2, x * y).contains(y)

    def test_agrees_with_linear_algebra_oracle(self):
        rng = random.Random(7)
        agreements = 0
        for _ in range(40):
            gens = [
                random_poly(rng, R2, max_deg=2, max_terms=2, constant_free=True)
                for _ in range(rng.randint(1, 2))
            ]
            gens = [g for g in gens if g.terms]
            if not gens:
                continue
            if rng.random() < 0.5:
                f = random_poly(rng, R2, max_deg=3, max_terms=3, constant_free=True)
            else:
                f = R2.zero
                for g in gens:
                    f = f + random_poly(rng, R2, max_deg=1, max_terms=2) * g
            cap = 3 + max(g.total_degree() for g in gens)
            assert ideal(R2, *gens).contains(f) == membership_oracle(
                f, gens, cap
            )
            agreements += 1
        assert agreements >= 30


class TestIdealEquality:
    def test_different_generators_same_ideal(self):
        x, y = R2.gens()
        assert ideal_equal(ideal(R2, x, y), ideal(R2, y, x + y))

    def test_strict_containment(self):
        x, _ = R2.gens()
        assert not ideal_equal(ideal(R2, x), ideal(R2, x ** 2))

    def test_zero_ideals(self):
        assert ideal_equal(ideal(R2), ideal(R2))

    def test_mixed_orders_compare_under_common_order(self):
        # an ideal presented by its lex basis equals one presented by other
        # generators: both are compared by their reduced grevlex bases
        x, y = R2.gens()
        under_lex = IdealPresentation(R2, basis_under((x - y ** 2, y ** 3), LEX))
        assert [g.render() for g in under_lex.generators] == ["y^3", "-y^2 + x"]
        under_grevlex = IdealPresentation(R2, (y ** 3, x - y ** 2))
        assert ideal_equal(under_grevlex, under_lex)
        assert ideal_equal(under_lex, under_grevlex)


class TestIntersection:
    def test_coprime_principal(self):
        x, y = R2.gens()
        met = ideal_intersection(ideal(R2, x), ideal(R2, y))
        assert ideal_equal(met, ideal(R2, x * y))

    def test_self_intersection(self):
        x, y = R2.gens()
        I = ideal(R2, x ** 2, x * y)
        assert ideal_equal(ideal_intersection(I, I), I)

    def test_containment(self):
        x, _ = R2.gens()
        assert ideal_equal(
            ideal_intersection(ideal(R2, x ** 2), ideal(R2, x)), ideal(R2, x ** 2)
        )

    def test_tag_variable_never_leaks(self):
        rng = random.Random(3)
        for _ in range(10):
            I1 = ideal(R3, random_poly(rng, R3, 2, 2), random_poly(rng, R3, 2, 2))
            I2 = ideal(R3, random_poly(rng, R3, 2, 2))
            met = ideal_intersection(I1, I2)
            assert met.ring == R3
            for g in met.generators:
                assert I1.contains(g)
                assert I2.contains(g)

    def test_product_inside_intersection(self):
        rng = random.Random(5)
        for _ in range(8):
            I1 = ideal(R2, random_poly(rng, R2, 2, 2, constant_free=True))
            I2 = ideal(R2, random_poly(rng, R2, 2, 2, constant_free=True))
            met = ideal_intersection(I1, I2)
            for f in I1.generators:
                for g in I2.generators:
                    assert met.contains(f * g)


class TestQuotient:
    def test_principal(self):
        x, y = R2.gens()
        Q = ideal_quotient(ideal(R2, x * y), ideal(R2, x))
        assert ideal_equal(Q, ideal(R2, y))

    def test_hand_checked(self):
        x, y = R2.gens()
        Q = ideal_quotient(ideal(R2, x ** 2, x * y), ideal(R2, x))
        assert ideal_equal(Q, ideal(R2, x, y))

    def test_quotient_by_unit(self):
        x, y = R2.gens()
        I = ideal(R2, x ** 2, x * y)
        assert ideal_equal(ideal_quotient(I, ideal(R2, R2.one)), I)

    def test_quotient_by_zero_is_whole_ring(self):
        x, _ = R2.gens()
        Q = ideal_quotient(ideal(R2, x), ideal(R2))
        assert Q.contains_one()

    def test_quotient_law_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(10):
            I = ideal(R2, random_poly(rng, R2, 2, 2), random_poly(rng, R2, 2, 2))
            f = random_poly(rng, R2, 2, 2)
            if not f.terms:
                continue
            Q = ideal_quotient(I, ideal(R2, f))
            for g in Q.generators:
                assert I.contains(g * f)


def _quotient_pair(I, J):
    return ideal_quotient(I, J), reference_quotient(I, J)


class TestQuotientAgainstReference:
    """`ideal_quotient` colons only by the distinct nonzero normal forms of
    J's generators; the reference colons by every generator.  The
    generator tuples must be the same.  `order` is that of the basis
    presenting I (see ``basis_under``).  Under lex every case goes through
    the automorphism x -> x + y^2, z -> z + x, so that I's reduced lex
    basis is not its grevlex one."""

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    @pytest.mark.parametrize(
        "case",
        ["none-left", "one-left", "duplicates", "two-left", "zero-ideal", "zero-ideal-one"],
    )
    def test_cases(self, case, order):
        x, y, z = R3.gens()
        if order == LEX:
            x, z = x + y * y, z + x
        I = IdealPresentation(R3, basis_under((x ** 2, x * y), order))
        assert (set(I.generators) == set(I.reduced_basis())) == (order == GREVLEX)
        J = {
            "none-left": (x ** 2, x ** 2 * z + 2 * x * y),
            "one-left": (x * y, x + x ** 2, y * x ** 2),
            "duplicates": (x, x, 3 * x + x * y),
            "two-left": (x, y + z, x * y),
        }.get(case)
        if case.startswith("zero-ideal"):
            I = IdealPresentation(R3, basis_under((), order))
            J = (x, y) if case == "zero-ideal" else (x, 2 * x)
        Q, R = _quotient_pair(I, IdealPresentation(R3, J))
        assert Q.generators == R.generators

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([GREVLEX, LEX]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
    )
    def test_random(self, data_seed, order, inside, outside, repeat):
        rng = random.Random(data_seed)
        ring = (R2, R3)[rng.randrange(2)]
        I = IdealPresentation(ring, basis_under(
            [random_poly(rng, ring, 2, 2, constant_free=True) for _ in range(rng.randint(0, 2))],
            order,
        ))
        gens = [
            sum((random_poly(rng, ring, 1, 2) * g for g in I.generators), ring.zero)
            for _ in range(inside)
        ]
        gens += [random_poly(rng, ring, 2, 2, constant_free=True) for _ in range(outside)]
        if repeat and gens:
            gens.append(rng.randrange(1, ring.field.p) * rng.choice(gens))
        Q, R = _quotient_pair(I, IdealPresentation(ring, gens))
        assert Q.generators == R.generators


def _random_pair(rng, ring, homogeneous):
    """A random ideal of one to three constant-free generators and a
    nonzero polynomial, homogeneous or not."""
    gens = [
        random_poly(rng, ring, 3, 3, homogeneous=homogeneous, constant_free=True)
        for _ in range(rng.randint(1, 3))
    ]
    g = ring.zero
    while not g.terms:
        g = random_poly(rng, ring, 2, 3, homogeneous=homogeneous, constant_free=True)
    return gens, g


def _as_built(basis):
    """Each element's terms in insertion order, and its known leading monomial."""
    return [(list(g.terms.items()), getattr(g, "_lead", None)) for g in basis]


@pytest.fixture
def runs(monkeypatch):
    """The bases computed while the test runs: ("buchberger", order) for a
    general Buchberger run, ("interreduce", order) for a basis handed over
    as a minimal Groebner basis."""
    log = []
    inner = groebner._buchberger
    packed = groebner._packed_buchberger

    def counting(ring, nonzero, order, minimal=False):
        if minimal:
            log.append(("interreduce", order))
        return inner(ring, nonzero, order, minimal)

    def counting_packed(ring, nonzero, order, *rest):
        log.append(("buchberger", order))
        return packed(ring, nonzero, order, *rest)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    monkeypatch.setattr(groebner, "_packed_buchberger", counting_packed)
    return log


class TestQuotientBasisHandover:
    """The quotients of (I : g) are a minimal grevlex Groebner basis, so a
    colon's reduced basis is only interreduced: the same values, terms in
    the same order, leading monomials and packed entries as Buchberger's,
    with fewer steps and no S-pair."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32), st.booleans())
    def test_principal_colon_basis_equals_buchberger(self, runs, data_seed, homogeneous):
        rng = random.Random(data_seed)
        ring = (R2, R3)[rng.randrange(2)]
        gens, g = _random_pair(rng, ring, homogeneous)
        Q = ideal_quotient(IdealPresentation(ring, gens), IdealPresentation(ring, (g,)))
        runs.clear()
        basis = Q.reduced_basis()
        made = list(runs)
        expected = buchberger(Q.generators)
        assert _as_built(basis) == _as_built(expected)
        memo, want = groebner._memo_of(list(basis)), groebner._memo_of(expected)
        assert (memo is None) == (want is None)
        if memo is not None:
            assert memo.entries == want.entries
        assert made == [("interreduce", GREVLEX)]
        assert memo is not None or all(len(h.terms) == 1 for h in basis)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32), st.booleans())
    def test_a_zero_budget_refuses_a_handover_that_reduces(self, step_counters, data_seed, homogeneous):
        rng = random.Random(data_seed)
        gens, g = _random_pair(rng, R3, homogeneous)

        def colon():
            return ideal_quotient(IdealPresentation(R3, gens), IdealPresentation(R3, (g,)))

        Q = colon()
        step_counters.clear()
        basis = Q.reduced_basis()
        spent = sum(c.used for c in step_counters)
        fresh = colon()
        with limits(step_budget=0):
            if spent:
                with pytest.raises(StepBudgetExceeded):
                    fresh.reduced_basis()
            else:
                assert fresh.reduced_basis() == basis

    def test_a_fixed_handover_spends_steps(self, step_counters, runs):
        x, y, z = R3.gens()
        I = ideal(R3, x * y - z ** 2, x * z - y ** 2)
        Q = ideal_quotient(I, ideal(R3, x + y))
        assert [h.render() for h in Q.generators] == [
            "y^2 - x*z", "x*y - y^2 + x*z - z^2", "x^2*z - x*y*z + y^2*z - x*z^2 - y*z^2 + z^3",
        ]
        runs.clear()
        step_counters.clear()
        basis = Q.reduced_basis()
        assert [h.render() for h in basis] == ["y^2 - x*z", "x*y - z^2", "x^2*z - y*z^2"]
        assert runs == [("interreduce", GREVLEX)]
        assert sum(c.used for c in step_counters) == 3
        with limits(step_budget=2):
            with pytest.raises(StepBudgetExceeded):
                ideal_quotient(I, ideal(R3, x + y)).reduced_basis()

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_one_remaining_colon_is_interreduced(self, runs, order):
        # x^2 lies in I, so only (I : x + y) is left; the result is its
        # reduced grevlex basis, whatever basis presents I
        x, y, z = R3.gens()
        gens = (x * y - z ** 2, x * z - y ** 2, x ** 2 * y - x * z ** 2)
        I = IdealPresentation(R3, basis_under(gens, order))
        J = IdealPresentation(R3, (x * (x * y - z ** 2), x + y))
        runs.clear()
        Q = ideal_quotient(I, J)
        assert ("interreduce", GREVLEX) in runs
        colon = ideal_quotient(IdealPresentation(R3, I.generators), ideal(R3, x + y))
        assert _as_built(Q.generators) == _as_built(buchberger(colon.generators, GREVLEX))
        assert Q.generators == reference_quotient(I, J).generators

    @staticmethod
    def _validate_recording(monkeypatch, runs, cases):
        """Validates the certificates of `cases`, recording the colons and
        tag-variable intersections validation takes and each presentation
        whose basis it computes; `runs` is cleared after grading."""
        certs = []
        for A, gens in cases:
            I = AlgebraIdeal(A, gens)
            certs.append((A, I, grade(A, I)))
        runs.clear()
        colons, intersections, computed = [], [], []
        quotient = invariants.ideal_quotient
        intersection = groebner.ideal_intersection
        reduced_basis = IdealPresentation.reduced_basis

        def recording(I, J):
            Q = quotient(I, J)
            colons.append(Q)
            return Q

        def recording_intersection(I1, I2):
            intersections.append((I1, I2))
            return intersection(I1, I2)

        def recording_basis(self):
            if self._basis is None:
                computed.append(self)
            return reduced_basis(self)

        monkeypatch.setattr(invariants, "ideal_quotient", recording)
        monkeypatch.setattr(groebner, "ideal_intersection", recording_intersection)
        monkeypatch.setattr(IdealPresentation, "reduced_basis", recording_basis)
        for A, I, cert in certs:
            validate_grade_certificate(A, I, cert)
        return certs, colons, intersections, computed

    def test_certificate_validation_builds_no_colon_basis(self, runs, monkeypatch):
        # inhomogeneous stages are checked by colons, each handed over
        # without its basis being built
        ring = PolyRing(("x", "y", "z", "w"), F)
        x, y, z, w = ring.gens()
        cases = [
            (make_algebra(ring, (x * y - z ** 3,)), (x, y, z, w)),
            (make_algebra(ring, (x * z - y ** 2, y * w - z ** 3, x * w - y * z)), (x, y, z, w)),
            (make_algebra(ring, (x * y - z * w - z ** 3,)), (x + y, z + w)),
        ]
        certs, colons, intersections, computed = self._validate_recording(monkeypatch, runs, cases)
        assert len(colons) == len(intersections) == sum(c.grade for _, _, c in certs) > 0
        assert any(q._known_basis is not None for q in colons)
        assert not any(q is a for q in colons for a in computed)
        assert not [r for r in runs if r[0] == "interreduce"]

    def test_graded_certificate_validation_takes_no_colon(self, runs, monkeypatch):
        # graded stages are checked by Hilbert numerators: no colon, and
        # each stage's basis is computed once, for a stage that is not
        # monomial
        ring = PolyRing(("x", "y", "z", "w"), F)
        x, y, z, w = ring.gens()
        cases = [
            (make_algebra(ring, (x * y - z ** 2,)), (x, y, z, w)),
            (make_algebra(ring, (x * z - y ** 2, y * w - z ** 2, x * w - y * z)), (x, y, z, w)),
            (make_algebra(ring, (x * y - z * w,)), (x + y, z + w)),
        ]
        certs, colons, intersections, computed = self._validate_recording(monkeypatch, runs, cases)
        assert sum(c.grade for _, _, c in certs) > 0
        assert colons == [] and intersections == []
        gens = [J.generators for J in computed]
        assert len(gens) == len(set(gens)) > 0
        assert all(any(len(g.terms) > 1 for g in J) for J in gens)
        assert not [r for r in runs if r[0] == "interreduce"]


class TestTagFreeness:
    """Intersection and elimination read whether an element is free of the
    tag or front variables off its leading monomial under the block order;
    the results are those of reading every term."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_intersections(self, data_seed, homogeneous):
        rng = random.Random(data_seed)
        ring = (R2, R3)[rng.randrange(2)]
        I1, I2 = (
            IdealPresentation(
                ring,
                [random_poly(rng, ring, 3, 3, homogeneous=homogeneous)
                 for _ in range(rng.randint(0, 3))],
            )
            for _ in range(2)
        )
        got, want = ideal_intersection(I1, I2), reference_intersection(I1, I2)
        assert [list(g.terms.items()) for g in got.generators] == [
            list(g.terms.items()) for g in want.generators
        ]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_eliminations(self, data_seed, homogeneous):
        rng = random.Random(data_seed)
        I = IdealPresentation(
            R3,
            [random_poly(rng, R3, 3, 3, homogeneous=homogeneous) for _ in range(rng.randint(0, 3))],
        )
        front = rng.sample(R3.names, rng.randint(1, 2))
        got, want = eliminate(I, front), reference_eliminate(I, front)
        assert [list(g.terms.items()) for g in got.generators] == [
            list(g.terms.items()) for g in want.generators
        ]


class TestElimination:
    def test_substitution_chain(self):
        x, y, z = R3.gens()
        E = eliminate(ideal(R3, x - y, y - z ** 2), ["y"])
        assert ideal_equal(E, ideal(R3, x - z ** 2))

    def test_no_consequence(self):
        x, y = R2.gens()
        E = eliminate(ideal(R2, x - y), ["y"])
        assert E.generators == ()

    def test_empty_front_is_identity(self):
        x, y = R2.gens()
        I = ideal(R2, x * y)
        assert eliminate(I, []) is I

    def test_unknown_front_variable(self):
        with pytest.raises(ValueError):
            eliminate(ideal(R2, R2.var(0)), ["nope"])

    def test_generators_are_members_without_front_vars(self):
        rng = random.Random(13)
        for _ in range(8):
            I = ideal(
                R3,
                random_poly(rng, R3, 2, 3),
                random_poly(rng, R3, 2, 3),
            )
            E = eliminate(I, ["z"])
            zi = R3.index("z")
            for g in E.generators:
                assert zi not in g.support()
                assert I.contains(g)


class TestPresentationCache:
    def test_cache_write_once(self):
        x, y = R2.gens()
        I = ideal(R2, x ** 2, x * y)
        first = I.reduced_basis()
        assert I.reduced_basis() is first

    def test_zero_generators_dropped(self):
        x, _ = R2.gens()
        I = IdealPresentation(R2, (R2.zero, x, R2.zero))
        assert I.generators == (x,)


class TestLimits:
    """The one `limits` scope bounds every basis and normal form."""

    def test_defaults_outside_every_scope(self):
        assert current_limits() == (DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)
        assert context._StepCounter().limit == DEFAULT_STEP_BUDGET

    def test_nested_scopes_override_and_restore(self):
        with limits(step_budget=10):
            assert current_limits() == (10, NZD_RETRY_CAP)
            with limits(nzd_retries=3):
                assert current_limits() == (10, 3)
                with limits(step_budget=20):
                    assert current_limits() == (20, 3)
                    assert context._StepCounter().limit == 20
                assert current_limits() == (10, 3)
            assert current_limits() == (10, NZD_RETRY_CAP)
        assert current_limits() == (DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)

    def test_negative_step_budget_refused(self):
        with pytest.raises(KernelError, match="step_budget must be at least 0, got -3"):
            with limits(step_budget=-3):
                pass
        assert current_limits() == (DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)

    def test_negative_nzd_retries_refused(self):
        with pytest.raises(KernelError, match="nzd_retries must be at least 0, got -1"):
            with limits(nzd_retries=-1):
                pass
        assert current_limits() == (DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)

    @pytest.mark.parametrize("name, value", [
        ("step_budget", "5"),
        ("step_budget", 2.5),
        ("step_budget", True),
        ("nzd_retries", 2.5),
        ("nzd_retries", False),
    ])
    def test_non_integer_refused(self, name, value):
        # unchecked, a float count of draws reaches the nonzerodivisor
        # search of this grade and fails there with a TypeError
        x, y = R2.gens()
        A = make_algebra(R2, (x * y,))
        with pytest.raises(KernelError, match=f"{name} must be an integer, got {value!r}"):
            with limits(**{name: value}):
                grade(A, AlgebraIdeal(A, (x ** 2, y ** 2)))
        assert current_limits() == (DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)

    def test_a_new_thread_starts_with_the_defaults_and_no_scope(self):
        seen, computed = [], []

        def look():
            seen.append(current_limits())
            for _ in range(2):
                scope_cached("key", lambda: computed.append(1))

        with limits(step_budget=7, nzd_retries=2), memo_scope():
            thread = threading.Thread(target=look)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert current_limits() == (7, 2)
        assert seen == [(DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)]
        assert computed == [1, 1]

    def test_scope_restored_after_an_error(self):
        x, y, z = R3.gens()
        with pytest.raises(StepBudgetExceeded), limits(step_budget=1, nzd_retries=0):
            buchberger([x * y - z ** 2, y * z - x ** 2, x * z - y ** 2])
        assert current_limits() == (DEFAULT_STEP_BUDGET, NZD_RETRY_CAP)

    def test_budget_is_per_basis(self, step_counters):
        # each basis gets a fresh counter, so two bases that each spend the
        # whole budget both succeed
        x, y, z = R3.gens()
        gens = [x * y - z ** 2, y * z - x ** 2, x * z - y ** 2]
        buchberger(gens)
        steps = step_counters[0].used
        with limits(step_budget=steps):
            assert buchberger(gens) == buchberger(gens)
        with limits(step_budget=steps - 1), pytest.raises(StepBudgetExceeded):
            buchberger(gens)


def test_no_public_callable_takes_a_limit():
    """Limits are set only by the scope."""
    exempt = {("cmtensor.context", "limits")}
    modules = [cmtensor] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(cmtensor.__path__, "cmtensor.")
    ]
    offenders = []
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if (module.__name__, name) in exempt:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [
                    (f"{name}.{attr}", fn)
                    for attr, fn in vars(obj).items()
                    if callable(fn) and (attr == "__init__" or not attr.startswith("_"))
                ]
            for qualname, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if {"step_budget", "nzd_retries"} & set(params):
                    offenders.append(f"{module.__name__}.{qualname}")
    assert offenders == []


@st.composite
def _packing_cases(draw):
    """(packing, order, two monomials whose product still packs)."""
    nvars = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["lex", "grevlex", "deglex", "block"]))
    if kind == "block":
        front = draw(st.sets(st.integers(0, nvars - 1), min_size=1))
        order = block_order(front)
    else:
        order = {"lex": LEX, "grevlex": GREVLEX, "deglex": DEGLEX}[kind]
    bits = draw(st.sampled_from([8, 16, 32]))
    packing = groebner._packing(nvars, order, bits)
    # a degree below half the guard, so that the product packs too
    top = (packing.limit - 1) // (2 * nvars)
    mono = st.lists(st.integers(0, top), min_size=nvars, max_size=nvars).map(tuple)
    return packing, order, draw(mono), draw(mono)


class TestPacking:
    """Packed monomials: integer order, sum and guard test are the tuple ones."""

    @settings(max_examples=300, deadline=None)
    @given(_packing_cases())
    def test_integer_order_is_the_monomial_order(self, case):
        packing, order, a, b = case
        pa, pb = packing.pack(a), packing.pack(b)
        assert (pa < pb) == (order.key(a) < order.key(b))
        assert (pa == pb) == (a == b)

    @settings(max_examples=300, deadline=None)
    @given(_packing_cases())
    def test_sum_is_the_product(self, case):
        packing, _, a, b = case
        assert packing.pack(a) + packing.pack(b) == packing.pack(mono_mul(a, b))

    @settings(max_examples=300, deadline=None)
    @given(_packing_cases())
    def test_guard_test_is_divisibility(self, case):
        packing, _, a, b = case
        g = tuple(map(min, a, b))  # a divisor of both
        for d, m in ((b, a), (a, b), (g, a), (g, b)):
            divides = not (packing.pack(m) - packing.pack(d)) & packing.guard
            assert divides == mono_divides(d, m)

    @settings(max_examples=300, deadline=None)
    @given(_packing_cases())
    def test_unpack_inverts_pack(self, case):
        packing, _, a, b = case
        assert packing.unpack(packing.pack(a)) == a
        assert packing.unpack(packing.pack(a) + packing.pack(b)) == mono_mul(a, b)

    @pytest.mark.parametrize("order", [LEX, GREVLEX, DEGLEX, block_order((1,))],
                             ids=["lex", "grevlex", "deglex", "block"])
    def test_overflow_is_refused_or_flagged(self, order):
        packing = groebner._packing(3, order, 8)
        assert packing.limit == 128
        with pytest.raises(groebner._Overflow):
            packing.pack((100, 0, 28))
        for i in range(3):
            m = tuple(127 if j == i else 0 for j in range(3))
            assert not packing.pack(m) & packing.guard
            assert (packing.pack(m) + packing.pack(m)) & packing.guard


x3, y3, z3 = R3.gens()
# x^200 and z^130 in WIDE_SYSTEM reach the guard bit of 8-bit fields, so its
# bases are computed again with 16-bit fields; WIDE_AFTER_STEPS overflows
# 8-bit fields under lex only after it has spent reduction steps.
WIDE_SYSTEM = [x3 ** 200 - y3 ** 3, y3 ** 150 * z3 - x3, z3 ** 130 - 1]
WIDE_AFTER_STEPS = [x3 ** 5 - y3, y3 ** 5 - z3, z3 ** 5 - x3 * y3 * z3]


@pytest.fixture
def widths(monkeypatch):
    """The field widths of every packing the kernel asks for."""
    asked = []
    packing = groebner._packing

    def recording(nvars, order, bits):
        asked.append(bits)
        return packing(nvars, order, bits)

    monkeypatch.setattr(groebner, "_packing", recording)
    return asked


class TestWidening:
    @pytest.mark.parametrize("order", [LEX, GREVLEX, block_order((0,)), block_order((1, 2))],
                             ids=["lex", "grevlex", "block0", "block12"])
    @pytest.mark.parametrize("system", [WIDE_SYSTEM, WIDE_AFTER_STEPS], ids=["wide", "late"])
    def test_widened_basis_is_the_tuple_basis(self, system, order, widths):
        basis = buchberger(system, order)
        expected, _ = reference_buchberger(system, order)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        # the terms come out in descending order, as the tuple reducer leaves them
        assert [list(g.terms) for g in basis] == [list(g.terms) for g in expected]
        f = x3 ** 300 * y3 ** 7 + z3 ** 250 + x3 * y3
        assert normal_form(f, basis, order) == reference_normal_form(f, expected, order)
        if system is WIDE_SYSTEM:
            assert widths[:2] == [8, 16]

    def test_step_budget_spans_the_widening(self, step_counters, widths):
        buchberger(WIDE_AFTER_STEPS, LEX)
        assert widths == [8, 16]
        used = step_counters[-1].used
        _, wide_only = reference_buchberger(WIDE_AFTER_STEPS, LEX)
        assert used > wide_only  # the 8-bit run spent steps before it overflowed
        with limits(step_budget=wide_only), pytest.raises(StepBudgetExceeded):
            buchberger(WIDE_AFTER_STEPS, LEX)
        with limits(step_budget=used):
            assert buchberger(WIDE_AFTER_STEPS, LEX)

    def test_exact_quotient_widens(self):
        g = x3 ** 100 - y3 * z3
        h = g * (x3 ** 90 + z3)
        assert groebner._exact_quotient(h, g) == x3 ** 90 + z3


class TestAgainstTupleBuchberger:
    """The packed kernel makes the tuple kernel's choices, pair updates and
    selection included: equal bases after equal numbers of reduction
    steps."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(0, 2**32),
        st.sampled_from([LEX, GREVLEX, DEGLEX, block_order((0,)), block_order((1, 2))]),
    )
    def test_random_systems(self, step_counters, data_seed, order):
        rng = random.Random(data_seed)
        gens = [random_poly(rng, R3, 3, 3) for _ in range(rng.randint(1, 4))]
        step_counters.clear()
        basis = buchberger(gens, order)
        made = list(step_counters)
        expected, steps = reference_buchberger(gens, order)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        assert sum(c.used for c in made) == steps
        f = random_poly(rng, R3, 4, 4)
        assert normal_form(f, basis, order) == reference_normal_form(f, expected, order)


def katsura(n: int) -> list:
    """The katsura-n system in n + 1 variables."""
    ring = PolyRing(tuple(f"u{i}" for i in range(n + 1)), F)
    u = ring.gens()

    def at(level):
        return u[abs(level)] if abs(level) <= n else ring.zero

    eqs = [
        sum((at(l) * at(m - l) for l in range(-n, n + 1)), ring.zero) - at(m)
        for m in range(n)
    ]
    eqs.append(sum((at(l) for l in range(-n, n + 1)), ring.zero) - 1)
    return eqs


@pytest.fixture
def pair_log(monkeypatch):
    """What one buchberger call does with its pairs: ("push", i, j) when a
    pair is queued, ("pop", i, j) when it is selected, and ("reduce",) for
    every division (each selected pair it keeps, then each basis element
    in the final interreduction)."""
    log = []

    def heappush(queue, item):
        log.append(("push",) + item[-2:])
        heapq.heappush(queue, item)

    def heappop(queue):
        item = heapq.heappop(queue)
        log.append(("pop",) + item[-2:])
        return item

    reduce = groebner._reduce

    def logged_reduce(*args, **kwargs):
        log.append(("reduce",))
        return reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(heappush=heappush, heappop=heappop))
    monkeypatch.setattr(groebner, "_reduce", logged_reduce)
    return log


def pair_fates(log, basis):
    """(queued, reduced, skipped) pairs of the logged call that returned
    `basis`: a selected pair is reduced when a division follows it."""
    events = log[:len(log) - len(basis)]  # drop the interreduction
    assert log[len(events):] == [("reduce",)] * len(basis)
    queued = {e[1:] for e in events if e[0] == "push"}
    reduced, skipped = set(), set()
    for e, after in zip(events, events[1:] + [("end",)]):
        if e[0] == "pop":
            (reduced if after == ("reduce",) else skipped).add(e[1:])
    return queued, reduced, skipped


class TestPairUpdate:
    """The Gebauer-Moeller update drops pairs without changing the basis."""

    def _basis(self, gens, pair_log):
        basis = buchberger(gens, GREVLEX)
        expected = reference_buchberger_all_pairs(gens, GREVLEX)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        return pair_fates(pair_log, basis)

    def test_a_new_pair_whose_lcm_another_divides_is_dropped(self, pair_log):
        # lcm(xz, yz) = xyz divides lcm(xz, xy^2) = xy^2z
        queued, _, _ = self._basis([x3 * y3 ** 2 + z3, y3 * z3 + x3, x3 * z3 + y3], pair_log)
        assert (1, 2) in queued and (0, 2) not in queued

    def test_equal_lcms_keep_the_oldest_partner(self, pair_log):
        # lcm(xz, xy) = lcm(xz, yz) = xyz
        queued, _, _ = self._basis([x3 * y3 + z3, y3 * z3 + x3, x3 * z3 + y3], pair_log)
        assert (0, 2) in queued and (1, 2) not in queued

    def test_an_old_pair_the_new_element_chains_is_deleted(self, pair_log):
        # y divides lcm(xy, yz) = xyz, which is neither lcm(xy, y) nor lcm(yz, y)
        queued, reduced, skipped = self._basis([x3 * y3 + z3, y3 * z3 + x3, y3 + z3], pair_log)
        assert (0, 1) in queued and (0, 1) in skipped and (0, 1) not in reduced
        assert {(0, 2), (1, 2)} <= reduced

    def test_a_coprime_pair_divides_others_then_is_dropped(self, pair_log):
        # lcm(y, x) = xy is coprime and divides lcm(xyz, x) = xyz
        queued, reduced, _ = self._basis([y3 + z3, x3 * y3 * z3 + x3, x3 + z3], pair_log)
        assert queued == reduced == {(0, 1)}

    def test_katsura4_lex_steps_match_the_tuple_kernel(self, step_counters):
        # each element is interreduced by the reduced elements below it:
        # 741 steps, where dividing by the raw elements took 1,345
        gens = katsura(4)
        step_counters.clear()
        basis = buchberger(gens, LEX)
        made = list(step_counters)
        expected, steps = reference_buchberger(gens, LEX)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        assert sum(c.used for c in made) == steps == 741

    def test_katsura4_lex_inside_a_small_budget(self):
        # the normal strategy took 5,979 steps here; sugar takes 1,345
        gens = katsura(4)
        with limits(step_budget=2000):
            basis = buchberger(gens, LEX)
        expected = reference_buchberger_all_pairs(gens, LEX)
        assert [g.terms for g in basis] == [g.terms for g in expected]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.booleans(),
        st.sampled_from([LEX, GREVLEX, DEGLEX, block_order((0,)), block_order((1, 2))]),
    )
    def test_random_systems_against_all_pairs(self, data_seed, homogeneous, order):
        rng = random.Random(data_seed)
        gens = [random_poly(rng, R3, 3, 3, homogeneous=homogeneous)
                for _ in range(rng.randint(1, 4))]
        basis = buchberger(gens, order)
        expected = reference_buchberger_all_pairs(gens, order)
        assert [g.terms for g in basis] == [g.terms for g in expected]


ORDERS = [LEX, GREVLEX, DEGLEX, block_order((0,)), block_order((1, 2))]


@st.composite
def _single_terms(draw, min_size=1):
    """Single-term polynomials of R3 with coefficients drawn from all of
    F_p minus 0, repeated terms, now and then a constant, and exponents
    of 128 and more, which widen the packing to 16-bit fields."""
    exponent = st.one_of(st.integers(0, 3), st.integers(128, 140))
    monos = draw(st.lists(st.tuples(exponent, exponent, exponent), min_size=min_size, max_size=5))
    if monos:
        monos += draw(st.lists(st.sampled_from(monos), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        monos.append((0, 0, 0))
    coeffs = draw(st.lists(st.integers(1, F.p - 1), min_size=len(monos), max_size=len(monos)))
    return [Polynomial(R3, {m: c}) for m, c in zip(monos, coeffs)]


def _packed_normal_form(f, basis, order):
    """normal_form's general path, the packed reducer: (remainder terms,
    steps spent)."""
    p = f.ring.field.p
    counter = context._StepCounter()

    def run(packing):
        entries = [groebner._entry_of(g, packing, p) for g in basis if g.terms]
        rem = groebner._reduce(packing.pack_terms(f.terms), entries, packing.guard, p, counter)
        return packing.unpack_terms(rem)

    return groebner._widening(f.ring.nvars, order, run), counter.used


class TestMonomialMembership:
    """``IdealPresentation.contains`` on generators of single terms reads
    divisibility off the presentation's minimal monomials."""

    def test_builds_no_basis_and_spends_no_step(self, step_counters):
        I = IdealPresentation(R3, [x3 ** 2 * y3, 5 * y3 * z3 ** 3, x3 * z3, 2 * x3 * z3])
        step_counters.clear()
        with limits(step_budget=0):
            assert I.contains(x3 ** 3 * z3 + 7 * y3 ** 2 * z3 ** 4)
            assert I.contains(R3.zero)
            assert not I.contains(x3 ** 2 * y3 + y3 ** 2)
            assert not I.contains(3 * x3 ** 2)
        assert I._basis is None
        assert all(c.used == 0 for c in step_counters)
        assert I.monomials() == ((1, 0, 1), (2, 1, 0), (0, 1, 3))
        assert I.monomials() is I.monomials()  # computed once
        assert IdealPresentation(R3, [x3 ** 2, y3 - z3]).monomials() is None

    @settings(max_examples=80, deadline=None)
    @given(_single_terms(min_size=0), st.integers(0, 2**32))
    def test_agrees_with_the_normal_form(self, gens, data_seed):
        # the zero ideal, the unit ideal and exponents of 128 and more included
        rng = random.Random(data_seed)
        I = IdealPresentation(R3, gens)
        multiples = R3.zero
        for g in gens:
            multiples = multiples + g * random_poly(rng, R3, 2, 2)
        candidates = [
            random_poly(rng, R3, 4, 4),
            R3.zero,
            multiples,
            multiples + random_poly(rng, R3, 1, 1),
        ]
        verdicts = [I.contains(f) for f in candidates]
        assert I._basis is None
        assert verdicts == [not normal_form(f, I.reduced_basis()).terms for f in candidates]

    def test_a_foreign_polynomial_is_refused_as_normal_form_refuses_it(self):
        u = PolyRing(("u", "v", "w"), F).var(0)
        for gens in ([x3 ** 2, y3 * z3], [x3 ** 2 + y3, y3 * z3 - x3]):
            I = IdealPresentation(R3, gens)
            with pytest.raises(AmbientMismatchError) as ours:
                I.contains(u)
            with pytest.raises(AmbientMismatchError) as theirs:
                normal_form(u, I.reduced_basis())
            assert str(ours.value) == str(theirs.value)
            assert str(ours.value) == "polynomial over ('x', 'y', 'z') used in ('u', 'v', 'w')"


class TestMonomialRoutes:
    """Single-term input skips Buchberger, the tag variable and the Hilbert
    test; each route returns exactly what the algorithm it replaces
    returns."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_single_terms(), st.sampled_from(ORDERS))
    def test_bases_against_all_pairs(self, step_counters, gens, order):
        step_counters.clear()
        basis = buchberger(gens, order)
        assert sum(c.used for c in step_counters) == 0
        expected = reference_buchberger_all_pairs(gens, order)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        assert [g.terms for g in basis] == [g.terms for g in reference_buchberger(gens, order)[0]]
        for g in basis:
            (m,) = g.terms
            assert g.leading_monomial(order) == m

    @settings(max_examples=150, deadline=None)
    @given(_single_terms(min_size=0), _single_terms(), st.integers(0, 2**32))
    def test_nonzerodivisors_against_the_colon(self, gens, terms, data_seed):
        """f is a single term, or a single term plus a multiple of the stage
        (its normal form is one term), or a sum of two terms (its normal
        form may have two)."""
        rng = random.Random(data_seed)
        stage = IdealPresentation(R3, gens)
        f = terms[0]
        kind = rng.randrange(3)
        if kind == 1 and gens:
            f = f + random_poly(rng, R3, 2, 2) * gens[0]
        elif kind == 2:
            f = f + terms[-1]
        r = normal_form(f, stage.reduced_basis())
        assert _is_nzd_mod(stage, r) == reference_is_nzd(stage, f)

    def test_coprimality_decides_without_a_colon_or_hilbert_series(self, monkeypatch):
        x, y = R2.gens()

        def refuse(*args):
            raise AssertionError("the coprimality route should decide")

        def is_nzd(stage, f):
            # the callers of _is_nzd_mod pass f reduced modulo the stage
            return _is_nzd_mod(stage, normal_form(f, stage.reduced_basis()))

        monkeypatch.setattr(invariants, "_hilbert_numerator_of", refuse)
        monkeypatch.setattr(invariants, "ideal_quotient", refuse)
        stage = IdealPresentation(R2, (x ** 2, 3 * x * y))
        assert not is_nzd(stage, y)  # y * x lies in the stage
        assert not is_nzd(stage, 5 * x + x * y)  # NF is 5x
        square = IdealPresentation(R2, (x ** 2,))
        assert is_nzd(square, 2 * y + x ** 2 * y)  # NF is 2y
        assert is_nzd(square, y ** 130)
        assert is_nzd(stage, R2.const(7))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_single_terms(min_size=0), st.integers(0, 2**32), st.sampled_from(ORDERS))
    def test_normal_forms_and_steps_against_the_reducer(self, step_counters, gens, data_seed, order):
        rng = random.Random(data_seed)
        f = random_poly(rng, R3, 4, 6)
        if rng.random() < 0.3:
            f = f + x3 ** 130 * y3
        for basis in (gens, buchberger(gens, order)):
            step_counters.clear()
            nf = normal_form(f, basis, order)
            used = sum(c.used for c in step_counters)
            terms, steps = _packed_normal_form(f, basis, order)
            assert nf.terms == terms
            assert used == steps

    def test_fixed_cases(self):
        x, y = R2.gens()
        assert buchberger([x * y, 4 * R2.one, y], LEX) == [R2.one]
        I = IdealPresentation(R2, (R2.one,))
        J = IdealPresentation(R2, (x ** 2, 2 * x * y, x ** 2))
        assert ideal_intersection(I, J).generators == (x * y, x ** 2)
        assert ideal_intersection(J, IdealPresentation(R2, (y ** 3,))).generators == (x * y ** 3,)
        assert normal_form(2 * x ** 3 + y, [3 * x ** 2], GREVLEX) == y

    def test_a_zero_budget_passes_monomial_bases_but_not_divisions(self):
        x, y = R2.gens()
        gens = [x ** 2, x * y, y ** 3]
        with limits(step_budget=0):
            with pytest.raises(StepBudgetExceeded):  # Buchberger reduces (x^2, xy)
                groebner._widening(2, GREVLEX, lambda packing: groebner._packed_buchberger(
                    R2, gens, GREVLEX, packing, context._StepCounter()))
            assert buchberger(gens) == [x * y, x ** 2, y ** 3]
            assert normal_form(y, [x]) == y
            with pytest.raises(StepBudgetExceeded):
                normal_form(x ** 2, [x])


def _cancelling_division(data_seed, ring=R3):
    """(rng, divisors, f): up to four random divisors, and f a random
    polynomial plus a random multiple of each of them, so that dividing f
    by them cancels many terms."""
    rng = random.Random(data_seed)
    divisors = [random_poly(rng, ring, 3, 4) for _ in range(rng.randint(1, 4))]
    f = random_poly(rng, ring, 3, 4)
    for g in divisors:
        f = f + random_poly(rng, ring, 3, 6) * g
    return rng, divisors, f


class TestDivisionKernel:
    """The reducer's heap of pending terms and the first-divisor memos, a
    Buchberger run's and a reduced basis's, change no choice of plain
    division: the largest term comes up first and is cancelled against the
    first element dividing it, one step each, and a term that cancelled is
    skipped for free."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32), st.sampled_from(ORDERS))
    def test_normal_forms_and_steps_against_plain_division(self, step_counters, data_seed, order):
        _, divisors, f = _cancelling_division(data_seed)
        step_counters.clear()
        nf = normal_form(f, divisors, order)
        steps = [0]
        expected = reference_normal_form(f, divisors, order, steps)
        assert nf.terms == expected.terms
        assert sum(c.used for c in step_counters) == steps[0]
        # the reducer's remainder keeps its terms in the order they came up
        terms, used = _packed_normal_form(f, divisors, order)
        assert list(terms.items()) == list(expected.terms.items())
        assert used == steps[0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_exact_quotients(self, data_seed):
        rng, (g, *_), _ = _cancelling_division(data_seed)
        q = random_poly(rng, R3, 4, 8)
        assert groebner._exact_quotient(q * g, g) == q

    def test_a_monomial_reduced_only_by_a_later_element(self, step_counters, monkeypatch):
        # yz, xz and z^2 divide no leading monomial of the input when they
        # first come up; each becomes the leading monomial of a new element
        # and comes up again in a later division, which must find it.
        found_later = []
        reduce = groebner._reduce

        def watched(work, basis, guard, p, counter, quotient=None, first=None):
            memo = first or {}
            missed = [m for m, known in memo.items() if isinstance(known, int)]
            rem = reduce(work, basis, guard, p, counter, quotient, first)
            found_later.extend(m for m in missed if not isinstance(memo[m], int))
            return rem

        monkeypatch.setattr(groebner, "_reduce", watched)
        gens = [x3 ** 2 + y3, x3 * y3 + z3, y3 ** 2 + x3]
        basis = buchberger(gens, GREVLEX)
        expected, steps = reference_buchberger(gens, GREVLEX)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        assert sum(c.used for c in step_counters) == steps
        unpack = groebner._packing(3, GREVLEX, 8).unpack
        assert sorted(map(unpack, found_later)) == [(0, 0, 2), (0, 1, 1), (1, 0, 1)]

    def test_a_term_that_overflows_and_cancels_widens_nothing(self, step_counters, widths):
        # Both divisions make z^128, which reaches the guard bit of an 8-bit
        # lex field; the second cancels it before it comes up.
        f = x3 * z3 ** 28 - y3 * z3 ** 28
        assert normal_form(f, [x3 - z3 ** 100, y3 - z3 ** 100], LEX) == R3.zero
        assert widths == [8]
        assert sum(c.used for c in step_counters) == 2

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32), st.sampled_from(ORDERS), st.booleans())
    def test_normal_forms_against_a_reduced_basis_and_its_variants(
            self, step_counters, data_seed, order, wide):
        """Many normal forms against one reduced basis, whose memo is warm
        after the first: the basis as built, permuted, a subset, plus an
        element, under another order; the basis is built with 16-bit
        fields when `wide`."""
        rng, gens, _ = _cancelling_division(data_seed)
        if wide:
            # z^130 - z^129 pairs with nothing in x and y
            gens = [map_variables(random_poly(rng, R2, 3, 4), R3, (0, 1)) for _ in gens]
            gens.append(z3 ** 130 - z3 ** 129)
        basis = buchberger(gens, order)
        fs = [random_poly(rng, R3, 3, 4) + random_poly(rng, R3, 2, 3) * g
              for g in basis * 2 + [R3.one]]
        other = ORDERS[(ORDERS.index(order) + 1) % len(ORDERS)]
        permuted = rng.sample(basis, len(basis))
        variants = [(basis, order), (basis, order), (permuted, order),
                    (basis[:-1], order), (basis[1:], order),
                    (basis + [random_poly(rng, R3, 2, 3)], order), (basis, other)]
        for divisors, by in variants:
            for f in fs:
                used, expected_steps = self._same_division(step_counters, f, divisors, by)
                assert used == expected_steps
        if any(len(g.terms) > 1 for g in basis):
            memo = basis[0]._packed[0]
            assert memo.first
            assert memo.packing.limit == (1 << 15 if wide else 1 << 7)

    @staticmethod
    def _same_division(step_counters, f, divisors, order):
        """Check normal_form(f, divisors, order) against plain division and
        the reducer without a memo; (steps used, plain division's steps).
        Division by single terms keeps f's term order, the reducer the
        order in which terms came up."""
        step_counters.clear()
        nf = normal_form(f, divisors, order)
        used = sum(c.used for c in step_counters)
        steps = [0]
        expected = reference_normal_form(f, divisors, order, steps)
        terms, unmemoized = _packed_normal_form(f, divisors, order)
        assert nf.terms == terms == expected.terms
        if any(len(g.terms) > 1 for g in divisors):
            assert list(nf.terms.items()) == list(expected.terms.items())
            assert list(terms.items()) == list(expected.terms.items())
        assert used == unmemoized
        return used, steps[0]

    @pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex", "deglex", "block0", "block12"])
    def test_an_f_that_overflows_an_8_bit_basis(self, step_counters, order):
        """The 16-bit run of such an f reduces without the basis's 8-bit
        memo, before and after the memo is warm.  Under lex and block((0,))
        x^65 overflows only after some steps; those steps count too."""
        x, y, z = x3, y3, z3
        basis = buchberger([x ** 2 - y + 3, x * y - 2 * y ** 2 + x], order)
        assert basis[0]._packed[0].packing.limit == 1 << 7
        # the leading monomials lie in x and y, so z^130 only rides along
        wide = z ** 130 * (x ** 3 + x * y ** 2 + 1) + x ** 2 * y + 7
        for f in (x ** 3 * y + y ** 2, wide, x ** 4 - 1, wide + x * y):
            used, steps = self._same_division(step_counters, f, basis, order)
            assert used == steps
        chain = buchberger([x - y ** 2, z ** 2 + y], order)
        for f in (x ** 65 + z ** 3, x * y * z, x ** 65 + z ** 3):
            used, steps = self._same_division(step_counters, f, chain, order)
            if order in (LEX, block_order((0,))) and f != x * y * z:
                assert used > steps
            else:
                assert used == steps

    def test_the_kept_part_of_an_elimination_basis_divides_without_a_memo(self, step_counters):
        """Its elements keep their entries in the whole basis's memo, but
        they are a part of that basis, so no division by them reads it."""
        gens = [x3 ** 2 - y3 * z3 + x3, y3 ** 2 - x3 * z3, z3 ** 3 - x3 * y3 + y3]
        I = IdealPresentation(R3, gens)
        kept = list(eliminate(I, ["x"]).generators)
        full = buchberger(gens, block_order((0,)))
        assert 0 < len(kept) < len(full)
        memo = kept[0]._packed[0]
        for g in full:
            for f in (g * y3 + z3 ** 4, x3 * z3 ** 3 + y3 ** 5, gens[0] * gens[1] + z3):
                for divisors in (kept, kept[::-1]):
                    used, steps = self._same_division(step_counters, f, divisors, block_order((0,)))
                    assert used == steps
        assert not memo.first

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(ORDERS))
    def test_the_budget_binds_at_the_same_step_with_a_cold_and_a_warm_memo(self, data_seed, order):
        rng, gens, _ = _cancelling_division(data_seed)
        basis = buchberger(gens, order)
        f = random_poly(rng, R3, 3, 4) + random_poly(rng, R3, 2, 3) * basis[-1]
        steps = [0]
        expected = reference_normal_form(f, basis, order, steps)
        for _ in range(2):  # the memo is cold, then warm
            if steps[0]:
                with limits(step_budget=steps[0] - 1), pytest.raises(StepBudgetExceeded):
                    normal_form(f, basis, order)
            with limits(step_budget=steps[0]):
                assert normal_form(f, basis, order) == expected
            for g in basis:
                normal_form(g * f + x3, basis, order)

    def test_a_foreign_polynomial_is_refused_on_every_path(self):
        S3 = PolyRing(("u", "v", "w"), F)
        u = S3.var(0)
        assert IdealPresentation(R3, ()).reduced_basis() == ()
        for gens in ((), [x3 ** 2, y3 * z3], [x3 ** 2 + y3, y3 * z3 - x3]):
            with pytest.raises(AmbientMismatchError):
                IdealPresentation(R3, gens).contains(u)
        basis = buchberger([x3 ** 2 + y3, y3 * z3 - x3])
        assert basis[0]._packed is not None
        normal_form(x3 ** 3, basis)  # warm the memo
        with pytest.raises(AmbientMismatchError):
            normal_form(u ** 3 + u, basis)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32))
    def test_a_warm_pack_memo_changes_no_division(self, step_counters, data_seed):
        """Under every order, each normal form is taken twice against one
        reduced basis: the second time every exponent tuple of f is read
        from the basis's pack memo.  Every stored tuple maps to its pack."""
        for order in ORDERS:
            rng, gens, _ = _cancelling_division(data_seed)
            basis = buchberger(gens, order)
            fs = [random_poly(rng, R3, 3, 4) + random_poly(rng, R3, 2, 3) * g
                  for g in basis] + [R3.one]
            for f in fs * 2:
                used, steps = self._same_division(step_counters, f, basis, order)
                assert used == steps
            if any(len(g.terms) > 1 for g in basis):
                memo = basis[0]._packed[0]
                assert set(memo.packed) == {m for f in fs for m in f.terms}
                assert all(memo.packing.pack(m) == v for m, v in memo.packed.items())

    @pytest.mark.parametrize("order", ORDERS, ids=["lex", "grevlex", "deglex", "block0", "block12"])
    def test_an_f_that_overflows_leaves_no_pack_memo_entry(self, step_counters, order, monkeypatch):
        """f's 8-bit attempt raises out of the memo path before it stores
        anything; the 16-bit run divides without the memo, and its remainder
        and steps are plain division's."""
        x, y, z = x3, y3, z3
        basis = buchberger([x ** 2 - y + 3, x * y - 2 * y ** 2 + x], order)
        memo = basis[0]._packed[0]
        assert memo.packing.limit == 1 << 7
        normal_form(x ** 3 * y + y ** 2, basis, order)  # warm the memo
        before = dict(memo.packed)
        raised = []
        pack_terms = groebner._BasisMemo.pack_terms

        def watched(self, terms):
            try:
                return pack_terms(self, terms)
            except groebner._Overflow:
                raised.append(terms)
                raise

        monkeypatch.setattr(groebner._BasisMemo, "pack_terms", watched)
        # z^130 comes first in f's terms, so nothing of f packs at 8 bits
        f = z ** 130 * (x ** 3 + 1) + x ** 2 * y + 7
        used, steps = self._same_division(step_counters, f, basis, order)
        assert used == steps
        assert raised == [f.terms]
        assert memo.packed == before
        assert all(memo.packing.pack(m) == v for m, v in memo.packed.items())

    def test_a_failed_division_stops_at_its_first_remainder_term(self, step_counters):
        # grevlex: x^4 and then x^3 cancel against x + 1; y^3 is the first
        # term x does not divide, so g does not divide h and the division
        # stops there, before 2x^2 and -2x would spend two more steps
        x, y = R2.gens()
        h = x ** 4 + y ** 3 + x ** 2
        g = x + 1
        step_counters.clear()
        assert groebner._divide(h, g) is None
        assert [c.used for c in step_counters] == [2]
        steps = [0]
        assert reference_normal_form(h, [g], GREVLEX, steps) == y ** 3 + 2
        assert steps[0] == 4
        # so a budget of those two steps decides it
        assert groebner._divide(h, g, 2) is None
        with pytest.raises(StepBudgetExceeded):
            groebner._divide(h, g, 1)


EXTREME_RINGS = [
    PolyRing(("x", "y", "z"), PrimeField(q)) for q in (2, 3, 3_317_044_064_679_887_385_961_813)
]


class TestExtremeModuli:
    """Pending coefficients are reduced mod p once, when their term comes
    up; at p = 2, 3 and the largest admitted prime the kernel's normal
    forms and bases, with their steps, are those on exponent tuples."""

    @settings(max_examples=90, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(EXTREME_RINGS), st.integers(0, 2**32), st.sampled_from(ORDERS))
    def test_normal_forms_and_bases_against_the_tuple_kernel(self, step_counters, ring, data_seed, order):
        rng, gens, f = _cancelling_division(data_seed, ring)
        step_counters.clear()
        basis = buchberger(gens, order)
        expected, steps = reference_buchberger(gens, order)
        assert [g.terms for g in basis] == [g.terms for g in expected]
        assert sum(c.used for c in step_counters) == steps
        fs = [f] + [random_poly(rng, ring, 3, 4) + random_poly(rng, ring, 2, 3) * g for g in basis]
        for divisors in (gens, basis, basis):  # the basis's memo is warm the second time
            for h in fs:
                step_counters.clear()
                nf = normal_form(h, divisors, order)
                steps = [0]
                want = reference_normal_form(h, divisors, order, steps)
                assert nf.terms == want.terms
                if any(len(g.terms) > 1 for g in divisors if g.terms):
                    assert list(nf.terms.items()) == list(want.terms.items())
                assert sum(c.used for c in step_counters) == steps[0]


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


class TestAgainstSympy:
    """Differential test against sympy's Groebner bases over GF(p).  sympy
    shares no code with the kernel; its bases are reduced and monic."""

    P = 32003

    def _to_sympy(self, sympy, f, symbols):
        return sum(
            (c * sympy.Mul(*(s ** e for s, e in zip(symbols, m))) for m, c in f.terms.items()),
            sympy.Integer(0),
        )

    def _basis_set(self, sympy, exprs, symbols):
        return {
            frozenset((m, c % self.P) for m, c in sympy.Poly(e, *symbols, modulus=self.P).terms())
            for e in exprs
        }

    def _ours(self, basis):
        return {frozenset(g.terms.items()) for g in basis}

    def _cases(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            ring = (R2, R3)[rng.randrange(2)]
            gens = [random_poly(rng, ring, 3, 3, constant_free=True) for _ in range(rng.randint(1, 3))]
            yield rng, ring, [g for g in gens if g.terms]

    @pytest.mark.parametrize("order, name", [(LEX, "lex"), (GREVLEX, "grevlex")],
                             ids=["lex", "grevlex"])
    def test_reduced_bases(self, sympy, order, name):
        for _, ring, gens in self._cases(17, 25):
            symbols = sympy.symbols(ring.names)
            exprs = [self._to_sympy(sympy, g, symbols) for g in gens]
            theirs = sympy.groebner(exprs, *symbols, order=name, modulus=self.P).exprs
            assert self._ours(buchberger(gens, order)) == self._basis_set(sympy, theirs, symbols)

    def _sympy_intersection(self, sympy, symbols, I, J):
        t = sympy.Symbol("_tag")
        gens = [t * f for f in I] + [(1 - t) * g for g in J]
        basis = sympy.groebner(gens, t, *symbols, order="lex", modulus=self.P).exprs
        return [g for g in basis if not g.has(t)]

    def _reduced(self, sympy, symbols, exprs):
        if not exprs:
            return set()
        return self._basis_set(
            sympy, sympy.groebner(exprs, *symbols, order="grevlex", modulus=self.P).exprs, symbols
        )

    def test_intersections(self, sympy):
        for rng, ring, gens in self._cases(23, 15):
            others = [random_poly(rng, ring, 2, 2, constant_free=True) for _ in range(rng.randint(1, 2))]
            others = [g for g in others if g.terms]
            if not gens or not others:
                continue
            symbols = sympy.symbols(ring.names)
            I = [self._to_sympy(sympy, g, symbols) for g in gens]
            J = [self._to_sympy(sympy, g, symbols) for g in others]
            met = ideal_intersection(ideal(ring, *gens), ideal(ring, *others))
            theirs = self._reduced(sympy, symbols, self._sympy_intersection(sympy, symbols, I, J))
            assert self._ours(buchberger(met.generators, GREVLEX)) == theirs

    def test_quotients(self, sympy):
        for rng, ring, gens in self._cases(29, 15):
            g = random_poly(rng, ring, 2, 2, constant_free=True)
            if not gens or not g.terms:
                continue
            symbols = sympy.symbols(ring.names)
            I = [self._to_sympy(sympy, f, symbols) for f in gens]
            sg = self._to_sympy(sympy, g, symbols)
            parts = []
            for h in self._sympy_intersection(sympy, symbols, I, [sg]):
                q, r = sympy.div(sympy.Poly(h, *symbols, modulus=self.P),
                                 sympy.Poly(sg, *symbols, modulus=self.P))
                assert r.is_zero
                parts.append(q.as_expr())
            Q = ideal_quotient(ideal(ring, *gens), ideal(ring, g))
            assert self._ours(buchberger(Q.generators, GREVLEX)) == self._reduced(sympy, symbols, parts)
