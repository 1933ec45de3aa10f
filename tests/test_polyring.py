from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtensor import (
    GREVLEX,
    LEX,
    AmbientMismatchError,
    PolyRing,
    Polynomial,
    PrimeField,
    ZeroPolynomialError,
    block_order,
)
from cmtensor.polyring import (
    DEGLEX,
    MODULUS_BOUND,
    _is_prime,
    map_variables,
    restrict_variables,
)

F = PrimeField()
R2 = PolyRing(("x", "y"), F)
R3 = PolyRing(("x", "y", "z"), F)


def monomials(nvars, max_exp=4):
    return st.tuples(*[st.integers(0, max_exp) for _ in range(nvars)])


def polys(ring, max_exp=3, max_terms=4):
    term = st.tuples(monomials(ring.nvars, max_exp), st.integers(0, ring.field.p - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial(ring, dict(ts))
    )


class TestPrimeField:
    def test_default_prime(self):
        assert F.p == 32003

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeField(32001)  # 3 * 10667

    def test_inverse(self):
        assert (F.inv(12345) * 12345) % F.p == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_inverse_equals_the_fermat_inverse(self):
        top = next(n for n in range(MODULUS_BOUND - 1, 0, -1) if _is_prime(n))
        rng = random.Random(11)
        for p in (2, 3, 32003, top):
            field = PrimeField(p)
            for a in [1, p - 1] + [rng.randrange(-3 * p, 3 * p) for _ in range(200)]:
                if a % p:
                    assert field.inv(a) == pow(a % p, p - 2, p)
            with pytest.raises(ZeroDivisionError):
                field.inv(0)
            with pytest.raises(ZeroDivisionError):
                field.inv(5 * p)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        sieve = [trial(n) for n in range(10 ** 5)]
        assert [_is_prime(n) for n in range(10 ** 5)] == sieve

    def test_primality_matches_sympy_below_2_64(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        values = [rng.randrange(2 ** 64) for _ in range(2000)]
        values += [rng.randrange(2 ** 63, 2 ** 64) | 1 for _ in range(2000)]
        # strong pseudoprimes to several small bases
        values += [3215031751, 2152302898747, 3474749660383, 341550071728321,
                   3825123056546413051, 318665857834031151167461]
        for n in values:
            assert _is_prime(n) == sympy.isprime(n), n

    def test_large_primes_accepted_at_once(self):
        started = time.perf_counter()
        assert PrimeField(10 ** 18 + 3).p == 10 ** 18 + 3
        assert PrimeField(10 ** 18 + 9).p == 10 ** 18 + 9
        assert time.perf_counter() - started < 1.0
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(10 ** 18 + 1)

    def test_modulus_bound(self):
        with pytest.raises(ValueError, match=f"only below {MODULUS_BOUND}"):
            PrimeField(2 ** 89 - 1)  # a Mersenne prime past the bound
        with pytest.raises(ValueError, match="too large"):
            PrimeField(MODULUS_BOUND)


class TestMonomialOrders:
    def test_grevlex_degree_then_tiebreak(self):
        # equal degree: the tie goes against the later variable
        assert GREVLEX.compare((2, 1), (1, 2)) == 1

    def test_reflexive(self):
        assert GREVLEX.compare((3, 1), (3, 1)) == 0
        assert LEX.compare((2, 0), (2, 0)) == 0

    def test_lex_ignores_degree(self):
        assert LEX.compare((0, 5), (1, 0)) == -1

    def test_deglex_degree_then_lex(self):
        # x*z against y^2 over (x, y, z): deglex and grevlex disagree
        assert DEGLEX.compare((1, 0, 1), (0, 2, 0)) == 1
        assert GREVLEX.compare((1, 0, 1), (0, 2, 0)) == -1
        assert DEGLEX.compare((0, 5), (1, 0)) == 1

    def test_length_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            GREVLEX.compare((1, 2), (1, 2, 3))

    @given(monomials(3), monomials(3))
    def test_antisymmetric(self, m1, m2):
        assert GREVLEX.compare(m1, m2) == -GREVLEX.compare(m2, m1)

    @given(monomials(3), monomials(3), monomials(3))
    def test_transitive(self, m1, m2, m3):
        for order in (LEX, GREVLEX, DEGLEX, block_order((0,))):
            if order.compare(m1, m2) <= 0 and order.compare(m2, m3) <= 0:
                assert order.compare(m1, m3) <= 0

    @given(monomials(3), monomials(3), monomials(3))
    def test_multiplicative(self, m1, m2, t):
        from cmtensor.polyring import mono_mul

        for order in (LEX, GREVLEX, DEGLEX, block_order((1,))):
            if order.compare(m1, m2) == -1:
                assert order.compare(mono_mul(m1, t), mono_mul(m2, t)) == -1

    @given(monomials(4))
    def test_one_is_minimum(self, m):
        one = (0, 0, 0, 0)
        for order in (LEX, GREVLEX, DEGLEX, block_order((0, 2))):
            assert order.compare(one, m) <= 0

    @given(monomials(4), monomials(4))
    def test_block_order_elimination_property(self, m_front, m_rest):
        # any monomial touching a front variable beats any without one
        order = block_order((0, 1))
        with_front = (m_front[0] + 1, m_front[1], m_front[2], m_front[3])
        without = (0, 0, m_rest[2], m_rest[3])
        assert order.compare(with_front, without) == 1


class TestArithmetic:
    def test_add_cancels(self):
        x, y = R2.gens()
        assert (x + y) + (x - y) == 2 * x

    def test_add_identity(self):
        f = R2.var(0) ** 2 + 3
        assert f + R2.zero == f

    def test_characteristic(self):
        ring = PolyRing(("x",), PrimeField(3))
        x = ring.var(0)
        assert x + 2 * x == ring.zero

    def test_product_of_conjugates(self):
        x, y = R2.gens()
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_mul_identities(self):
        f = R2.var(0) * 5 + R2.var(1)
        assert f * R2.one == f
        assert f * R2.zero == R2.zero

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            R2.var(0) + R3.var(0)

    @settings(max_examples=60)
    @given(polys(R2), polys(R2), polys(R2))
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60)
    @given(polys(R3))
    def test_additive_inverse_is_canonical_zero(self, f):
        assert f + (-f) == R3.zero
        assert not (f - f).terms

    @given(polys(R2))
    def test_no_zero_coefficients_stored(self, f):
        assert all(1 <= c < F.p for c in f.terms.values())


def double_loop_product(f, g):
    """f * g by the general double loop: every pair of terms, in order."""
    p = f.ring.field.p
    res = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = (res.get(m, 0) + c1 * c2) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
    return res


R3_SMALL = [PolyRing(("x", "y", "z"), PrimeField(q)) for q in (2, 3)]


@st.composite
def single_terms(draw, ring):
    """A constant, the zero polynomial, or one term whose exponents may
    reach 128 and more."""
    kind = draw(st.sampled_from(["constant", "zero", "term"]))
    if kind == "zero":
        return ring.zero
    exponent = st.one_of(st.integers(0, 3), st.integers(128, 140))
    m = (0,) * ring.nvars if kind == "constant" else draw(st.tuples(*[exponent] * ring.nvars))
    return Polynomial(ring, {m: draw(st.integers(1, ring.field.p - 1))})


@st.composite
def term_pairs(draw):
    """(f, t) over a ring at p = 2, 3 or 32003: t a single term (or zero),
    f any polynomial."""
    ring = draw(st.sampled_from([R3] + R3_SMALL))
    return draw(polys(ring, max_exp=4, max_terms=6)), draw(single_terms(ring))


class TestSingleTermPaths:
    """Products with a single-term factor and differences take one pass;
    they give the terms, in the same order, of the general double loop and
    of ``a + (-b)``."""

    @settings(max_examples=150)
    @given(term_pairs())
    def test_products_with_a_single_term_on_either_side(self, pair):
        f, t = pair
        for a, b in ((f, t), (t, f), (t, t)):
            got = (a * b).terms
            want = double_loop_product(a, b)
            assert list(got.items()) == list(want.items())
            assert all(1 <= c < a.ring.field.p for c in got.values())

    @settings(max_examples=150)
    @given(term_pairs(), st.data())
    def test_differences_are_sums_of_negations(self, pair, data):
        f, t = pair
        g = data.draw(polys(f.ring, max_exp=4, max_terms=6))
        for a, b in ((f, g), (g, f), (f, t), (t, f), (f, f), (f, f + t)):
            assert list((a - b).terms.items()) == list((a + (-b)).terms.items())


class TestLeadingTerm:
    def test_degree_beats_position_in_grevlex(self):
        x, y = R2.gens()
        f = x ** 2 + x * y ** 3
        assert f.leading_term(GREVLEX) == ((1, 3), 1)

    def test_lex_leading(self):
        x, y = R2.gens()
        assert (x + y ** 9).leading_term(LEX) == ((1, 0), 1)

    def test_constant(self):
        assert R2.const(7).leading_term(GREVLEX) == ((0, 0), 7)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            R2.zero.leading_term(GREVLEX)

    @settings(max_examples=60)
    @given(polys(R3), st.lists(st.sampled_from(range(4)), min_size=1, max_size=6))
    def test_cache_follows_the_order_asked(self, f, picks):
        orders = (GREVLEX, LEX, DEGLEX, block_order((2,)))
        for i in picks:
            order = orders[i]
            if not f.terms:
                with pytest.raises(ZeroPolynomialError):
                    f.leading_term(order)
                continue
            m = max(f.terms, key=order.key)
            assert f.leading_term(order) == (m, f.terms[m])
            assert f.monic(order).leading_term(order) == (m, 1)


class TestRingContext:
    def test_no_variables_ring(self):
        ring = PolyRing((), F)
        assert ring.const(5).terms == {(): 5}
        assert ring.one.total_degree() == 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(("x", "x"), F)

    def test_fresh_name(self):
        assert R2.fresh_name("x") == "x1"
        assert R2.fresh_name("t") == "t"

    def test_homogeneous_flag(self):
        x, y = R2.gens()
        assert (x ** 2 + x * y).is_homogeneous()
        assert not (x ** 2 + y).is_homogeneous()
        assert R2.zero.is_homogeneous()

    def test_support(self):
        x, y, z = R3.gens()
        assert (x * z + x ** 2).support() == frozenset({0, 2})

    def test_map_and_restrict_roundtrip(self):
        x, y = R2.gens()
        f = x ** 2 - 3 * y + 1
        up = map_variables(f, R3, (0, 2))
        assert up.support() <= {0, 2}
        back = restrict_variables(up, R2, (0, 2))
        assert back == f

    def test_restrict_rejects_stray_variables(self):
        with pytest.raises(ValueError):
            restrict_variables(R3.var(1), R2, (0, 2))


class TestRendering:
    def test_balanced_coefficients(self):
        x, y = R2.gens()
        assert (x - y).render() == "x - y"
        assert (-x).render() == "-x"

    def test_powers_and_products(self):
        x, y = R2.gens()
        assert (3 * x ** 2 * y - y ** 3 + 1).render() == "3*x^2*y - y^3 + 1"

    def test_zero(self):
        assert R2.zero.render() == "0"
