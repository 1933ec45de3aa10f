"""The monomial-ideal calculus of :mod:`cmtensor.monomial` against brute
force.

Each oracle here decides membership in a monomial ideal by testing every
generator for divisibility, coordinate by coordinate, and shares no code
with the module.  Two monomial ideals whose generators have their i-th
exponents in a set C_i are equal exactly when they hold the same points of
the grid C_1 x ... x C_n: rounding each exponent of a monomial down to the
largest value of C_i below it (or 0) changes membership in neither.  The
grids below hold every exponent the inputs, their lcms and their colons
can have, so the membership checks are complete, exponents of 128 and more
included.
"""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from cmtensor import GREVLEX, LEX, PolyRing, PrimeField, buchberger, krull_dim, make_algebra
from cmtensor.monomial import (
    codimension,
    colon,
    coprime,
    hilbert_numerator,
    intersection,
    minimal,
    plus_shifted,
)
from conftest import random_poly
from oracles import dim_subset_oracle, monomials_up_to

F = PrimeField()

# small exponents, and exponents of 128 and more
EXPONENT = st.one_of(st.integers(0, 3), st.integers(128, 131))


@st.composite
def _monomials(draw, nvars, min_size=0, max_size=6):
    shape = st.tuples(*[EXPONENT] * nvars)
    return draw(st.lists(shape, min_size=min_size, max_size=max_size))


def _in(q, gens):
    """Whether the monomial q lies in the ideal the monomials `gens` span."""
    return any(all(a <= b for a, b in zip(g, q)) for g in gens)


def _grid(nvars, monos):
    """Every monomial whose i-th exponent is 0..3 or within 3 below the
    i-th exponent of one of `monos`: a superset of each grid C_1 x ... x C_n
    the tests need (for a colon, m_i - n_i lies in 0..3 or in
    m_i - 3..m_i whenever both come from ``EXPONENT``)."""
    values = []
    for i in range(nvars):
        vals = set(range(4))
        for m in monos:
            vals.update(range(max(m[i] - 3, 0), m[i] + 1))
        values.append(sorted(vals))
    return itertools.product(*values)


def _is_antichain(gens):
    return not any(a != b and all(x <= y for x, y in zip(a, b)) for a in gens for b in gens)


class TestAgainstBruteForce:
    """Each function of :mod:`cmtensor.monomial` against divisibility
    tested point by point."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _monomials(n))))
    def test_minimal(self, case):
        nvars, gens = case
        got = minimal(gens)
        assert set(got) <= set(gens) and _is_antichain(got)
        assert [sum(m) for m in got] == sorted(sum(m) for m in got)
        for q in _grid(nvars, gens):
            assert _in(q, got) == _in(q, gens)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), _monomials(n), _monomials(n, 1, 1))))
    def test_colon(self, case):
        nvars, gens, (n,) = case
        got = colon(gens, n)
        assert _is_antichain(got)
        for q in _grid(nvars, gens):
            assert _in(q, got) == _in(tuple(a + b for a, b in zip(q, n)), gens)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), _monomials(n, max_size=4), _monomials(n, max_size=4))))
    def test_intersection(self, case):
        nvars, gens1, gens2 = case
        got = intersection(gens1, gens2)
        assert _is_antichain(got)
        for q in _grid(nvars, gens1 + gens2):
            assert _in(q, got) == (_in(q, gens1) and _in(q, gens2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), _monomials(n), _monomials(n, 1, 1))))
    def test_coprime(self, case):
        """Against supports, and for minimal generators against the
        definition: u is a nonzerodivisor modulo M when q * u in M forces
        q in M."""
        nvars, gens, (u,) = case

        def support(m):
            return {i for i, e in enumerate(m) if e}

        got = coprime(u, gens)
        assert got == all(not support(u) & support(g) for g in gens)
        if _is_antichain(gens):
            regular = all(
                _in(q, gens) or not _in(tuple(a + b for a, b in zip(q, u)), gens)
                for q in _grid(nvars, gens)
            )
            assert got == regular

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _monomials(n))))
    def test_codimension(self, case):
        nvars, gens = case
        gens = [m for m in gens if any(m)]  # a proper ideal
        supports = [{i for i, e in enumerate(m) if e} for m in gens]
        assert nvars - codimension(gens) == dim_subset_oracle(nvars, supports)


def _series(numerator, nvars, degree):
    """Coefficients of t^0..t^degree of numerator / (1 - t)^nvars, for a
    sparse numerator {exponent: coefficient}."""
    return [
        sum(c * math.comb(d - k + nvars - 1, nvars - 1) for k, c in numerator.items() if k <= d)
        for d in range(degree + 1)
    ]


def _order_at_one(numerator):
    """The multiplicity of t = 1 as a root of the sparse numerator."""
    order, coeffs = 0, [numerator.get(k, 0) for k in range(max(numerator, default=-1) + 1)]
    while coeffs and not sum(coeffs):
        # divide by (1 - t): the quotient's coefficients are partial sums
        coeffs = list(itertools.accumulate(coeffs))[:-1]
        order += 1
    return order


class TestHilbertNumerator:
    """Bigatti's pivot recursion against standard monomials counted one by
    one, and its pole order at t = 1 against the dimension oracles."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32))
    def test_counts_standard_monomials(self, data_seed):
        rng = random.Random(data_seed)
        nvars = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(0, 3) for _ in range(nvars))
            for _ in range(rng.randint(0, 5))
        ]
        numerator = hilbert_numerator(gens)
        # deg N <= deg lcm(gens), so agreement up to one past it decides N
        top = sum(max((m[i] for m in gens), default=0) for i in range(nvars)) + 1
        counts = [0] * (top + 1)
        for m in monomials_up_to(nvars, top):
            if not any(all(a <= b for a, b in zip(g, m)) for g in gens):
                counts[sum(m)] += 1
        assert _series(numerator, nvars, top) == counts
        assert all(numerator.values())  # only nonzero coefficients are kept

    def test_unit_and_zero_ideals(self):
        assert hilbert_numerator([(0, 0), (1, 2)]) == {}
        assert hilbert_numerator([]) == {0: 1}
        assert hilbert_numerator([(2, 0), (0, 3)]) == {0: 1, 2: -1, 3: -1, 5: 1}

    def test_size_follows_the_terms_not_the_degree(self):
        # (1 - t^e)^2 at e = 10^6: three terms, where a coefficient per
        # degree would allocate millions
        e = 10 ** 6
        tracemalloc.start()
        try:
            numerator = hilbert_numerator([(e, 0), (0, e)])
            shifted = plus_shifted(numerator, numerator, e, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert numerator == {0: 1, e: -2, 2 * e: 1}
        assert shifted == {0: 1, e: -3, 2 * e: 3, 3 * e: -1}
        assert plus_shifted(shifted, numerator, e) == numerator  # cancelled terms are dropped
        assert peak < 100_000

    def test_pole_order_is_the_dimension(self):
        rng = random.Random(23)
        checked = 0
        for nvars in (1, 2, 3, 4, 5):
            ring = PolyRing(tuple("abcde"[:nvars]), F)
            for order in (GREVLEX, LEX):
                for _ in range(4):
                    gens = [
                        random_poly(rng, ring, max_deg=2, max_terms=2, constant_free=True)
                        for _ in range(rng.randint(0, 3))
                    ]
                    A = make_algebra(ring, gens)
                    lms = [g.leading_monomial(order) for g in buchberger(gens, order)]
                    pole = nvars - _order_at_one(hilbert_numerator(lms))
                    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
                    assert pole == krull_dim(A) == dim_subset_oracle(nvars, supports)
                    checked += 1
        assert checked == 40
