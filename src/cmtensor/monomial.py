"""Monomial ideals on exponent tuples, read off their generators.

A monomial is a tuple of exponents, one per variable, and a monomial ideal
M = (gens) is given by any monomials that generate it.  Its minimal
generators, those no other generator divides, are its reduced Groebner
basis under every order, each with coefficient 1.  The identities used
(Miller and Sturmfels, *Combinatorial Commutative Algebra*, 2005, ch. 1):

- (M : n) is generated by the m / gcd(m, n) over the generators m of M;
- (M) ∩ (N) is generated by the lcm(m, n) over m in M and n in N;
- a monomial u is a nonzerodivisor modulo M exactly when it shares no
  variable with a minimal generator m (else m / gcd(m, u) is in (M : u)
  but not in M);
- HS(R/M) = N(t) / (1 - t)^n, with N from Bigatti's pivot recursion;
- dim R/M is n minus the fewest variables meeting every generator's support.

Polynomials in t, such as Hilbert numerators, are sparse: a dict from
each exponent to its nonzero integer coefficient, so their size follows
their terms and not their degree.  They combine by :func:`plus_shifted`:
a + sign * t^d * b.
"""

from __future__ import annotations

from operator import sub

from .polyring import mono_divides


def minimal(monos) -> list:
    """The minimal generators of the monomial ideal the monomials span,
    ascending in degree."""
    kept = []
    for m in sorted(set(monos), key=sum):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def colon(gens, n) -> list:
    """The minimal generators of (M : n) for M = (gens): the m / gcd(m, n)."""
    return minimal([tuple(map(sub, m, map(min, m, n))) for m in gens])


def intersection(gens1, gens2) -> list:
    """The minimal generators of (gens1) ∩ (gens2): the minimal lcm(m, n)."""
    return minimal([tuple(map(max, m, n)) for m in gens1 for n in gens2])


def coprime(u, gens) -> bool:
    """Whether u shares no variable with any of `gens`: for minimal
    generators, whether u is a nonzerodivisor modulo (gens)."""
    return not any(any(map(min, u, m)) for m in gens)


def plus_shifted(a: dict, b: dict, d: int, sign: int = 1) -> dict:
    """a + sign * t^d * b, with zero coefficients dropped; a and b are
    left as they are."""
    out = dict(a)
    for k, c in b.items():
        v = out.get(d + k, 0) + sign * c
        if v:
            out[d + k] = v
        else:
            del out[d + k]
    return out


def hilbert_numerator(monos) -> dict:
    """N with HS(R/M) = N(t) / (1 - t)^n for the monomial ideal M = (monos).

    Sparse, {exponent: nonzero coefficient}: ``{0: 1}`` for the zero
    ideal and ``{}`` for the unit ideal.  Bigatti's pivot recursion ("Computation of
    Hilbert-Poincare series", 1997): for a pivot p = x_i^e with p outside
    M, N(M) = N(M + (p)) + t^e N(M : p).  The pivot variable is the one in
    most minimal generators, and e is the median exponent of x_i over the
    generators that are not pure powers of it.  Every step enlarges the
    ideal inside the finite set of ideals generated by divisors of the lcm
    of the input, so the recursion ends; it stops at pairwise coprime
    generators, where N is the product of (1 - t^deg).
    """
    gens = minimal(monos)
    if not gens:
        return {0: 1}
    if not any(gens[0]):
        return {}
    counts = [0] * len(gens[0])
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    i = max(range(len(counts)), key=counts.__getitem__)
    if counts[i] <= 1:
        out = {0: 1}
        for m in gens:
            out = plus_shifted(out, out, sum(m), -1)
        return out
    # Two minimal generators share x_i and cannot both be pure powers of it,
    # so a mixed one exists; its x_i exponent is below any pure power's.
    exps = sorted(m[i] for m in gens if m[i] and sum(m) > m[i])
    e = exps[len(exps) // 2]
    pivot = tuple(e if j == i else 0 for j in range(len(counts)))
    quotient = [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens]
    return plus_shifted(hilbert_numerator(gens + [pivot]), hilbert_numerator(quotient), e)


def codimension(monos) -> int:
    """n - dim R/M for M = (monos) proper: the least number of variables
    meeting the support of every generator (0 for no generators)."""
    work = []
    for s in sorted({frozenset(i for i, e in enumerate(m) if e) for m in monos}, key=len):
        if not any(t <= s for t in work):
            work.append(s)
    best = len({x for s in work for x in s})

    def descend(remaining, chosen):
        nonlocal best
        if chosen >= best:
            return
        if not remaining:
            best = chosen
            return
        branch = min(remaining, key=len)
        for x in sorted(branch):
            descend([t for t in remaining if x not in t], chosen + 1)

    descend(work, 0)
    return best
