"""Reduced Groebner bases and the ideal calculus built on them.

Buchberger's algorithm with Gebauer-Moeller pair updates (Gebauer and
Moeller, "On an installation of Buchberger's algorithm", 1988), pairs
selected by sugar under lex and block orders (Giovini et al., "'One sugar
cube, please'", 1991) and by the normal strategy under grevlex and deglex,
full multivariate division, and the derived operations: membership,
equality, intersection via a tag variable, quotient, and elimination.

Every :class:`IdealPresentation` is grevlex: its reduced basis, its
membership test and its colons.  The other orders serve
:func:`buchberger` and :func:`normal_form`, and the block orders of
:func:`eliminate`, through which :func:`ideal_intersection` goes.

A presentation's initial ideal in(J), the ideal of its leading
monomials, is written once (:meth:`IdealPresentation.initial`), and
everything read off it is read there: the unit test, the Krull dimension
and the Hilbert numerator of R/J.  No other module computes a dimension
or a Hilbert numerator.

Monomial input takes exact routes, chosen by the shape of the input alone
and returning exactly what the general path returns: a basis of single
terms is read off the generators by :mod:`cmtensor.monomial` and spends
no reduction step, and membership in an ideal of single terms is read by
divisibility, with no basis built (:meth:`IdealPresentation.contains`).
Division by single terms drops each divisible term, one step each, as
the reducer does.

Buchberger's last phase turns the Groebner basis it found into the
reduced one (:func:`_reduced_basis`): it minimalizes the basis, then
divides each kept element, in ascending order, by the reduced elements
below it only, since a larger leading monomial divides no term below an
element's own.  A presentation whose maker knows a Groebner basis of it,
as a colon (I : g) knows its generators, takes that phase alone when its
reduced basis is asked for: the same basis, with no S-pair reduced (see
:meth:`IdealPresentation.reduced_basis`).

The reduction loop works on monomials packed into one int each (see
:class:`_Packing`): integer ``<`` is the order, ``+`` the product, and a
guard-bit mask tests divisibility.  Polynomials keep exponent tuples; terms
are packed on entry to the loop and unpacked on exit, and only the
elements of a reduced basis keep their packed form beside their terms.
Fields start 8 bits wide; when a monomial reaches a guard bit, the whole
computation runs again with fields twice as wide on the same step
counter.

A division keeps its pending terms in a heap from its first reduction
step on.  Their coefficients are left unreduced; each is reduced mod p
once, when its term comes up, and a term that cancelled, now a multiple
of p, is skipped then, with no step spent and no guard bit checked.
Division by one polynomial, as an exact quotient tries it, stops at the
first term that polynomial does not divide.  A Buchberger run
remembers, for each monomial its S-pair divisions meet, the first basis
element that divides it, or how many elements were tried without one:
the basis only grows during the run, so a found divisor stays the first,
and a miss is retried only against the elements added since.  That memo
is dropped when the run returns, and a widened rerun starts a new one.

A reduced basis, as the run returns it, gets a memo of its own for the
normal forms taken against it: the packing it was built under, its
entries, each exponent tuple packed so far, and each monomial's first
dividing entry, where a miss is final, since the basis never grows.  Its
entries are facts about the basis, so divisions that share it, in any
order or thread, store the same values.
:func:`normal_form` reads it only when the nonzero divisors it is given
are that basis, the same objects in the same order, and only in an
attempt at the memo's packing; any other list, order or width takes the
entries packed anew and no memo.

No choice depends on the packing, the heap or the memos (the pairs each
update keeps, pairs by sugar or lcm degree, then lcm degree, lcm, i, j,
the largest term first, the first basis element that divides it), so
bases, remainders and step counts are those of the same algorithm on
exponent tuples, kept in the tests as ``reference_buchberger`` and
``reference_normal_form``, plus the steps of any narrower run that
overflowed.

Every operation is pure given its inputs.  An :class:`IdealPresentation`
caches its reduced basis, its minimal monomials, its initial ideal, its
dimension and its Hilbert numerator write-once, so concurrent readers of
one ideal at worst duplicate the same computation and publish identical
results.  That is the only place a basis is cached:
:func:`buchberger` always computes.
Every basis and every normal form counts its reduction steps on a fresh
``_StepCounter`` under the step budget of :mod:`cmtensor.context`.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import itemgetter, mul

from . import monomial
from .context import _StepCounter
from .errors import AmbientMismatchError, ZeroRingError
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    PolyRing,
    block_order,
    map_variables,
    mono_divides,
)


def _check_ring(ring: PolyRing, polys: Iterable[Polynomial]):
    for g in polys:
        if g.ring is not ring and g.ring != ring:
            raise AmbientMismatchError(
                f"polynomial over {g.ring.names} used in {ring.names}"
            )


class _Overflow(Exception):
    """A monomial outgrew the fields of its packing."""


def _grevlex_fields(idx: tuple) -> list:
    return [idx[:k] for k in range(len(idx), 0, -1)]


def _order_fields(nvars: int, order: MonomialOrder) -> list:
    """The order as sums of exponents over subsets of the variables.

    Monomials compare lexicographically by these sums, most significant
    first: lex by each exponent; deglex by the degree, then each exponent;
    grevlex by the degree, then the prefix sums s_{n-1}, ..., s_1 (with
    equal degrees, a smaller last exponent means a larger s_{n-1}); a block
    order by the grevlex sums of its front, then those of the rest.
    """
    every = tuple(range(nvars))
    if order.kind == "lex":
        return [(i,) for i in every]
    if order.kind == "deglex":
        return [every] + [(i,) for i in every]
    if order.kind == "grevlex":
        return _grevlex_fields(every)
    rest = tuple(i for i in every if i not in order.front)
    return _grevlex_fields(order.front) + _grevlex_fields(rest)


class _Packing:
    """Monomials of one (nvars, order) packed into one int of `bits`-bit fields.

    The order's fields come first, most significant first, then one field
    for each exponent that is not already a field of its own.  The top bit
    of every field is a guard bit that a packed monomial keeps clear.  A
    field is linear in the exponents, so packing is ``sum(e_i * w_i)``, and
    for packed monomials m and d: integer ``<`` is the order, ``m + d`` is
    the product (each field stays below twice the guard, so no carry
    crosses a field), and ``(m - d) & guard`` is zero exactly when d divides
    m (a field of d above that of m borrows into its guard bit).  Every
    field is at most the degree, so :meth:`pack` refuses a monomial whose
    degree reaches the guard bit, and a product that overflows shows as a
    set guard bit.
    """

    __slots__ = ("weights", "guard", "limit", "shifts", "mask")

    def __init__(self, nvars: int, order: MonomialOrder, bits: int):
        fields = _order_fields(nvars, order)
        own = {f[0] for f in fields if len(f) == 1}
        fields += [(i,) for i in range(nvars) if i not in own]
        weights = [0] * nvars
        shifts = [0] * nvars
        guard = 0
        for pos, field in enumerate(reversed(fields)):
            shift = pos * bits
            guard |= 1 << (shift + bits - 1)
            for i in field:
                weights[i] += 1 << shift
            if len(field) == 1:
                shifts[field[0]] = shift
        self.weights = tuple(weights)
        self.shifts = tuple(shifts)
        self.guard = guard
        self.limit = 1 << (bits - 1)
        self.mask = (1 << bits) - 1

    def pack(self, m) -> int:
        if sum(m) >= self.limit:
            raise _Overflow
        return sum(map(mul, m, self.weights))

    def unpack(self, x: int) -> tuple:
        mask = self.mask
        return tuple([(x >> s) & mask for s in self.shifts])

    def pack_terms(self, terms: dict) -> dict:
        pack = self.pack
        return {pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}


@functools.lru_cache(maxsize=None)
def _packing(nvars: int, order: MonomialOrder, bits: int) -> _Packing:
    return _Packing(nvars, order, bits)


def _widening(nvars: int, order: MonomialOrder, run):
    """`run(packing)` at 8-bit fields, run again at twice the width while
    a monomial overflows.  The caller's step counter carries over."""
    bits = 8
    while True:
        try:
            return run(_packing(nvars, order, bits))
        except _Overflow:
            bits *= 2


def _entry(terms: dict, p: int, monic: bool = False) -> tuple:
    """(leading monomial, inverse leading coefficient, other terms) of packed
    `terms`; with `monic` the terms are divided by the leading coefficient."""
    lm = max(terms)
    inv = pow(terms[lm], -1, p)
    if monic:
        return lm, 1, tuple((m, c * inv % p) for m, c in terms.items() if m != lm)
    return lm, inv, tuple((m, c) for m, c in terms.items() if m != lm)


class _BasisMemo:
    """What one reduced basis keeps for the normal forms taken against it:
    the packing it was built under, its entries in basis order, `first`,
    the memo of :func:`_reduce` from each monomial divided by it to its
    first dividing entry, and `packed`, each exponent tuple packed so far
    (see :meth:`pack_terms`).  The basis never grows, so a miss (the
    number of entries) is final.  Each element reaches the memo through
    its ``_packed`` slot, as ``(memo, position)``."""

    __slots__ = ("packing", "entries", "first", "packed")

    def __init__(self, packing: _Packing, entries: list):
        self.packing = packing
        self.entries = entries
        self.first = {}
        self.packed = {}

    def pack_terms(self, terms: dict) -> dict:
        """``packing.pack_terms(terms)``, packing each exponent tuple once
        per basis.  A tuple that overflows raises :class:`_Overflow` and is
        not stored."""
        packed = self.packed
        pack = self.packing.pack
        out = {}
        for m, c in terms.items():
            x = packed.get(m)
            if x is None:
                x = packed[m] = pack(m)
            out[x] = c
        return out


def _memo_of(nz: list):
    """The memo of the reduced basis `nz` is, the same objects in the same
    order, or None."""
    known = getattr(nz[0], "_packed", None)
    if known is None or len(known[0].entries) != len(nz):
        return None
    memo = known[0]
    for i, g in enumerate(nz):
        known = getattr(g, "_packed", None)
        if known is None or known[0] is not memo or known[1] != i:
            return None
    return memo


def _entry_of(g: Polynomial, packing: _Packing, p: int) -> tuple:
    """g's entry: the one its reduced basis made with it, or packed anew."""
    known = getattr(g, "_packed", None)
    if known is not None and known[0].packing is packing:
        return known[0].entries[known[1]]
    return _entry(packing.pack_terms(g.terms), p)


def _reduce(work: dict, basis, guard: int, p: int, counter, quotient=None, first=None) -> dict:
    """Full division remainder of the packed term map `work` (consumed) by
    the entries `basis`.

    Deterministic: the largest term is always cancelled against the first
    entry whose leading monomial divides it, one step each.  Until the
    first step terms only leave `work`, so the largest is found by ``max``;
    from then on the pending monomials wait in a heap, negated.  Every term
    a step adds is below the one it cancels, so terms come up in the same
    order either way.  A step adds ``(p - factor) * gc`` to each pending
    coefficient, unreduced; a coefficient is reduced mod p once, when its
    term comes up.  A term that cancels stays in `work` at a multiple of p
    and is skipped when it comes up, before its guard bit is checked and
    without a step; every other term is checked for a guard bit.

    `first`, when given, maps a monomial to its first dividing entry, or to
    n when none of the first n entries divides it.  It stays true while
    `basis` only grows, and a miss is retried only against the entries
    added since.  When `quotient` is a dict and the basis has one entry,
    the cofactor is accumulated into it, and the division stops at the
    first term that entry does not divide, returning that term alone: the
    term has passed its guard-bit check, so the division fails at every
    field width.
    """
    rem = {}
    get = work.get
    heap = None
    while True:
        if heap is None:
            if not work:
                return rem
            m = max(work)
        elif heap:
            m = -heappop(heap)
        else:
            return rem
        c = work.pop(m) % p
        if not c:
            continue
        if m & guard:
            raise _Overflow
        entry = None if first is None else first.get(m)
        if entry.__class__ is not tuple:
            # Try the entries not tried for m yet: all, or those added since
            # a miss.
            for entry in basis if entry is None else islice(basis, entry, None):
                if not (m - entry[0]) & guard:
                    break
            else:
                if first is not None:
                    first[m] = len(basis)
                rem[m] = c
                if quotient is not None:
                    return rem
                continue
            if first is not None:
                first[m] = entry
        lm, inv_lc, tail = entry
        shift = m - lm
        counter.spend()
        factor = c * inv_lc % p
        if quotient is not None:
            quotient[shift] = factor
        if heap is None:
            heap = [-t for t in work]
            heapify(heap)
        negated = p - factor
        for gm, gc in tail:
            t = gm + shift
            v = get(t)
            if v is None:
                work[t] = negated * gc
                heappush(heap, -t)
            else:
                work[t] = v + negated * gc


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
) -> Polynomial:
    """Remainder of f under full division by `basis`.

    No term of the result is divisible by a basis leading monomial, and
    f minus the result lies in the ideal the basis generates.  The largest
    term is cancelled against the first element whose leading monomial
    divides it, one step each.  When the nonzero elements of `basis` are a
    reduced basis as :func:`buchberger` returned it, the same objects in
    the same order, the division reads and fills the memo kept with that
    basis, its packed exponent tuples and its first divisors, while it
    runs at the packing the basis was built under; the remainder and the
    steps are the same.
    """
    ring = f.ring
    leads = []
    for g in basis:
        if len(g.terms) > 1:
            break
        if g.terms:
            if g.ring is not ring:
                _check_ring(ring, (g,))
            leads += g.terms
    else:
        # Division by single terms drops each divisible term in one step.
        counter = _StepCounter()
        rem = {m: c for m, c in f.terms.items() if not any(mono_divides(l, m) for l in leads)}
        counter.spend(len(f.terms) - len(rem))
        return Polynomial(ring, rem, _trusted=True)
    nz = [g for g in basis if g.terms]
    memo = _memo_of(nz)
    # a reduced basis lies in one ring
    _check_ring(ring, nz if memo is None else nz[:1])
    counter = _StepCounter()
    p = ring.field.p

    def run(packing):
        if memo is not None and memo.packing is packing:
            work, entries, first = memo.pack_terms(f.terms), memo.entries, memo.first
        else:
            entries, first = [_entry_of(g, packing, p) for g in nz], None
            work = packing.pack_terms(f.terms)
        rem = _reduce(work, entries, packing.guard, p, counter, first=first)
        return Polynomial(ring, packing.unpack_terms(rem), _trusted=True)

    return _widening(ring.nvars, order, run)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> list:
    """The unique reduced Groebner basis of the ideal the generators span.

    Zero generators are ignored; the zero ideal yields the empty basis.
    The generators, then each new remainder h, enter by a Gebauer-Moeller
    update:

    - h is paired with every live element (one whose leading monomial no
      later element's divides);
    - a new pair is dropped when another new pair's lcm divides its lcm,
      and among equal lcms only the pair with the oldest partner stays;
      pairs with coprime leading monomials serve as such divisors, then
      are dropped themselves, since their S-polynomials reduce to zero;
    - a pending pair (a, b) is deleted when lm(h) divides its lcm and that
      lcm is neither lcm(a, h) nor lcm(b, h);
    - the live elements whose leading monomial lm(h) divides retire.

    Under lex and block orders the pair of least sugar is reduced first,
    then least lcm degree, lcm, i, j; under grevlex and deglex the pair of
    least lcm degree (the normal strategy), then lcm, i, j.  An input's
    sugar is its total degree; a pair's is the larger of sugar + deg L -
    deg lm over its two elements, L being the pair's lcm; a remainder
    inherits its pair's sugar.  Each reduced S-pair spends one step of
    the step budget, and each cancellation in its division one more.  When
    every generator is a single term the basis is their minimal terms,
    with coefficient 1, and no step is spent.

    The returned basis is monic, auto-reduced, and sorted ascending by
    leading monomial.  Every call computes; a basis is cached only by
    :meth:`IdealPresentation.reduced_basis`.
    """
    nonzero = [g for g in gens if g.terms]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    _check_ring(ring, nonzero)
    return _buchberger(ring, nonzero, order)


def _buchberger(ring, nonzero, order, known=False):
    """The reduced basis of the nonzero generators; with `known` they are
    known to be a Groebner basis under `order`, and are only minimalized
    and interreduced."""
    if all(len(g.terms) == 1 for g in nonzero):
        return _monomial_basis(ring, monomial.minimal(m for g in nonzero for m in g.terms), order)
    counter = _StepCounter()
    if known:
        p = ring.field.p

        def run(packing):
            gb = [_entry(packing.pack_terms(g.terms), p, monic=True) for g in nonzero]
            return _reduced_basis(ring, gb, order, packing, counter)

    else:

        def run(packing):
            return _packed_buchberger(ring, nonzero, order, packing, counter)

    return _widening(ring.nvars, order, run)


def _monomial_basis(ring, gens, order):
    """The minimal generators `gens` of a monomial ideal, ascending in the
    order with coefficient 1: the ideal's reduced basis, with no step
    spent."""
    return [
        Polynomial(ring, {m: 1}, _trusted=True)._known_lead(order, m)
        for m in sorted(gens, key=order.key)
    ]


def _packed_buchberger(ring, nonzero, order, packing, counter):
    p = ring.field.p
    guard = packing.guard
    pack = packing.pack
    basis = [_entry(packing.pack_terms(g.terms), p, monic=True) for g in nonzero]
    lms = [e[0] for e in basis]
    exps = [packing.unpack(lm) for lm in lms]
    # Lex and block orders select pairs by sugar, grevlex and deglex by lcm
    # degree.  A pair's sugar is its lcm degree plus the larger excess of
    # sugar over leading-monomial degree of its two elements.
    if order.kind in ("lex", "block"):
        excess = [max(map(sum, g.terms)) - sum(e) for g, e in zip(nonzero, exps)]
    else:
        excess = None
    live = []  # elements whose leading monomial no later one divides
    pairs = {}  # pending (i, j) -> packed lcm; the heap skips deleted pairs
    queue = []

    def update(h):
        """Gebauer-Moeller: pair h with the live elements, keep only the new
        pairs no other new pair's lcm divides, delete the old pairs h makes
        redundant, and retire the elements lm(h) divides."""
        lmh = lms[h]
        eh = exps[h]
        if pairs:
            doomed = [
                (i, j) for (i, j), L in pairs.items()
                if not (L - lmh) & guard
                and L != pack(tuple(map(max, exps[i], eh)))
                and L != pack(tuple(map(max, exps[j], eh)))
            ]
            for ij in doomed:
                del pairs[ij]
        news = []
        for i in live:
            e = tuple(map(max, exps[i], eh))
            news.append((pack(e), i, e))
        retired = False
        for L, i, e in news:
            if L == lms[i]:
                retired = True  # lm(h) divides lm(i)
            # among equal lcms the pair with the oldest partner survives;
            # coprime pairs divide others before they are dropped themselves
            if lms[i] + lmh == L:
                continue
            for M, k, _ in news:
                if not (L - M) & guard and (M != L or k < i):
                    break
            else:
                pairs[i, h] = L
                d = sum(e)
                s = d if excess is None else d + max(excess[i], excess[h])
                heapq.heappush(queue, (s, d, L, i, h))
        if retired:
            live[:] = [i for L, i, _ in news if L != lms[i]]
        live.append(h)

    for h in range(len(basis)):
        update(h)

    # The basis only grows until the loop ends, so a monomial's first
    # divisor, once found, stays its first divisor for the rest of the run.
    first = {}
    while queue:
        sugar, _, L, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        lmi, _, tail_i = basis[i]
        lmj, _, tail_j = basis[j]
        counter.spend()
        # The S-polynomial of the monic pair; both leading terms cancel at L.
        si, sj = L - lmi, L - lmj
        work = {m + si: c for m, c in tail_i}
        for m, c in tail_j:
            t = m + sj
            v = (work.get(t, 0) - c) % p
            if v:
                work[t] = v
            else:
                del work[t]
        rem = _reduce(work, basis, guard, p, counter, first=first)
        if rem:
            basis.append(_entry(rem, p, monic=True))
            lms.append(basis[-1][0])
            exps.append(packing.unpack(lms[-1]))
            if excess is not None:
                excess.append(sugar - sum(exps[-1]))
            update(len(basis) - 1)

    return _reduced_basis(ring, map(basis.__getitem__, live), order, packing, counter)


def _reduced_basis(ring, gb, order, packing, counter):
    """The reduced basis from the monic entries `gb` of a Groebner basis,
    packed under `packing`.

    The entries are minimalized, then each kept one, in ascending order of
    leading monomials, is divided by the reduced elements below it only:
    a leading monomial above an element's own divides no term below it,
    and the element's own lead is minimal, so no larger element can
    reduce it, and the remainder is the one division by the whole basis
    gives.  Each element keeps its leading term, so the output is ascending.
    Each element carries its leading monomial under `order` and its entry
    in the basis's :class:`_BasisMemo`, made once and used as a divisor of
    the elements above it.
    """
    p = ring.field.p
    guard = packing.guard
    kept = []
    for entry in sorted(gb, key=itemgetter(0)):
        if not any(not (entry[0] - k[0]) & guard for k in kept):
            kept.append(entry)
    out = []
    entries = []
    for lm, _, tail in kept:
        work = dict(tail)
        work[lm] = 1
        rem = _reduce(work, entries, guard, p, counter)
        g = Polynomial(ring, packing.unpack_terms(rem), _trusted=True)
        g._known_lead(order, packing.unpack(lm))
        entries.append(_entry(rem, p))
        out.append(g)
    memo = _BasisMemo(packing, entries)
    for i, g in enumerate(out):
        g._packed = (memo, i)
    return out


class IdealPresentation:
    """Generators plus a lazily cached reduced grevlex Groebner basis, the
    initial ideal read off it, and what that ideal gives: the Krull
    dimension and the Hilbert numerator of R/J.

    Zero generators are dropped at construction, so the zero ideal is the
    presentation with no generators.  The caches are write-once;
    ``_monomials`` is False until :meth:`monomials` fills it.
    ``_known_basis`` is None or nonzero polynomials its maker knows to be
    a grevlex Groebner basis of the ideal.
    """

    __slots__ = ("ring", "generators", "_basis", "_known_basis", "_monomials",
                 "_initial", "_dim", "_numerator")

    # Read-only, the same for every presentation; perfbench's tracer keys
    # grade calls by it.
    order = GREVLEX

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial] = ()):
        gens = tuple(g for g in generators if g.terms)
        _check_ring(ring, gens)
        self.ring = ring
        self.generators = gens
        self._basis = None
        self._known_basis = None
        self._monomials = False
        self._initial = None
        self._dim = None
        self._numerator = None

    def reduced_basis(self) -> tuple:
        """The reduced grevlex Groebner basis, computed on the first call.
        When its maker knows a Groebner basis of the ideal
        (``_known_basis``: the generators of a ``_principal_quotient``, or
        a stage's reduced basis plus an element with a coprime leading
        monomial, see :func:`cmtensor.invariants._is_nzd_mod`), that basis
        is only minimalized and interreduced: the same basis, with no
        S-pair reduced.  A basis once computed is kept, whatever is known
        later."""
        if self._basis is None:
            if self._known_basis is None:
                self._basis = tuple(buchberger(self.generators))
            else:
                self._basis = tuple(_buchberger(self.ring, self._known_basis, GREVLEX, True))
        return self._basis

    def monomials(self):
        """The ideal's minimal generators, as exponent tuples ascending in
        degree, when every generator is a single term; else None.  Computed
        on the first call and kept, write-once as the basis is."""
        if self._monomials is False:
            gens = self.generators
            if all(len(g.terms) == 1 for g in gens):
                self._monomials = tuple(monomial.minimal(m for g in gens for m in g.terms))
            else:
                self._monomials = None
        return self._monomials

    def initial(self) -> tuple:
        """The minimal generators of the initial ideal in(J), the ideal of
        the leading monomials of J: its minimal monomials when every
        generator is a single term, with no basis built, else the leading
        monomials of its reduced basis.  Computed on the first call and
        kept."""
        if self._initial is None:
            leads = self.monomials()
            if leads is None:
                leads = tuple(g.leading_monomial() for g in self.reduced_basis())
            self._initial = leads
        return self._initial

    def contains(self, f: Polynomial) -> bool:
        """Whether f lies in the ideal.

        When every generator is a single term, f does exactly when some
        minimal generator divides each of its terms (Miller and Sturmfels,
        *Combinatorial Commutative Algebra*, ch. 1): no basis is built and
        no reduction step spent.  Any other ideal takes f's normal form by
        its reduced basis.  A polynomial over another ring is refused with
        the message :func:`normal_form` refuses it with.
        """
        if f.ring is not self.ring and f.ring != self.ring:
            raise AmbientMismatchError(f"polynomial over {self.ring.names} used in {f.ring.names}")
        leads = self.monomials()
        if leads is None:
            return not normal_form(f, self.reduced_basis()).terms
        return all(any(mono_divides(l, m) for l in leads) for m in f.terms)

    def contains_one(self) -> bool:
        """Whether J is the unit ideal: whether in(J) holds 1."""
        leads = self.initial()
        return bool(leads) and not any(leads[0])

    def dim(self) -> int:
        """The Krull dimension of R/J: the variable count minus the
        codimension of in(J) (:func:`cmtensor.monomial.codimension`).
        Computed on the first call and kept; the unit ideal raises
        :class:`ZeroRingError`."""
        if self._dim is None:
            if self.contains_one():
                raise ZeroRingError("presentation collapsed to the zero ring")
            self._dim = self.ring.nvars - monomial.codimension(self.initial())
        return self._dim

    def hilbert_numerator(self) -> dict:
        """The sparse Hilbert numerator of R/J, that of R/in(J)
        (:func:`cmtensor.monomial.hilbert_numerator`).  Computed on the
        first call and kept; callers must not change it."""
        if self._numerator is None:
            self._numerator = monomial.hilbert_numerator(self.initial())
        return self._numerator

    def describe(self) -> str:
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(g.render() for g in self.generators) + ")"

    def __repr__(self):
        return f"<ideal {self.describe()} of {self.ring.describe()}>"


def _common_ring(I1: IdealPresentation, I2: IdealPresentation) -> PolyRing:
    if I1.ring is not I2.ring and I1.ring != I2.ring:
        raise AmbientMismatchError(
            f"ideals over {I1.ring.names} and {I2.ring.names}"
        )
    return I1.ring


def ideal_equal(I1: IdealPresentation, I2: IdealPresentation) -> bool:
    """Whether both presentations generate the same ideal: whether their
    reduced bases are equal."""
    _common_ring(I1, I2)
    return I1.reduced_basis() == I2.reduced_basis()


def ideal_intersection(I1: IdealPresentation, I2: IdealPresentation) -> IdealPresentation:
    """I1 ∩ I2 via the tag-variable construction t*I1 + (1-t)*I2.

    The tag variable t is appended to the ambient and eliminated
    (:func:`eliminate`), so the generators are the tag-free part of the
    reduced block-order basis, ascending in grevlex (the block order on
    tag-free monomials).  Each is moved back by dropping the last exponent
    of each term.  Ideals of single terms take the same path; their
    intersection is the one of :func:`cmtensor.monomial.intersection`.
    """
    ring = _common_ring(I1, I2)
    if not I1.generators or not I2.generators:
        return IdealPresentation(ring)
    ext = ring.extended(ring.fresh_name("_t"))
    t = ext.var(ring.nvars)
    one_minus_t = ext.one - t
    gens = [t * map_variables(f, ext, range(ring.nvars)) for f in I1.generators]
    gens += [one_minus_t * map_variables(g, ext, range(ring.nvars)) for g in I2.generators]
    free = eliminate(IdealPresentation(ext, gens), ext.names[-1:]).generators
    back = (Polynomial(ring, {m[:-1]: c for m, c in g.terms.items()}, _trusted=True) for g in free)
    return IdealPresentation(ring, back)


def _divide(h: Polynomial, g: Polynomial, limit=None):
    """h / g under grevlex when g divides h, else None.

    The division by g alone spends one step per cancelled term, on a fresh
    counter whose limit is `limit`, or the step budget in effect, and
    stops at the first term g does not divide.
    """
    ring = h.ring
    p = ring.field.p
    counter = _StepCounter(limit)

    def run(packing):
        quo = {}
        entry = [_entry_of(g, packing, p)]
        if _reduce(packing.pack_terms(h.terms), entry, packing.guard, p, counter, quo):
            return None
        return Polynomial(ring, packing.unpack_terms(quo), _trusted=True)

    return _widening(ring.nvars, GREVLEX, run)


def _exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h / g for h a multiple of g, on an unbounded step counter."""
    q = _divide(h, g, math.inf)
    if q is None:
        raise ArithmeticError("exact division failed; intersection is inconsistent")
    return q


def _principal_quotient(I: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """(I : g) for one nonzero g: (I ∩ (g)) divided by g.

    Those quotients are a minimal grevlex Groebner basis of (I : g),
    ascending: the generators of I ∩ (g) are its reduced grevlex basis,
    and in(h/g) * in(g) = in(h).  So they are the result's known basis,
    and its reduced basis, when asked for, is only interreduced (see
    :meth:`IdealPresentation.reduced_basis`).  Nothing is computed until
    it is asked for: certificate validation and the stop test read only
    the generators.
    """
    ring = I.ring
    Ig = ideal_intersection(I, IdealPresentation(ring, (g,)))
    Q = IdealPresentation(ring, (_exact_quotient(h, g) for h in Ig.generators))
    Q._known_basis = Q.generators
    return Q


def ideal_quotient(I: IdealPresentation, J: IdealPresentation) -> IdealPresentation:
    """(I : J) = {f : f*J ⊆ I}.

    The quotient by the zero ideal is the whole ring, and a principal J
    gives (I : g) as (I ∩ (g)) divided by g.  For two or more generators,
    (I : J) is the intersection of the (I : g) over the distinct nonzero
    normal forms of J's generators modulo I's reduced basis: (I : g)
    equals (I : NF(g)), and a generator inside I contributes the unit
    ideal, which changes no intersection; a generator of J that is also
    a generator of I is skipped before its normal form is taken.  The
    result is then always the reduced grevlex basis of (I : J) in
    ascending order: an intersection returns the tag-free part of a
    reduced block order basis, a single remaining colon's generators, a
    minimal grevlex basis, are interreduced with no S-pair, and with none
    left the basis is (1).  For a principal J the generators are the
    quotients by g, a minimal grevlex basis, and its reduced basis is
    interreduced from them when first asked for (see
    ``_principal_quotient``).
    """
    ring = _common_ring(I, J)
    if not J.generators:
        return IdealPresentation(ring, (ring.one,))
    if len(J.generators) == 1:
        return _principal_quotient(I, J.generators[0])
    basis = I.reduced_basis()
    reduced = (normal_form(g, basis) for g in J.generators if g not in I.generators)
    left = dict.fromkeys(r.monic() for r in reduced if r.terms)
    if not left:
        return IdealPresentation(ring, (ring.one,))
    parts = [_principal_quotient(I, r) for r in left]
    if len(parts) == 1:
        # (I : r)'s generators are a minimal grevlex basis: interreduce them
        return IdealPresentation(ring, _buchberger(ring, parts[0].generators, GREVLEX, True))
    acc = parts[0]
    for nxt in parts[1:]:
        acc = ideal_intersection(acc, nxt)
    return acc


def eliminate(I: IdealPresentation, front: Iterable[str]) -> IdealPresentation:
    """Generators of I ∩ k[remaining variables], presented in the same ambient.

    Recomputes a basis under block(front, grevlex) and keeps the elements
    free of the front variables: those whose leading monomial is, since
    under the block order a term with a front variable exceeds every term
    without one.
    """
    idxs = sorted({I.ring.index(nm) for nm in front})
    if not idxs:
        return I
    order = block_order(idxs)
    keep = tuple(
        g for g in buchberger(I.generators, order)
        if not any(map(g.leading_monomial(order).__getitem__, idxs))
    )
    return IdealPresentation(I.ring, keep)
