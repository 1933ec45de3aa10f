"""Reduced Groebner bases and the ideal calculus built on them.

Buchberger's algorithm with Gebauer-Moeller pair updates (Gebauer and
Moeller, "On an installation of Buchberger's algorithm", 1988), pairs
selected by sugar under lex and block orders (Giovini et al., "'One sugar
cube, please'", 1991) and by the normal strategy under grevlex and deglex,
full multivariate division, and the derived operations: membership,
equality, sum, product, intersection via a tag variable, quotient, and
elimination.

Monomial input takes exact combinatorial routes (Miller and Sturmfels,
*Combinatorial Commutative Algebra*, 2005, ch. 1), chosen by the shape of
the input alone and returning exactly what the general path returns.  A
basis of single-term generators is their minimal terms with coefficient 1,
and two ideals of single terms intersect in the minimal lcms lcm(m, n);
neither spends a reduction step.  The colon of an ideal of single terms by
one term c*n is generated by the minimal m / gcd(m, n), each with
coefficient 1/c, with no intersection or division.  Division by single
terms drops each divisible term, one step each, as the reducer does.

The reduction loop works on monomials packed into one int each (see
:class:`_Packing`): integer ``<`` is the order, ``+`` the product, and a
guard-bit mask tests divisibility.  Polynomials keep exponent tuples; terms
are packed on entry to the loop and unpacked on exit, and only the
elements of a reduced basis keep their packed form beside their terms.
Fields start 8 bits wide; when a monomial reaches a guard bit, the whole
computation runs again with fields twice as wide on the same step
counter.  No choice depends on the packing (the pairs each update keeps,
pairs by sugar or lcm degree, then lcm degree, lcm, i, j, the largest
term first, the first basis element that divides it), so bases and step
counts are those of the same algorithm on exponent tuples, kept in the
tests as ``reference_buchberger``, plus the steps of any narrower run that
overflowed.

Every operation is pure given its inputs.  An :class:`IdealPresentation`
caches its reduced basis write-once, so concurrent readers of one ideal at
worst duplicate the same computation and publish identical results.

Bases are also memoised by content, but only inside a scope.  The memo is
keyed on (ring, order, set of nonzero generator term maps): the reduced
basis is unique, so the order and repetition of the generators cannot
change it.  It lives in a context variable that :func:`memo_scope` sets
for the outermost scoped call (a theorem check, ``grade``,
``is_cohen_macaulay`` or a regular-sequence test) and drops when that
call returns, so it never outlives one computation.  Outside a scope :func:`buchberger` computes
every basis afresh.  Only successful results are stored: a
``StepBudgetExceeded`` is never memoised, and a memo hit spends no steps.
Certificate validation always opens a fresh scope (``fresh=True``), so it
never reads a basis cached by the run whose certificate it checks.  Other
layers cache their own values in the same scope through
:func:`scope_cached` (the Hilbert numerators of :mod:`cmtensor.invariants`).

The work limits come from a second context variable, set by
:func:`limits`: every basis and every normal form gets a fresh step
counter whose limit is the step budget in effect when it starts, and the
nonzerodivisor search of :mod:`cmtensor.invariants` draws at most the
retry count in effect.  Outside every scope the defaults
``DEFAULT_STEP_BUDGET`` and ``NZD_RETRY_CAP`` apply.  Like the memo, the
limits are per context: a new thread starts with the defaults.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from operator import itemgetter, mul, sub
from typing import NamedTuple

from .errors import AmbientMismatchError, StepBudgetExceeded
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    PolyRing,
    block_order,
    map_variables,
    mono_divides,
    restrict_variables,
)

DEFAULT_STEP_BUDGET = 1_000_000
NZD_RETRY_CAP = 64


class _Limits(NamedTuple):
    step_budget: int = DEFAULT_STEP_BUDGET
    nzd_retries: int = NZD_RETRY_CAP


_LIMITS: ContextVar = ContextVar("cmtensor_limits", default=_Limits())


@contextmanager
def limits(step_budget: int | None = None, nzd_retries: int | None = None):
    """Bound the kernel work run inside the block.

    `step_budget` caps the reduction steps of each Groebner basis and each
    normal form; `nzd_retries` caps the random draws of each
    nonzerodivisor search.  ``None`` keeps the enclosing value, and the
    enclosing limits are restored on exit.
    """
    outer = _LIMITS.get()
    token = _LIMITS.set(
        _Limits(
            outer.step_budget if step_budget is None else step_budget,
            outer.nzd_retries if nzd_retries is None else nzd_retries,
        )
    )
    try:
        yield
    finally:
        _LIMITS.reset(token)


def current_limits() -> _Limits:
    """The limits in effect: those of the innermost :func:`limits` scope."""
    return _LIMITS.get()


# The basis memo of the current scope, or None outside every scope.
_BASIS_MEMO: ContextVar = ContextVar("cmtensor_basis_memo", default=None)
# A key that :func:`scope_cached` has not stored maps to this.
_MISSING = object()


@contextmanager
def memo_scope(fresh: bool = False):
    """Open a basis memo scope, or join the one already open.

    With ``fresh`` a new empty memo is used even inside another scope; the
    enclosing memo is restored on exit.
    """
    if not fresh and _BASIS_MEMO.get() is not None:
        yield
        return
    token = _BASIS_MEMO.set({})
    try:
        yield
    finally:
        _BASIS_MEMO.reset(token)


def scope_cached(key, compute):
    """The value cached under `key` in the current scope, computed on a miss.

    Outside every scope nothing is cached and `compute()` runs each time.
    Only values that were computed without raising are stored; ``None`` is
    a value like any other.
    """
    memo = _BASIS_MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


def memo_scoped(fn):
    """Run `fn` inside a basis memo scope (joining an open one)."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        with memo_scope():
            return fn(*args, **kwargs)

    return scoped


class _StepCounter:
    __slots__ = ("limit", "used")

    def __init__(self, limit: float | None = None):
        self.limit = _LIMITS.get().step_budget if limit is None else limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise StepBudgetExceeded(
                f"reduction step budget of {self.limit} exhausted"
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
    inv = pow(terms[lm], p - 2, p)
    if monic:
        return lm, 1, tuple((m, c * inv % p) for m, c in terms.items() if m != lm)
    return lm, inv, tuple((m, c) for m, c in terms.items() if m != lm)


def _entry_of(g: Polynomial, packing: _Packing, p: int) -> tuple:
    """g's entry: the one its reduced basis made with it, or packed anew."""
    known = getattr(g, "_packed", None)
    if known is not None and known[0] is packing:
        return known[1]
    return _entry(packing.pack_terms(g.terms), p)


def _reduce(work: dict, basis, guard: int, p: int, counter, quotient=None) -> dict:
    """Full division remainder of the packed term map `work` (consumed) by
    the entries `basis`.

    Deterministic: the largest term is always cancelled against the first
    entry whose leading monomial divides it.  Each popped term is checked
    for a guard bit.  When `quotient` is a dict and the basis has one
    entry, the cofactor is accumulated into it.
    """
    rem = {}
    get = work.get
    while work:
        m = max(work)
        if m & guard:
            raise _Overflow
        c = work.pop(m)
        for lm, inv_lc, tail in basis:
            shift = m - lm
            if not shift & guard:
                break
        else:
            rem[m] = c
            continue
        counter.spend()
        factor = c * inv_lc % p
        if quotient is not None:
            quotient[shift] = factor
        for gm, gc in tail:
            t = gm + shift
            v = (get(t, 0) - factor * gc) % p
            if v:
                work[t] = v
            else:
                del work[t]
    return rem


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
) -> Polynomial:
    """Remainder of f under full division by `basis`.

    No term of the result is divisible by a basis leading monomial, and
    f minus the result lies in the ideal the basis generates.
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
    _check_ring(ring, nz)
    counter = _StepCounter()
    p = ring.field.p

    def run(packing):
        entries = [_entry_of(g, packing, p) for g in nz]
        rem = _reduce(packing.pack_terms(f.terms), entries, packing.guard, p, counter)
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
    leading monomial.  Inside a memo scope a basis already computed there
    is returned again.
    """
    nonzero = [g for g in gens if g.terms]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    _check_ring(ring, nonzero)
    if _BASIS_MEMO.get() is None:
        return _buchberger(ring, nonzero, order)
    key = (ring, order, frozenset(frozenset(g.terms.items()) for g in nonzero))
    return list(scope_cached(key, lambda: tuple(_buchberger(ring, nonzero, order))))


def _buchberger(ring, nonzero, order):
    if all(len(g.terms) == 1 for g in nonzero):
        return _monomial_basis(ring, [m for g in nonzero for m in g.terms], order)
    counter = _StepCounter()
    return _widening(
        ring.nvars, order, lambda packing: _packed_buchberger(ring, nonzero, order, packing, counter)
    )


def _monomial_basis(ring, monos, order):
    """The reduced basis of the monomial ideal (monos): its minimal
    generators with coefficient 1, ascending in the order, with no step
    spent.  Each keeps its packed entry, as Buchberger's output does."""

    def run(packing):
        guard = packing.guard
        kept = []
        for lm, m in sorted({packing.pack(m): m for m in monos}.items()):
            if not any(not (lm - k) & guard for k, _ in kept):
                kept.append((lm, m))
        out = []
        for lm, m in kept:
            g = Polynomial(ring, {m: 1}, _trusted=True)._known_lead(order, m)
            g._packed = (packing, (lm, 1, ()))
            out.append(g)
        return out

    return _widening(ring.nvars, order, run)


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
        rem = _reduce(work, basis, guard, p, counter)
        if rem:
            basis.append(_entry(rem, p, monic=True))
            lms.append(basis[-1][0])
            exps.append(packing.unpack(lms[-1]))
            if excess is not None:
                excess.append(sugar - sum(exps[-1]))
            update(len(basis) - 1)

    # Minimalize and interreduce.  Each kept element keeps its leading term
    # under interreduction, so the output stays in the ascending order of
    # the kept leading monomials.
    kept = []
    for entry in sorted(map(basis.__getitem__, live), key=itemgetter(0)):
        if not any(not (entry[0] - k[0]) & guard for k in kept):
            kept.append(entry)
    out = []
    for idx, (lm, _, tail) in enumerate(kept):
        work = dict(tail)
        work[lm] = 1
        rem = _reduce(work, kept[:idx] + kept[idx + 1:], guard, p, counter)
        g = Polynomial(ring, packing.unpack_terms(rem), _trusted=True)
        g._known_lead(order, packing.unpack(lm))
        g._packed = (packing, _entry(rem, p))
        out.append(g)
    return out


class IdealPresentation:
    """Generators plus a lazily cached reduced Groebner basis.

    Zero generators are dropped at construction, so the zero ideal is the
    presentation with no generators.  The cache is write-once.
    """

    __slots__ = ("ring", "generators", "order", "_basis")

    def __init__(
        self,
        ring: PolyRing,
        generators: Iterable[Polynomial] = (),
        order: MonomialOrder = GREVLEX,
    ):
        gens = tuple(g for g in generators if g.terms)
        _check_ring(ring, gens)
        self.ring = ring
        self.generators = gens
        self.order = order
        self._basis = None

    def reduced_basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, self.order))
        return self._basis

    def contains(self, f: Polynomial) -> bool:
        return not normal_form(f, self.reduced_basis(), self.order).terms

    def contains_one(self) -> bool:
        basis = self.reduced_basis()
        return bool(basis) and basis[0].total_degree() == 0

    def is_zero(self) -> bool:
        return not self.generators

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


def ideal_membership(f: Polynomial, I: IdealPresentation) -> bool:
    if f.ring is not I.ring and f.ring != I.ring:
        raise AmbientMismatchError("membership across different ambients")
    return I.contains(f)


def ideal_equal(I1: IdealPresentation, I2: IdealPresentation) -> bool:
    """Whether both presentations generate the same ideal.

    Compares reduced bases under I1's order (recomputing I2's basis when
    its stored order differs).
    """
    _common_ring(I1, I2)
    b1 = list(I1.reduced_basis())
    if I2.order == I1.order:
        b2 = list(I2.reduced_basis())
    else:
        b2 = buchberger(I2.generators, I1.order)
    return b1 == b2


def ideal_sum(I1: IdealPresentation, I2: IdealPresentation) -> IdealPresentation:
    ring = _common_ring(I1, I2)
    return IdealPresentation(ring, I1.generators + I2.generators, I1.order)


def ideal_product(I1: IdealPresentation, I2: IdealPresentation) -> IdealPresentation:
    ring = _common_ring(I1, I2)
    gens = [f * g for f in I1.generators for g in I2.generators]
    return IdealPresentation(ring, gens, I1.order)


def _pad_into(ext: PolyRing, f: Polynomial) -> Polynomial:
    return map_variables(f, ext, range(f.ring.nvars))


def ideal_intersection(I1: IdealPresentation, I2: IdealPresentation) -> IdealPresentation:
    """I1 ∩ I2 via the tag-variable construction t*I1 + (1-t)*I2.

    The tag variable is appended to the ambient, eliminated with a block
    order, and never leaks into the result: the generators are the tag-free
    part of the reduced basis, ascending in grevlex (the block order on
    tag-free monomials).  When every generator of both is a single term,
    that part is the minimal lcms lcm(m, n) with coefficient 1, ascending
    in grevlex, and it is built directly.
    """
    ring = _common_ring(I1, I2)
    if not I1.generators or not I2.generators:
        return IdealPresentation(ring, (), I1.order)
    if all(len(g.terms) == 1 for g in I1.generators + I2.generators):
        lcms = [
            tuple(map(max, m, n)) for f in I1.generators for m in f.terms
            for g in I2.generators for n in g.terms
        ]
        return IdealPresentation(ring, _monomial_basis(ring, lcms, GREVLEX), I1.order)
    ext = ring.extended(ring.fresh_name("_t"))
    ti = ext.nvars - 1
    t = ext.var(ti)
    one_minus_t = ext.one - t
    gens = [t * _pad_into(ext, f) for f in I1.generators]
    gens += [one_minus_t * _pad_into(ext, g) for g in I2.generators]
    basis = buchberger(gens, block_order((ti,)))
    back = [
        restrict_variables(g, ring, range(ring.nvars))
        for g in basis
        if ti not in g.support()
    ]
    return IdealPresentation(ring, back, I1.order)


def _exact_quotient(h: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """h / g for h a multiple of g."""
    ring = h.ring
    p = ring.field.p
    counter = _StepCounter(math.inf)

    def run(packing):
        quo = {}
        entry = [_entry_of(g, packing, p)]
        if _reduce(packing.pack_terms(h.terms), entry, packing.guard, p, counter, quo):
            raise ArithmeticError("exact division failed; intersection is inconsistent")
        return Polynomial(ring, packing.unpack_terms(quo), _trusted=True)

    return _widening(ring.nvars, order, run)


def _principal_quotient(I: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """(I : g) for one nonzero g: (I ∩ (g)) divided by g.

    When g = c*n and every generator of I is a single term, that is the
    minimal m / gcd(m, n) ascending in grevlex, each with coefficient 1/c:
    dividing by n maps the minimal lcms lcm(m, n) of the intersection onto
    them and keeps their order.
    """
    ring = I.ring
    if len(g.terms) == 1 and all(len(h.terms) == 1 for h in I.generators):
        ((n, c),) = g.terms.items()
        quotients = [tuple(map(sub, m, map(min, m, n))) for h in I.generators for m in h.terms]
        basis = _monomial_basis(ring, quotients, GREVLEX)
        if c != 1:
            inv = ring.field.inv(c)
            basis = [Polynomial(ring, {m: inv}, _trusted=True) for h in basis for m in h.terms]
        return IdealPresentation(ring, basis, I.order)
    Ig = ideal_intersection(I, IdealPresentation(I.ring, (g,), I.order))
    return IdealPresentation(
        I.ring,
        tuple(_exact_quotient(h, g, I.order) for h in Ig.generators),
        I.order,
    )


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
    ascending order, whatever I's order: an intersection returns the
    tag-free part of a reduced block order basis, a single remaining colon
    is reduced under grevlex, and with none left the basis is (1).  Each
    (I : g) of single-term I and g is read off the generators (see
    ``_principal_quotient``), so a colon of monomial ideals computes no
    Groebner basis beyond I's own.
    """
    ring = _common_ring(I, J)
    if not J.generators:
        return IdealPresentation(ring, (ring.one,), I.order)
    if len(J.generators) == 1:
        return _principal_quotient(I, J.generators[0])
    basis = I.reduced_basis()
    reduced = (normal_form(g, basis, I.order) for g in J.generators if g not in I.generators)
    left = dict.fromkeys(r.monic(I.order) for r in reduced if r.terms)
    if not left:
        return IdealPresentation(ring, (ring.one,), I.order)
    parts = [_principal_quotient(I, r) for r in left]
    if len(parts) == 1:
        return IdealPresentation(ring, buchberger(parts[0].generators, GREVLEX), I.order)
    acc = parts[0]
    for nxt in parts[1:]:
        acc = ideal_intersection(acc, nxt)
    return acc


def eliminate(I: IdealPresentation, front: Iterable[str]) -> IdealPresentation:
    """Generators of I ∩ k[remaining variables], presented in the same ambient.

    Recomputes a basis under block(front, grevlex) and keeps the elements
    free of the front variables.
    """
    idxs = sorted({I.ring.index(nm) for nm in front})
    if not idxs:
        return I
    basis = buchberger(I.generators, block_order(idxs))
    fs = set(idxs)
    keep = tuple(g for g in basis if not (g.support() & fs))
    return IdealPresentation(I.ring, keep, I.order)
