"""Reduced Groebner bases and the ideal calculus built on them.

Buchberger's algorithm with the normal selection strategy and both pair
criteria (coprime leading monomials, chain), full multivariate division,
and the derived operations: membership, equality, sum, product,
intersection via a tag variable, quotient, and elimination.

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
from typing import NamedTuple

from .errors import AmbientMismatchError, StepBudgetExceeded
from .polyring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    PolyRing,
    block_order,
    map_variables,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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
    Only values that were computed without raising are stored.
    """
    memo = _BASIS_MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key)
    if value is None:
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
        if g.ring != ring:
            raise AmbientMismatchError(
                f"polynomial over {g.ring.names} used in {ring.names}"
            )


class _OrderKeys(dict):
    """Monomial -> order key, each key computed on first use."""

    __slots__ = ("key",)

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.key = order.key

    def __missing__(self, m):
        k = self[m] = self.key(m)
        return k


def _basis_entry(g: Polynomial, order: MonomialOrder):
    lm, lc = g.leading_term(order)
    return lm, g.ring.field.inv(lc), g.terms


def _reduce_terms(ring, f_terms, basis_data, keys, counter, quotient=None):
    """Full division remainder of the term map `f_terms` by `basis_data`.

    Deterministic: the leading reducible term is always cancelled against
    the first basis entry whose leading monomial divides it.  `keys` is an
    :class:`_OrderKeys` of the order, so each monomial's key is computed
    once however often it is compared.  When `quotient` is a dict and the
    basis has one entry, the cofactor is accumulated into it.
    """
    p = ring.field.p
    rank = keys.__getitem__
    work = dict(f_terms)
    rem = {}
    while work:
        m = max(work, key=rank)
        c = work.pop(m)
        for lm, inv_lc, g_terms in basis_data:
            if mono_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        counter.spend()
        shift = mono_div(m, lm)
        factor = (c * inv_lc) % p
        if quotient is not None:
            quotient[shift] = factor
        for gm, gc in g_terms.items():
            if gm == lm:
                continue
            t = mono_mul(gm, shift)
            v = (work.get(t, 0) - factor * gc) % p
            if v:
                work[t] = v
            else:
                work.pop(t, None)
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
    nz = [g for g in basis if g.terms]
    _check_ring(ring, nz)
    data = [_basis_entry(g, order) for g in nz]
    rem = _reduce_terms(ring, f.terms, data, _OrderKeys(order), _StepCounter())
    return Polynomial(ring, rem, _trusted=True)


def _spoly_terms(gi, gj, lmi, lmj, p):
    """S-polynomial term map of two monic polynomials."""
    L = mono_lcm(lmi, lmj)
    si = mono_div(L, lmi)
    sj = mono_div(L, lmj)
    res = {}
    for m, c in gi.terms.items():
        t = mono_mul(m, si)
        res[t] = c
    for m, c in gj.terms.items():
        t = mono_mul(m, sj)
        v = (res.get(t, 0) - c) % p
        if v:
            res[t] = v
        else:
            res.pop(t, None)
    return res


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> list:
    """The unique reduced Groebner basis of the ideal the generators span.

    Zero generators are ignored; the zero ideal yields the empty basis.
    Pairs are selected by minimal lcm degree (normal strategy) and skipped
    via the coprime-leading-monomial and chain criteria.  The returned
    basis is monic, auto-reduced, and sorted ascending by leading monomial.
    Inside a memo scope a basis already computed there is returned again.
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
    p = ring.field.p
    counter = _StepCounter()
    keys = _OrderKeys(order)

    G = [g.monic(order) for g in nonzero]
    data = [_basis_entry(g, order) for g in G]
    lms = [lm for lm, _, _ in data]

    # Pairs are only ever removed by selection, so a heap of the unique
    # selection keys pops them in the order of a minimum over the pending set.
    pending = set()
    queue = []

    def enqueue(i, j):
        L = mono_lcm(lms[i], lms[j])
        pending.add((i, j))
        heapq.heappush(queue, (mono_degree(L), keys[L], i, j, L))

    for j in range(len(G)):
        for i in range(j):
            enqueue(i, j)

    while queue:
        _, _, i, j, L = heapq.heappop(queue)
        pending.remove((i, j))
        if mono_mul(lms[i], lms[j]) == L:
            continue  # coprime leading monomials: S-poly reduces to zero
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if mono_divides(lms[k], L):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True  # chain criterion
                    break
        if skip:
            continue
        counter.spend()
        s_terms = _spoly_terms(G[i], G[j], lms[i], lms[j], p)
        rem = _reduce_terms(ring, s_terms, data, keys, counter)
        if rem:
            r = Polynomial(ring, rem, _trusted=True).monic(order)
            new = len(G)
            G.append(r)
            data.append(_basis_entry(r, order))
            lms.append(data[-1][0])
            for t in range(new):
                enqueue(t, new)

    return _reduced_form(ring, data, order, keys, counter)


def _reduced_form(ring, data, order, keys, counter):
    """Minimalize and interreduce a Groebner basis into its reduced form.

    `data` holds the basis entries of monic elements.  Each kept element
    keeps its leading term under interreduction, so the output stays in
    the ascending leading-monomial order of the kept elements.
    """
    kept = []
    for entry in sorted(data, key=lambda e: keys[e[0]]):
        if not any(mono_divides(k[0], entry[0]) for k in kept):
            kept.append(entry)
    out = []
    for idx, (lm, _, terms) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        rem = _reduce_terms(ring, terms, others, keys, counter)
        out.append(Polynomial(ring, rem, _trusted=True)._known_lead(order, lm))
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
    if I1.ring != I2.ring:
        raise AmbientMismatchError(
            f"ideals over {I1.ring.names} and {I2.ring.names}"
        )
    return I1.ring


def ideal_membership(f: Polynomial, I: IdealPresentation) -> bool:
    if f.ring != I.ring:
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
    order, and never leaks into the result.
    """
    ring = _common_ring(I1, I2)
    if not I1.generators or not I2.generators:
        return IdealPresentation(ring, (), I1.order)
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
    quo = {}
    counter = _StepCounter(math.inf)
    entry = [_basis_entry(g, order)]
    if _reduce_terms(ring, h.terms, entry, _OrderKeys(order), counter, quo):
        raise ArithmeticError("exact division failed; intersection is inconsistent")
    return Polynomial(ring, quo, _trusted=True)


def _principal_quotient(I: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """(I : g) for one nonzero g: (I ∩ (g)) divided by g."""
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
    ideal, which changes no intersection.  The result is then always the
    reduced grevlex basis of (I : J) in ascending order, whatever I's
    order: an intersection returns the tag-free part of a reduced block
    order basis, a single remaining colon is reduced under grevlex, and
    with none left the basis is (1).
    """
    ring = _common_ring(I, J)
    if not J.generators:
        return IdealPresentation(ring, (ring.one,), I.order)
    if len(J.generators) == 1:
        return _principal_quotient(I, J.generators[0])
    basis = I.reduced_basis()
    reduced = (normal_form(g, basis, I.order) for g in J.generators)
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
