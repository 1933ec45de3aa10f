"""Independent oracles used to cross-check the kernel.

These deliberately avoid the Groebner code paths: membership is decided
by exact linear algebra mod p over an explicit monomial basis, and
dimension by exhaustive enumeration of variable subsets.  Only the raw
term maps of the inputs are read.

The exceptions are reference implementations rather than oracles, the
straightforward versions built from the kernel's primitives and kept to
pin the optimised ones to them: :func:`reference_buchberger` (Buchberger
on exponent tuples), :func:`reference_quotient` (a colon by every
generator), :func:`reference_is_nzd` (the colon test for every element)
and :func:`reference_grade` (the full colon at every stage).
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from cmtensor.algebra import require_proper
from cmtensor.groebner import (
    IdealPresentation,
    _exact_quotient,
    ideal_intersection,
    normal_form,
)
from cmtensor.invariants import (
    GradeCertificate,
    _extension_witness,
    _find_nonzerodivisor,
)
from cmtensor.polyring import Polynomial, mono_divides, mono_mul


def monomials_up_to(nvars: int, degree: int) -> list:
    """All exponent tuples with total degree <= degree, in a fixed order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    return out


def solvable_mod_p(A: np.ndarray, b: np.ndarray, p: int) -> bool:
    """Consistency of A x = b over F_p by Gaussian elimination."""
    M = np.concatenate([A, b.reshape(-1, 1)], axis=1).astype(np.int64) % p
    rows, cols = M.shape
    r = 0
    for c in range(cols - 1):
        piv = None
        for i in range(r, rows):
            if M[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        mask = np.arange(rows) != r
        factors = M[mask, c].copy()
        M[mask] = (M[mask] - np.outer(factors, M[r])) % p
        r += 1
        if r == rows:
            break
    lead_zero = ~M[:, :-1].any(axis=1)
    return not bool(M[lead_zero, -1].any())


def membership_oracle(f, gens, cap: int) -> bool:
    """Whether f = sum h_i g_i has a solution with deg(h_i g_i) <= cap."""
    ring = f.ring
    p = ring.field.p
    n = ring.nvars
    basis = monomials_up_to(n, cap)
    index = {m: i for i, m in enumerate(basis)}
    cols = []
    for g in gens:
        if not g.terms:
            continue
        gdeg = max(sum(m) for m in g.terms)
        for mult in monomials_up_to(n, cap - gdeg):
            col = np.zeros(len(basis), dtype=np.int64)
            for mono, c in g.terms.items():
                target = tuple(a + b for a, b in zip(mono, mult))
                col[index[target]] = c
            cols.append(col)
    target = np.zeros(len(basis), dtype=np.int64)
    for mono, c in f.terms.items():
        if sum(mono) > cap:
            return False
        target[index[mono]] = c
    if not cols:
        return not target.any()
    return solvable_mod_p(np.stack(cols, axis=1), target, p)


def dim_subset_oracle(nvars: int, lm_supports) -> int:
    """Largest subset S of variables with no leading-monomial support inside S."""
    supports = [frozenset(s) for s in lm_supports]
    best = -1
    for mask in range(1 << nvars):
        S = {i for i in range(nvars) if (mask >> i) & 1}
        if any(supp <= S for supp in supports):
            continue
        if len(S) > best:
            best = len(S)
    return best


def substitute(f, assignments: dict):
    """Evaluate f with some variables replaced by polynomials (term by term)."""
    ring = f.ring
    acc = ring.zero
    for mono, c in f.terms.items():
        piece = ring.const(c)
        for i, e in enumerate(mono):
            if not e:
                continue
            base = assignments.get(i, ring.var(i))
            for _ in range(e):
                piece = piece * base
        acc = acc + piece
    return acc


def reference_quotient(I, J):
    """(I : J) as the intersection of (I : g) over every generator g of J.

    Each (I : g) is (I ∩ (g)) divided by g.  ``ideal_quotient`` must return
    the same generators in the same order.
    """
    ring = I.ring
    if not J.generators:
        return IdealPresentation(ring, (ring.one,), I.order)
    parts = []
    for g in J.generators:
        Ig = ideal_intersection(I, IdealPresentation(ring, (g,), I.order))
        parts.append(
            IdealPresentation(
                ring,
                tuple(_exact_quotient(h, g, I.order) for h in Ig.generators),
                I.order,
            )
        )
    acc = parts[0]
    for nxt in parts[1:]:
        acc = ideal_intersection(acc, nxt)
    return acc


def reference_is_nzd(stage, f):
    """Whether f is a nonzerodivisor modulo `stage`, by the colon (stage : f).

    An f that vanishes modulo the stage is a zerodivisor unless the stage
    ring is zero.
    """
    r = normal_form(f, stage.reduced_basis(), stage.order)
    if not r.terms:
        return stage.contains_one()
    Q = reference_quotient(stage, IdealPresentation(stage.ring, (r,), stage.order))
    return _extension_witness(stage, Q) is None


def reference_grade(A, I, seed=0):
    """Grade with the full colon (stage : I) computed at every stage.

    Colons and nonzerodivisor tests go through :func:`reference_quotient`
    and :func:`reference_is_nzd`; only the random draws use the kernel's.

    The stop test comes first at each stage; only when it does not fire
    are the reduced generators of I tried in order, then random draws.
    ``grade`` must return an equal certificate.
    """
    require_proper(I, "ideal")
    rng = random.Random(seed)
    stage = A.relations
    stages = [stage.generators]
    sequence = []
    while True:
        Q = reference_quotient(stage, I.lift)
        w = _extension_witness(stage, Q)
        if w is not None:
            return GradeCertificate(tuple(sequence), w, tuple(stages), len(sequence))
        basis = stage.reduced_basis()
        reduced = [normal_form(g, basis, stage.order) for g in I.gens]
        pool = [r for r in reduced if r.terms]
        f = next((r for r in pool if reference_is_nzd(stage, r)), None)
        if f is None:
            f = _find_nonzerodivisor(stage, pool, rng)
        sequence.append(f)
        stage = IdealPresentation(A.ring, stage.generators + (f,), stage.order)
        stages.append(stage.generators)


def _mono_div(m1, m2):
    return tuple(a - b for a, b in zip(m1, m2))


def _mono_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _reference_reduce(terms, entries, key, p, steps):
    """Full division remainder of the term map by (lm, 1/lc, terms) entries:
    the largest term first, cancelled against the first entry dividing it."""
    work = dict(terms)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, inv_lc, g_terms in entries:
            if mono_divides(lm, m):
                break
        else:
            rem[m] = c
            continue
        steps[0] += 1
        shift = _mono_div(m, lm)
        factor = c * inv_lc % p
        for gm, gc in g_terms.items():
            if gm != lm:
                t = mono_mul(gm, shift)
                v = (work.get(t, 0) - factor * gc) % p
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
    return rem


def reference_buchberger(gens, order):
    """(reduced basis, reduction steps) by Buchberger on exponent tuples.

    The kernel's algorithm before it packed monomials into integers: the
    same pair order (lcm degree, lcm in the order, i, j), the same
    coprime and chain criteria and the same reducer choices, so
    ``buchberger`` must return an equal basis after as many steps.
    """
    nonzero = [g for g in gens if g.terms]
    if not nonzero:
        return [], 0
    ring = nonzero[0].ring
    p = ring.field.p
    key = order.key
    steps = [0]
    G = [g.monic(order) for g in nonzero]
    entries = [(g.leading_monomial(order), 1, g.terms) for g in G]
    pending, queue = set(), []

    def enqueue(i, j):
        L = _mono_lcm(entries[i][0], entries[j][0])
        pending.add((i, j))
        heapq.heappush(queue, (sum(L), key(L), i, j, L))

    for j in range(len(G)):
        for i in range(j):
            enqueue(i, j)
    while queue:
        _, _, i, j, L = heapq.heappop(queue)
        pending.remove((i, j))
        lmi, lmj = entries[i][0], entries[j][0]
        if mono_mul(lmi, lmj) == L:
            continue
        if any(
            mono_divides(entries[k][0], L)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
            if k not in (i, j)
        ):
            continue
        steps[0] += 1
        si, sj = _mono_div(L, lmi), _mono_div(L, lmj)
        s = {mono_mul(m, si): c for m, c in G[i].terms.items()}
        for m, c in G[j].terms.items():
            t = mono_mul(m, sj)
            v = (s.get(t, 0) - c) % p
            if v:
                s[t] = v
            else:
                s.pop(t, None)
        rem = _reference_reduce(s, entries, key, p, steps)
        if rem:
            r = Polynomial(ring, rem).monic(order)
            G.append(r)
            entries.append((r.leading_monomial(order), 1, r.terms))
            for t in range(len(G) - 1):
                enqueue(t, len(G) - 1)
    kept = []
    for entry in sorted(entries, key=lambda e: key(e[0])):
        if not any(mono_divides(k[0], entry[0]) for k in kept):
            kept.append(entry)
    basis = [
        Polynomial(ring, _reference_reduce(e[2], kept[:i] + kept[i + 1:], key, p, steps))
        for i, e in enumerate(kept)
    ]
    return basis, steps[0]


def reference_normal_form(f, basis, order):
    """Remainder of f under full division by `basis`, on exponent tuples."""
    inv = f.ring.field.inv
    entries = [
        (g.leading_monomial(order), inv(g.leading_coefficient(order)), g.terms)
        for g in basis
        if g.terms
    ]
    return Polynomial(f.ring, _reference_reduce(f.terms, entries, order.key, f.ring.field.p, [0]))
