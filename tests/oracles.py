"""Independent oracles used to cross-check the kernel.

These deliberately avoid the Groebner code paths: membership is decided
by exact linear algebra mod p over an explicit monomial basis, dimension
by exhaustive enumeration of variable subsets, and reduced bases by
Buchberger on exponent tuples with no pair criterion at all
(:func:`reference_buchberger_all_pairs`).  Only the raw term maps of the
inputs are read.

The exceptions are reference implementations rather than oracles, the
straightforward versions built from the kernel's primitives and kept to
pin the optimised ones to them: :func:`reference_buchberger` (Buchberger
on exponent tuples), :func:`reference_intersection` (the tag variable for
every input, tag-freeness read off every term), :func:`reference_eliminate`
(the same for elimination), :func:`reference_quotient` (a colon by every
generator),
:func:`reference_is_nzd` (the colon test for every element),
:func:`reference_grade` (the full colon at every stage) and
:func:`reference_validate_grade_certificate` (a basis and normal forms for
every stage, monomial or not).
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from cmtensor.errors import CertificateError, ImproperIdealError
from cmtensor.groebner import (
    IdealPresentation,
    _common_ring,
    _exact_quotient,
    _pad_into,
    buchberger,
    ideal_quotient,
    normal_form,
)
from cmtensor.invariants import (
    GradeCertificate,
    _extension_witness,
    _find_nonzerodivisor,
)
from cmtensor.polyring import (
    GREVLEX,
    Polynomial,
    block_order,
    mono_divides,
    mono_mul,
    restrict_variables,
)


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


def reference_intersection(I1, I2):
    """I1 ∩ I2 via the tag-variable construction t*I1 + (1-t)*I2.

    The tag variable is appended to the ambient, eliminated with a block
    order, and never leaks into the result.
    """
    ring = _common_ring(I1, I2)
    if not I1.generators or not I2.generators:
        return IdealPresentation(ring, ())
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
    return IdealPresentation(ring, back)


def reference_eliminate(I, front):
    """Generators of I ∩ k[remaining variables]: the elements of the basis
    under block(front, grevlex) that no front variable occurs in."""
    idxs = sorted({I.ring.index(nm) for nm in front})
    if not idxs:
        return I
    basis = buchberger(I.generators, block_order(idxs))
    fs = set(idxs)
    keep = tuple(g for g in basis if not (g.support() & fs))
    return IdealPresentation(I.ring, keep)


def reference_quotient(I, J):
    """(I : J) as the intersection of (I : g) over every generator g of J.

    Each (I : g) is (I ∩ (g)) divided by g, and every intersection is
    :func:`reference_intersection`'s.  ``ideal_quotient`` must return the
    same generators in the same order.
    """
    ring = I.ring
    if not J.generators:
        return IdealPresentation(ring, (ring.one,))
    parts = []
    for g in J.generators:
        Ig = reference_intersection(I, IdealPresentation(ring, (g,)))
        parts.append(
            IdealPresentation(
                ring,
                tuple(_exact_quotient(h, g) for h in Ig.generators),
            )
        )
    acc = parts[0]
    for nxt in parts[1:]:
        acc = reference_intersection(acc, nxt)
    return acc


def reference_is_nzd(stage, f):
    """Whether f is a nonzerodivisor modulo `stage`, by the colon (stage : f).

    An f that vanishes modulo the stage is a zerodivisor unless the stage
    ring is zero.
    """
    r = normal_form(f, stage.reduced_basis())
    if not r.terms:
        return stage.contains_one()
    Q = reference_quotient(stage, IdealPresentation(stage.ring, (r,)))
    return _extension_witness(stage, Q) is None


def reference_grade(A, I, seed=0):
    """Grade with the full colon (stage : I) computed at every stage.

    Colons and nonzerodivisor tests go through :func:`reference_quotient`
    and :func:`reference_is_nzd`; only the random draws use the kernel's.

    The stop test comes first at each stage; only when it does not fire
    are the reduced generators of I tried in order, then random draws.
    ``grade`` must return an equal certificate.  Properness is decided by
    the basis of ``I.lift``, not by the kernel's constant-term test.
    """
    if I.lift.contains_one():
        raise ImproperIdealError(f"ideal {I.describe()} is not proper")
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
        reduced = [normal_form(g, basis) for g in I.gens]
        pool = [r for r in reduced if r.terms]
        f = next((r for r in pool if reference_is_nzd(stage, r)), None)
        if f is None:
            f = _find_nonzerodivisor(stage, pool, rng)
        sequence.append(f)
        stage = IdealPresentation(A.ring, stage.generators + (f,))
        stages.append(stage.generators)


def reference_validate_grade_certificate(A, I, cert):
    """Certificate validation with a reduced basis and normal forms for
    every stage: colons by ``ideal_quotient``, membership by normal forms.
    ``validate_grade_certificate`` must pass exactly when this passes, and
    otherwise raise the same exception with the same message."""
    ring = A.ring
    if cert.grade != len(cert.sequence):
        raise CertificateError("grade differs from the sequence length")
    if len(cert.stage_ideals) != cert.grade + 1:
        raise CertificateError("stage chain length is inconsistent")
    if cert.stage_ideals[0] != A.relations.generators:
        raise CertificateError("stage chain does not start at the relations")
    for i, f in enumerate(cert.sequence):
        if cert.stage_ideals[i + 1] != cert.stage_ideals[i] + (f,):
            raise CertificateError(f"stage {i + 1} is not the previous stage plus f_{i + 1}")

    generators = I.lift.generators
    lift_basis = None
    for i, f in enumerate(cert.sequence):
        if f in generators:
            continue
        if lift_basis is None:
            lift_basis = buchberger(generators)
        if normal_form(f, lift_basis).terms:
            raise CertificateError(f"sequence element f_{i + 1} lies outside the ideal")

    for i, f in enumerate(cert.sequence):
        base = IdealPresentation(ring, cert.stage_ideals[i])
        Q = ideal_quotient(base, IdealPresentation(ring, (f,)))
        basis = base.reduced_basis()
        for g in Q.generators:
            if normal_form(g, basis).terms:
                raise CertificateError(
                    f"f_{i + 1} is a zerodivisor modulo stage {i}"
                )

    final = IdealPresentation(ring, cert.stage_ideals[-1])
    final_basis = final.reduced_basis()
    if not normal_form(cert.witness, final_basis).terms:
        raise CertificateError("witness lies in the final stage")
    for g in generators:
        if g in final.generators:
            continue
        if normal_form(cert.witness * g, final_basis).terms:
            raise CertificateError("witness does not annihilate the ideal")


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


def _reference_interreduced(ring, entries, live, key, p, steps):
    """The reduced basis from the Groebner basis entries[k] for k in live:
    minimalize in ascending leading monomial order, then divide each kept
    element, in that order, by the reduced elements below it (no larger
    leading monomial divides a term below its own)."""
    kept = []
    for entry in sorted((entries[k] for k in live), key=lambda e: key(e[0])):
        if not any(mono_divides(k[0], entry[0]) for k in kept):
            kept.append(entry)
    reduced = []
    for lm, _, terms in kept:
        reduced.append((lm, 1, _reference_reduce(terms, reduced, key, p, steps)))
    return [Polynomial(ring, e[2]) for e in reduced]


def _reference_spoly(f, g, L, p):
    """The S-polynomial of the monic entries f and g, whose lcm is L."""
    sf = _mono_div(L, f[0])
    sg = _mono_div(L, g[0])
    s = {mono_mul(m, sf): c for m, c in f[2].items()}
    for m, c in g[2].items():
        t = mono_mul(m, sg)
        v = (s.get(t, 0) - c) % p
        if v:
            s[t] = v
        else:
            s.pop(t, None)
    return s


def reference_buchberger(gens, order):
    """(reduced basis, reduction steps) by Buchberger on exponent tuples.

    The kernel's algorithm without packed monomials: the same Gebauer-Moeller
    update (new pairs, the oldest partner among equal lcms, coprime pairs
    as dividers only, old pairs deleted, elements retired), the same pair
    order (sugar for lex and block orders, then lcm degree, lcm in the
    order, i, j) and the same reducer choices, so ``buchberger`` must
    return an equal basis after as many steps.  Single-term generators
    take the kernel's monomial route: their minimal terms, no step spent.
    """
    nonzero = [g for g in gens if g.terms]
    if not nonzero:
        return [], 0
    ring = nonzero[0].ring
    p = ring.field.p
    key = order.key
    if all(len(g.terms) == 1 for g in nonzero):
        # single terms: the minimal ones with coefficient 1, no step spent
        kept = []
        for m in sorted({m for g in nonzero for m in g.terms}, key=key):
            if not any(mono_divides(k, m) for k in kept):
                kept.append(m)
        return [Polynomial(ring, {m: 1}) for m in kept], 0
    steps = [0]
    G = [g.monic(order) for g in nonzero]
    entries = [(g.leading_monomial(order), 1, g.terms) for g in G]
    sugar = [g.total_degree() for g in G]
    use_sugar = order.kind in ("lex", "block")
    live, pairs, queue = [], {}, []

    def update(h):
        lmh = entries[h][0]

        def lcm(k):
            return _mono_lcm(entries[k][0], lmh)

        for (a, b), L in list(pairs.items()):
            if mono_divides(lmh, L) and L != lcm(a) and L != lcm(b):
                del pairs[a, b]
        news = [(lcm(i), i) for i in live]
        for L, i in news:
            if any(mono_divides(M, L) and (M != L or k < i) for M, k in news):
                continue
            if mono_mul(entries[i][0], lmh) == L:
                continue
            pairs[i, h] = L
            d = sum(L)
            s = max(sugar[k] + d - sum(entries[k][0]) for k in (i, h)) if use_sugar else d
            heapq.heappush(queue, (s, d, key(L), i, h))
        live[:] = [k for k in live if not mono_divides(lmh, entries[k][0])]
        live.append(h)

    for h in range(len(entries)):
        update(h)
    while queue:
        s, _, _, i, j = heapq.heappop(queue)
        L = pairs.pop((i, j), None)
        if L is None:
            continue
        steps[0] += 1
        rem = _reference_reduce(_reference_spoly(entries[i], entries[j], L, p), entries, key, p, steps)
        if rem:
            r = Polynomial(ring, rem).monic(order)
            entries.append((r.leading_monomial(order), 1, r.terms))
            sugar.append(s)
            update(len(entries) - 1)
    return _reference_interreduced(ring, entries, live, key, p, steps), steps[0]


def reference_buchberger_all_pairs(gens, order):
    """The reduced basis by Buchberger with no criterion at all.

    Every pair of elements is reduced, the pairs of each new remainder
    included, least sugar first; then the basis is minimalized and
    interreduced.  It shares no code with the kernel's pair handling or
    its reducer.
    """
    nonzero = [g for g in gens if g.terms]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    key = order.key
    entries, sugar, queue = [], [], []

    def add(g, s):
        g = g.monic(order)
        lm = g.leading_monomial(order)
        for i, e in enumerate(entries):
            L = _mono_lcm(e[0], lm)
            d = sum(L)
            s_pair = max(sugar[i] + d - sum(e[0]), s + d - sum(lm))
            heapq.heappush(queue, (s_pair, d, key(L), i, len(entries), L))
        entries.append((lm, 1, g.terms))
        sugar.append(s)

    for g in nonzero:
        add(g, g.total_degree())
    while queue:
        s, *_, i, j, L = heapq.heappop(queue)
        spoly = _reference_spoly(entries[i], entries[j], L, ring.field.p)
        rem = _reference_reduce(spoly, entries, key, ring.field.p, [0])
        if rem:
            add(Polynomial(ring, rem), s)
    return _reference_interreduced(ring, entries, range(len(entries)), key, ring.field.p, [0])


def reference_normal_form(f, basis, order, steps=None):
    """Remainder of f under full division by `basis`, on exponent tuples.

    `steps`, when given, is a one-item list that the division's reduction
    steps are added to."""
    inv = f.ring.field.inv
    entries = [
        (g.leading_monomial(order), inv(g.leading_term(order)[1]), g.terms)
        for g in basis
        if g.terms
    ]
    rem = _reference_reduce(f.terms, entries, order.key, f.ring.field.p, steps or [0])
    return Polynomial(f.ring, rem)
