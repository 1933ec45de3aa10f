"""Ring-theoretic invariants of presented algebras.

What comes from the initial ideal in(J) of a presentation, the ideal of
its leading monomials, is read off ``IdealPresentation.initial`` and kept
there: the Krull dimension (``IdealPresentation.dim``), the Hilbert
numerator and the unit test.  This module reads them, and in(J) itself
for the coprime-lead test and the stop test's standard monomials.
Grade is computed by extending a regular sequence inside the ideal until
the annihilator stop test fires: (stage : I) strictly above stage yields
the witness a with a ∉ stage and I*a ⊆ stage, which certifies maximality.
A generator of I that is a nonzerodivisor modulo the stage already proves
(stage : I) = stage, so the stop test runs only at a stage where no
generator is one.  The witness is the first element of the reduced
grevlex basis of (stage : I) outside the stage, reduced modulo the stage
and made monic.  For a stage whose generators, and those of I, are
homogeneous, it is found by linear algebra one degree at a time (see
``_colon_witness``).  Let r_i be the distinct nonzero normal forms of I's
generators modulo the stage, and K_e the standard forms a of degree e
with every a * r_i in the stage.  Then (stage : I) equals the stage below
the first degree e with K_e ≠ 0, and in that degree the first basis
element of the colon outside the stage is the element of K_e with the
least leading monomial.  Past a degree cap taken from the input, and for
an inhomogeneous input, the colon ideal itself is computed, by those
normal forms alone (see ``groebner.ideal_quotient``); the witness is the
same polynomial either way.  When the stage is a
monomial ideal and the r_i are single terms, the colon is read off by
:mod:`cmtensor.monomial`, and the witness is its grevlex-least minimal
generator outside the stage.  The stop test is deterministic, so the
random choice of nonzerodivisors can change certificates but never the
grade (Las Vegas, not Monte Carlo).

When the relations and the generators of I are all single terms, every
stage up to the first random draw is a monomial ideal, and ``grade`` runs
those stages on exponent tuples (see ``_monomial_grade``): no stage
basis, normal form or colon is computed, and the sequence and witness
are those of the general loop, which takes over, with its random draws
untouched, at a stage where one is needed.

Whether f is a nonzerodivisor modulo a stage is first read off the
stage's own reduced basis G.  When lm(f) shares no variable with a
leading monomial of G (a generator of in(stage)), it is one: G ∪ {f} is
then a Groebner basis of stage + (f) (Buchberger's product criterion, "A
criterion for detecting unnecessary reductions in the construction of
Groebner bases", 1979), so lm(f) is a nonzerodivisor modulo in(stage),
and so f is one modulo the stage (Eisenbud, *Commutative Algebra*, ch.
15).  The next stage is handed G ∪ {f} as a known Groebner basis, and its
reduced basis is interreduced from it with no S-pair.  A single-term f
over a monomial stage that fails that test is a zerodivisor, and so is an
f that divides a stage generator or an element of G by a cofactor
outside the stage.  The rest is decided by Hilbert series when f and every stage
generator are homogeneous (Bayer and Stillman, "Computation of Hilbert
functions", 1992): for deg f = d >= 1 it is one exactly when
HS(R/(stage + f)) = (1 - t^d) HS(R/stage).  The series are those of the
initial ideals (``IdealPresentation.hilbert_numerator``).  Other inputs
use the colon (stage : f).

Every chain of stages (``grade``, ``is_regular_sequence`` and the Hilbert
test between them) builds stage + (f) through ``_next_stage``, which
inside a memo scope returns one object per stage object and content of f.
A stage keeps its own reduced basis and Hilbert numerator, so the
extended ideal the Hilbert test builds is the stage the loop continues
with, and two grades in one scope that extend a stage by the same element
share the next one.

Certificate validation checks the witness with membership tests, and
each sequence element by a colon or, for a graded certificate (every
generator of its final stage homogeneous), by Hilbert numerators.  It
reads no scope entry and builds every presentation from the certificate's
raw generators, one per stage, and asks each one's
``IdealPresentation.contains``.  A stage whose generators are single terms
answers by divisibility off its minimal monomials (Miller and Sturmfels,
*Combinatorial Commutative Algebra*, ch. 1), and its colon by a term c*n
is :func:`cmtensor.monomial.colon` of n.  Such a stage builds no basis,
takes no normal form and spends no reduction step.  Any other
nonzero element of a graded certificate passes exactly when the Hilbert
numerators of stage i and stage i + 1, computed afresh on those
presentations from their initial ideals, satisfy the exact-sequence
identity of the nonzerodivisor test above: no colon and no tag-variable
intersection.  A zero element and every element of a
certificate that is not graded take ``ideal_quotient`` and normal forms.
So validation checks the stop test and, for a certificate that is not
graded, every route of the nonzerodivisor test from a separate code path;
a graded one shares only the identity with ``_is_nzd_mod``, and the
numerators and bases are its own, none of them handed over by the
coprime-lead route.  It skips only what holds by
construction of those generators: a sequence element that is a generator
of I's lift lies in I, and the witness times a generator of the lift that
is also a generator of the final stage lies in that stage.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Sequence
from typing import NamedTuple

from . import monomial
from .algebra import AlgebraIdeal, AlgebraPresentation, require_proper
from .errors import (
    CertificateError,
    GradedOnlyError,
    ImproperIdealError,
    KernelError,
    NzdSearchExhausted,
    PermutationBoundExceeded,
)
from .context import current_limits, memo_scoped, scope_cached
from .groebner import IdealPresentation, _divide, ideal_quotient, normal_form
from .polyring import GREVLEX, Polynomial, mono_divides, mono_mul

PERMUTATION_BOUND = 5


# ---------------------------------------------------------------------------
# Dimension

def krull_dim(A: AlgebraPresentation) -> int:
    """Krull dimension, read off the initial ideal of the relations and
    kept on them (``IdealPresentation.dim``)."""
    return A.relations.dim()


def dim_quotient(A: AlgebraPresentation, I: AlgebraIdeal) -> int:
    """Dimension of A/I."""
    if not I.is_proper():
        raise ImproperIdealError(f"zero quotient: {I.describe()} is improper")
    return I.lift.dim()


def height(A: AlgebraPresentation, P: AlgebraIdeal) -> int:
    """dim A - dim A/P; the caller asserts equidimensionality of A."""
    return krull_dim(A) - dim_quotient(A, P)


# ---------------------------------------------------------------------------
# Zerodivisors and regular sequences

def _hilbert_regular(numerator: dict, next_numerator: dict, d: int) -> bool:
    """Whether a nonzero form f of degree d is a nonzerodivisor modulo a
    homogeneous ideal J, from the sparse Hilbert numerators of R/J and
    R/(J + f).

    The exact sequence 0 -> (R/(J : f))(-d) -> R/J -> R/(J + f) -> 0 gives
    HS(R/(J + f)) = HS(R/J) - t^d HS(R/(J : f)), and J ⊆ J : f are equal
    exactly when their Hilbert series are, so f is one exactly when
    HS(R/(J + f)) = (1 - t^d) HS(R/J) (Bruns and Herzog, *Cohen-Macaulay
    Rings*, ch. 4).
    """
    return next_numerator == monomial.plus_shifted(numerator, numerator, d, -1)


def _next_stage(stage: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """stage + (f), presented as ``stage.generators + (f,)``.

    Inside a memo scope one object per stage object and content of f, so
    the stage the nonzerodivisor test builds, or hands a known Groebner
    basis, is the one a grade or regular-sequence loop continues with, and
    its basis is computed once.
    """
    return scope_cached(
        ("stage", stage, f),
        lambda: IdealPresentation(stage.ring, stage.generators + (f,)),
    )


def _extension_witness(base: IdealPresentation, Q: IdealPresentation):
    """A reduced generator of Q outside `base`, or None when Q ⊆ base.

    Q always contains `base` here (it is a colon ideal of it), so this
    decides Q = base.
    """
    basis = base.reduced_basis()
    for g in Q.generators:
        r = normal_form(g, basis)
        if r.terms:
            return r.monic()
    return None


def _add_scaled(acc: dict, terms: dict, c: int, p: int) -> None:
    """acc += c * terms over F_p, keeping only nonzero entries."""
    for k, v in terms.items():
        v = (acc.get(k, 0) + c * v) % p
        if v:
            acc[k] = v
        else:
            del acc[k]


def _least_kernel_element(ring, standard, rs, nf_of):
    """The monic a in the span of `standard` (ascending) with every
    NF(a * r) zero and the least leading monomial, or None.

    The images of the standard monomials, keyed by (i, monomial of
    NF(s * r_i)), are eliminated in ascending order against rows keyed by
    their pivot, a row's largest key, each row carrying its combination of
    monomials: an image is reduced while its largest key is a pivot, and
    the first image that reduces to zero gives the kernel element, led by
    its own monomial with coefficient 1.
    """
    p = ring.field.p
    rows = {}
    for s in standard:
        image = {}
        for i, r in enumerate(rs):
            for t, c in r.terms.items():
                _add_scaled(image, {(i, m): v for m, v in nf_of(mono_mul(s, t)).items()}, c, p)
        combo = {s: 1}
        while image:
            pivot = max(image)
            row = rows.get(pivot)
            if row is None:
                break
            c = p - image[pivot]
            _add_scaled(image, row[0], c, p)
            _add_scaled(combo, row[1], c, p)
        else:
            terms = sorted(combo.items(), key=lambda t: GREVLEX.key(t[0]), reverse=True)
            return Polynomial(ring, dict(terms), _trusted=True)
        inv = pow(image[pivot], -1, p)
        rows[pivot] = (
            {k: v * inv % p for k, v in image.items()},
            {k: v * inv % p for k, v in combo.items()},
        )
    return None


def _monomial_witness(ring, leads, survivors):
    """The witness of (M : (survivors)) ⊋ M for a monomial ideal M, or None
    when the colon is M.

    `leads` are the minimal generators of M and `survivors` monomials
    outside it.  The colon is the intersection of the (M : t), and its
    minimal generators (:mod:`cmtensor.monomial`) are its reduced basis, so
    the witness is the grevlex-least of them outside M, with coefficient 1.
    """
    colon = functools.reduce(monomial.intersection, (monomial.colon(leads, t) for t in survivors))
    outside = [q for q in colon if not any(mono_divides(l, q) for l in leads)]
    if not outside:
        return None
    return Polynomial(ring, {min(outside, key=GREVLEX.key): 1}, _trusted=True)


def _colon_witness(stage: IdealPresentation, I: AlgebraIdeal):
    """The witness of (stage : I) ⊋ stage, or None when the colon is the stage.

    The witness is what ``_extension_witness(stage, ideal_quotient(stage,
    I.lift))`` returns: the first generator of Q = (stage : I) outside the
    stage, reduced modulo the stage and made monic.  Those generators are
    a Groebner basis of Q in ascending grevlex order: the reduced one, or
    for an I.lift of one generator g the quotients by g of the reduced
    basis of stage ∩ (g).  When I.lift's generators all lie in the stage,
    Q is the unit ideal and the witness is 1 (None on the zero ring).

    When every generator of the stage and of I.lift is homogeneous, it is
    found by linear algebra one degree at a time, without the colon (the
    Macaulay-matrix view of Lazard, "Groebner bases, Gaussian elimination
    and resolution of systems of algebraic equations", 1983).  Let r_1..r_m be the distinct monic nonzero normal
    forms of I.lift's generators modulo the stage, and K_e the space of
    a in the span of the stage's standard monomials of degree e with every
    NF(a * r_i) = 0; then Q_e = stage_e ⊕ K_e.  At the first degree e with
    K_e ≠ 0, the witness is the monic element of K_e with the least
    leading monomial μ, unique because K_e meets the span of the monomials
    up to μ in one dimension:

    - below e, Q equals the stage, so every basis element of Q of lower
      degree lies in the stage;
    - in degree e, in(Q)_e = in(stage)_e ⊔ in(K_e), and every monomial of
      in(Q) in degree e - 1 lies in in(stage), so μ is a minimal
      generator of in(Q) and some basis element g is led by μ; μ is
      standard, so NF(g) is a nonzero element of K_e led by μ (for the
      reduced basis, g itself: its other terms lie outside in(Q));
    - a basis element of degree e led by m < μ has m ∈ in(stage), and if
      it were outside the stage its normal form would be a nonzero element
      of K_e with every term at most m, below μ: so it lies in the stage;
    - so the first basis element outside the stage is g, and its monic
      normal form is the least element of K_e.

    The standard monomials are those outside in(stage)
    (``IdealPresentation.initial``).  Past degree max(degree of the
    stage's reduced basis, deg r_i) + 2, and for an inhomogeneous input,
    the colon is computed instead.

    When the stage's reduced basis and the r_i are all single terms, Q is
    a monomial ideal and the witness comes from its minimal generators
    (see ``_monomial_witness``).
    """
    basis = stage.reduced_basis()
    # a generator of the stage itself reduces to zero: skip its normal form
    reduced = (normal_form(g, basis) for g in I.lift.generators if g not in stage.generators)
    rs = list(dict.fromkeys(r.monic() for r in reduced if r.terms))
    if not rs:
        return None if stage.contains_one() else stage.ring.one
    leads = stage.initial()
    if all(len(g.terms) == 1 for g in basis + tuple(rs)):
        return _monomial_witness(stage.ring, leads, [m for r in rs for m in r.terms])
    if all(g.is_homogeneous() for g in stage.generators + I.lift.generators):
        ring = stage.ring
        cap = max(g.total_degree() for g in basis + tuple(rs)) + 2
        standard = [(0,) * ring.nvars]
        known = {}

        def nf_of(m):
            terms = known.get(m)
            if terms is None:
                if any(mono_divides(l, m) for l in leads):
                    x = Polynomial(ring, {m: 1}, _trusted=True)
                    terms = normal_form(x, basis).terms
                else:
                    terms = {m: 1}
                known[m] = terms
            return terms

        for _ in range(cap + 1):
            w = _least_kernel_element(ring, standard, rs, nf_of)
            if w is not None:
                return w
            above = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in standard for i in range(ring.nvars)}
            standard = sorted(
                (m for m in above if not any(mono_divides(l, m) for l in leads)),
                key=GREVLEX.key,
            )
    return _extension_witness(stage, ideal_quotient(stage, I.lift))


def _cofactor_outside(stage: IdealPresentation, basis: tuple, f: Polynomial, lead) -> bool:
    """Whether f exactly divides a stage generator or basis element g led
    by a multiple of lm(f) = `lead`, with g/f outside the stage: then
    f * (g/f) = g lies in the stage, and f is a zerodivisor modulo it.

    Each division is bounded by the step budget in effect, as a normal
    form is.
    """
    for g in stage.generators + basis:
        if mono_divides(lead, g.leading_monomial()):
            q = _divide(g, f)
            if q is not None and normal_form(q, basis).terms:
                return True
    return False


def _is_nzd_mod(stage: IdealPresentation, f: Polynomial) -> bool:
    """Whether f is a nonzerodivisor modulo `stage` (true on the zero ring).

    Every caller passes f reduced modulo the stage (its normal form), so a
    zero f is a zerodivisor, unless the stage holds 1.  The stage's reduced
    basis G decides the next two routes:

    - when lm(f) is coprime to every leading monomial of G, the minimal
      generators of in(stage) (``IdealPresentation.initial``), G ∪ {f} is a
      Groebner basis of stage + (f) (Buchberger's product criterion), so
      lm(f) is a nonzerodivisor modulo in(stage), and then f is one modulo
      the stage (Eisenbud, *Commutative Algebra*, ch. 15).  G ∪ {f} is
      handed to ``_next_stage(stage, f)`` as its known Groebner basis, so
      that stage's reduced basis is only interreduced.  A nonzero constant
      f is a unit, and decided here;
    - when G is single terms (the stage is a monomial ideal, G its minimal
      generators) and f is one term, f is a nonzerodivisor exactly when it
      is coprime to them (:func:`cmtensor.monomial.coprime`), so here it
      is a zerodivisor.

    Then f is a zerodivisor when it divides a stage generator or an
    element of G by a cofactor outside the stage (``_cofactor_outside``).
    Otherwise, for homogeneous f of degree d >= 1 over a homogeneous stage,
    the exact sequence 0 -> (R/(stage : f))(-d) -> R/stage -> R/(stage + f)
    -> 0 makes f a nonzerodivisor exactly when
    HS(R/(stage + f)) = (1 - t^d) HS(R/stage), compared through the Hilbert
    numerators of the initial ideals, kept on each presentation.  The
    extended ideal is ``_next_stage(stage, f)``, inside a scope the object
    the caller's loop continues with, so its basis and numerator are
    computed once.  Every other input compares the colon (stage : f) with
    the stage.
    """
    if not f.terms:
        return stage.contains_one()
    basis = stage.reduced_basis()
    lead = f.leading_monomial()
    if monomial.coprime(lead, stage.initial()):
        _next_stage(stage, f)._known_basis = basis + (f,)
        return True
    if len(f.terms) == 1 and all(len(g.terms) == 1 for g in basis):
        return False
    if _cofactor_outside(stage, basis, f, lead):
        return False
    if f.is_homogeneous() and all(g.is_homogeneous() for g in stage.generators):
        return _hilbert_regular(
            stage.hilbert_numerator(), _next_stage(stage, f).hilbert_numerator(), f.total_degree()
        )
    Q = ideal_quotient(stage, IdealPresentation(stage.ring, (f,)))
    return _extension_witness(stage, Q) is None


@memo_scoped
def is_regular_sequence(A: AlgebraPresentation, seq: Sequence[Polynomial]) -> bool:
    """Each element a nonzerodivisor modulo its predecessors, final quotient nonzero.

    Each element f is tested by its normal form r modulo the stage, and the
    next stage is ``_next_stage(stage, r)``: stage + (r) is stage + (f),
    and it is the object the Hilbert test of r built.
    """
    stage = A.relations
    for f in seq:
        r = normal_form(f, stage.reduced_basis())
        if not _is_nzd_mod(stage, r):
            return False
        stage = _next_stage(stage, r)
    return not stage.contains_one()


@memo_scoped
def is_permutable_regular_sequence(A: AlgebraPresentation, seq: Sequence[Polynomial]) -> bool:
    """Regularity under every permutation.

    Over a homogeneous presentation, a sequence of homogeneous elements of
    positive degree is regular in every order once it is regular in one
    (the graded form of Matsumura, *Commutative Ring Theory*, Thm 16.3;
    Bruns and Herzog, *Cohen-Macaulay Rings*, §1.5): such elements lie in
    the irrelevant ideal of a positively graded ring.  Then only the given
    order is tested, at any length.  Every other input is tested in all
    orders, and refused past PERMUTATION_BOUND elements.
    """
    if A.homogeneous and all(f.is_homogeneous() and f.total_degree() > 0 for f in seq):
        return is_regular_sequence(A, seq)
    if len(seq) > PERMUTATION_BOUND:
        raise PermutationBoundExceeded(
            f"sequence of length {len(seq)} exceeds the permutation bound {PERMUTATION_BOUND}"
        )
    return all(is_regular_sequence(A, perm) for perm in itertools.permutations(seq))


# ---------------------------------------------------------------------------
# Grade

class GradeCertificate(NamedTuple):
    """A maximal regular sequence in the ideal plus the annihilator witness.

    `stage_ideals` is the generator chain: relations, then relations plus
    each sequence prefix.  The witness a satisfies a ∉ final stage and
    I*a ⊆ final stage, which proves no further extension exists.
    """

    sequence: tuple
    witness: Polynomial
    stage_ideals: tuple
    grade: int

    def to_dict(self) -> dict:
        return {
            "grade": self.grade,
            "sequence": [f.render() for f in self.sequence],
            "witness": self.witness.render(),
            "stages": [[g.render() for g in stage] for stage in self.stage_ideals],
        }


def _find_nonzerodivisor(stage, pool, rng):
    """A random F_p-combination of `pool` that is a nonzerodivisor mod `stage`.

    Draws at most the ``nzd_retries`` of the enclosing :func:`limits` scope.
    """
    p = stage.ring.field.p
    _, retries = current_limits()
    for _ in range(retries):
        f = stage.ring.zero
        for r in pool:
            f = f + rng.randrange(p) * r
        if f.terms and _is_nzd_mod(stage, f):
            return f
    raise NzdSearchExhausted(
        f"no nonzerodivisor found in {retries} draws; "
        "raise the retry cap or use a larger prime"
    )


def _monomial_grade(relations: IdealPresentation, I: AlgebraIdeal) -> tuple:
    """The stage loop of :func:`grade` on exponent tuples, for relations
    and generators of I that are all single terms.

    Returns the sequence and the witness.  Each stage is a monomial ideal
    M, kept as its minimal generators, starting from those the relations
    keep (``IdealPresentation.monomials``), and the loop gives the general
    loop's answers without its machinery: a generator's normal form is
    itself or zero, as some minimal generator divides it or not; a
    surviving one is a nonzerodivisor exactly when it is coprime to every
    minimal generator (then it joins them, since it can divide none); and
    when none is, the stop test's witness is ``_monomial_witness``'s.  With
    no survivor the witness is 1: every stage lies in the proper ideal
    I.lift.  The witness is None where the general loop must take over,
    with the rng still unused: (M : I) = M, so a random combination is to
    be drawn.
    """
    ring = relations.ring
    leads = list(relations.monomials())
    covered = {i for m in leads for i, e in enumerate(m) if e}
    terms = [(g, m) for g in I.gens for m in g.terms]
    sequence = []
    while True:
        survivors = [(g, m) for g, m in terms if not any(mono_divides(l, m) for l in leads)]
        if not survivors:
            return sequence, ring.one
        for g, m in survivors:
            if not any(m[i] for i in covered):
                break
        else:
            ts = list(dict.fromkeys(m for _, m in survivors))
            return sequence, _monomial_witness(ring, leads, ts)
        sequence.append(g)
        leads.append(m)
        covered.update(i for i, e in enumerate(m) if e)


def _certificate(relations: tuple, sequence: list, witness: Polynomial) -> GradeCertificate:
    """The certificate of a sequence: stage k is the relations plus its
    first k elements."""
    stages = tuple(relations + tuple(sequence[:k]) for k in range(len(sequence) + 1))
    return GradeCertificate(tuple(sequence), witness, stages, len(sequence))


@memo_scoped
def grade(
    A: AlgebraPresentation,
    I: AlgebraIdeal,
    seed: int = 0,
) -> GradeCertificate:
    """Grade of the proper ideal I, with a certificate.

    Extends a regular sequence inside I.  At each stage the generators of
    I, reduced modulo the stage, are tried in order with the principal
    test; the first nonzerodivisor extends the sequence, and it also
    proves (stage : I) = stage.  Only when none is one is the stop test
    run: if (stage : I) is strictly above the stage, its witness proves
    every element of I is a zerodivisor modulo the stage, so the sequence
    is maximal; otherwise random combinations of the reduced generators
    are drawn.  For homogeneous generators the stop test is linear algebra
    in one degree at a time, up to a cap taken from the input, and
    otherwise the colon (stage : I); both give the same witness, the first
    element of the reduced grevlex basis of (stage : I) outside the stage (see ``_colon_witness``).  When the
    relations and the generators of I are all single terms, the stages
    run on exponent tuples until a random draw is needed, with the same
    sequence and witness (see ``_monomial_grade``).
    :func:`validate_grade_certificate` checks the witness with membership
    tests and the sequence with colons, or with Hilbert numerators for a
    graded certificate, reading monomial stages by divisibility.  The
    integer is independent of the seed.

    Inside a memo scope the certificate of the same algebra object, ideal
    object and seed is computed once, and every later call returns it
    without running the stage loop again.
    """
    return scope_cached(("grade", A, I, seed), lambda: _grade(A, I, seed))


def _grade(A: AlgebraPresentation, I: AlgebraIdeal, seed: int) -> GradeCertificate:
    require_proper(I, "ideal")
    stage = A.relations
    relations = stage.generators
    sequence = []
    if all(len(g.terms) == 1 for g in relations + I.gens):
        sequence, w = _monomial_grade(stage, I)
        if w is not None:
            return _certificate(relations, sequence, w)
        stage = IdealPresentation(A.ring, relations + tuple(sequence))
    rng = random.Random(seed)
    while True:
        basis = stage.reduced_basis()
        reduced = [normal_form(g, basis) for g in I.gens]
        pool = [r for r in reduced if r.terms]
        f = next((r for r in pool if _is_nzd_mod(stage, r)), None)
        if f is None:
            w = _colon_witness(stage, I)
            if w is not None:
                return _certificate(relations, sequence, w)
            f = _find_nonzerodivisor(stage, pool, rng)
        if len(sequence) == A.ring.nvars:
            # a regular sequence on S/J is no longer than dim S/J <= nvars
            raise KernelError(
                f"regular sequence longer than {A.ring.nvars}, the number of variables"
            )
        sequence.append(f)
        stage = _next_stage(stage, f)


def validate_grade_certificate(
    A: AlgebraPresentation,
    I: AlgebraIdeal,
    cert: GradeCertificate,
) -> None:
    """Independent revalidation from raw generators; raises CertificateError.

    Uses only divisibility, Hilbert numerators, normal forms and ideal
    quotients over presentations built here from the certificate's raw
    generators, one per stage, never state left over from the grade run:
    nothing it calls reads a memo scope, so it computes every basis and
    numerator itself, even when called inside a scope.  Every membership
    is ``IdealPresentation.contains``, so in a stage, or ``I.lift``, whose
    generators are single terms it is read off by divisibility; for such
    a stage and an element c*n of one term the colon is
    :func:`cmtensor.monomial.colon` of n, so the stage's basis is never
    built.  When every generator of the final stage is homogeneous, every
    other nonzero f_{i+1} of degree d passes exactly when
    N_{i+1} = (1 - t^d) N_i for the Hilbert numerators N_i of stage i (see
    ``_hilbert_regular``), read off its initial ideal
    (``IdealPresentation.hilbert_numerator``): no colon is taken.  Every
    other colon is ``ideal_quotient``'s.  Two facts are read off the raw
    generators instead: a sequence element equal to a generator of
    ``I.lift`` is a member of I, so ``I.lift``'s presentation is built only
    for the first element that is not one, and for a generator g of
    ``I.lift`` that is also a generator of the final stage, witness * g
    lies in (g), inside that stage, so it is not tested.
    """
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
    lift = None
    for i, f in enumerate(cert.sequence):
        if f in generators:
            continue
        if lift is None:
            lift = IdealPresentation(I.lift.ring, generators)
        if not lift.contains(f):
            raise CertificateError(f"sequence element f_{i + 1} lies outside the ideal")

    # one presentation per stage, built in loop order; stage i + 1's serves
    # the Hilbert test of f_{i + 1}, the next step and the witness checks
    graded = all(g.is_homogeneous() for g in cert.stage_ideals[-1])
    base = IdealPresentation(ring, cert.stage_ideals[0])
    for i, f in enumerate(cert.sequence):
        J = IdealPresentation(ring, (f,))  # checks f's ring on every route
        stage = IdealPresentation(ring, cert.stage_ideals[i + 1])
        leads = base.monomials()
        if leads is not None and len(f.terms) == 1:
            (n,) = f.terms
            colon = [Polynomial(ring, {q: 1}, _trusted=True) for q in monomial.colon(leads, n)]
            regular = all(map(base.contains, colon))
        elif graded and f.terms:
            regular = _hilbert_regular(
                base.hilbert_numerator(), stage.hilbert_numerator(), f.total_degree()
            )
        else:
            regular = all(map(base.contains, ideal_quotient(base, J).generators))
        if not regular:
            raise CertificateError(f"f_{i + 1} is a zerodivisor modulo stage {i}")
        base = stage

    if base.contains(cert.witness):
        raise CertificateError("witness lies in the final stage")
    for g in generators:
        if g in base.generators:
            continue
        if not base.contains(cert.witness * g):
            raise CertificateError("witness does not annihilate the ideal")


# ---------------------------------------------------------------------------
# Cohen-Macaulay

class CmVerdict(NamedTuple):
    """Dimension versus depth at the irrelevant maximal ideal."""

    algebra: AlgebraPresentation
    dim: int
    depth: int
    is_cm: bool
    certificate: GradeCertificate


@memo_scoped
def is_cohen_macaulay(
    A: AlgebraPresentation,
    seed: int = 0,
) -> CmVerdict:
    """CM test for graded connected presentations.

    Depth is the grade of the irrelevant ideal (all variables); for a
    homogeneous presentation the algebra is Cohen-Macaulay exactly when
    that depth equals the Krull dimension.
    """
    if not A.homogeneous:
        raise GradedOnlyError(
            "Cohen-Macaulay check supports homogeneous presentations only"
        )
    irrelevant = AlgebraIdeal(A, A.ring.gens())
    cert = grade(A, irrelevant, seed)
    dim = krull_dim(A)
    return CmVerdict(A, dim, cert.grade, dim == cert.grade, cert)
