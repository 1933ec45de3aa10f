"""Theorem checks on concrete inputs, with certificates, plus the corpus.

Each check instantiates one identity between grades or heights, computes
both sides through public operations only (the two sides deliberately
traverse different constructions), and reports pass/fail with embedded
grade certificates.  Hypothesis violations yield status "skipped" with
the violated clause named; a skipped check is not a failed theorem.

Every check has one call shape, its inputs then ``seed``, so ``CHECKS``
can drive any of them the same way.  ``check_lemma_1_2`` and
``check_prop_2_3_a`` are deterministic: they accept ``seed`` but ignore it.
The work limits (reduction steps per basis, nonzerodivisor draws) are
those of the enclosing :func:`cmtensor.context.limits` scope.

Each check, and ``run_all_checks``, runs in one memo scope (see
:mod:`cmtensor.context`), so the values the checks of one instance
repeat are computed once: the tensor of the factors, each grade of an
ideal for the seed, the contractions of the prime, each Krull dimension,
and each stage of a grade or regular-sequence chain.  A stage keeps its
own basis, so a stage two grades share computes its basis once.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .algebra import (
    AlgebraIdeal,
    AlgebraPresentation,
    TensorAlgebra,
    contract,
    embed_ideal,
    joined_ideal,
    make_algebra,
    product_ideal,
    quotient_algebra,
    tensor,
)
from .errors import KernelError
from .context import memo_scoped
from .invariants import (
    GradeCertificate,
    grade,
    height,
    is_cohen_macaulay,
    is_permutable_regular_sequence,
    is_regular_sequence,
    krull_dim,
    validate_grade_certificate,
)
from .polyring import PolyRing, PrimeField

class GradeEvidence(NamedTuple):
    """One grade certificate together with what it certifies."""

    label: str
    algebra: AlgebraPresentation
    ideal: AlgebraIdeal
    certificate: GradeCertificate

    def revalidate(self) -> None:
        validate_grade_certificate(self.algebra, self.ideal, self.certificate)

    def to_dict(self) -> dict:
        return {"label": self.label, **self.certificate.to_dict()}


class TheoremReport(NamedTuple):
    """One identity instantiated on concrete inputs."""

    check_id: str
    inputs: dict
    lhs: object
    rhs: object
    status: str  # pass | fail | skipped
    certificates: tuple = ()
    assumptions: tuple = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "inputs": dict(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "certificates": [e.to_dict() for e in self.certificates],
            "assumptions": list(self.assumptions),
            "detail": self.detail,
        }


def _verdict(check_id, inputs, lhs, rhs, certificates=(), assumptions=()):
    return TheoremReport(
        check_id=check_id,
        inputs=inputs,
        lhs=lhs,
        rhs=rhs,
        status="pass" if lhs == rhs else "fail",
        certificates=tuple(certificates),
        assumptions=tuple(assumptions),
    )


def _skipped(check_id, inputs, clause):
    return TheoremReport(
        check_id=check_id,
        inputs=inputs,
        lhs=None,
        rhs=None,
        status="skipped",
        detail=f"hypothesis violated: {clause}",
    )


def _own_ideal(I: AlgebraIdeal, A: AlgebraPresentation, name: str):
    if I.owner is not A:
        raise KernelError(f"{name} is not an ideal of the given algebra")


def _tensor_grade_check(check_id, A, B, ideals, seed, label, ideal_of, combine, nonzero=False):
    """Theorem 1.1: the grade of `ideal_of(*ideals, T)` in T = A ⊗ B against
    `combine` of the grades of I in A (and of J in B).

    `ideals` is (I,) or (I, J).  Every ideal must be proper and, when
    `nonzero`, also nonzero; I's clause is tested before J's.
    """
    named = tuple(zip(("I", "J"), ideals, (A, B)))
    inputs = {"A": A.describe(), "B": B.describe()}
    for name, ideal, owner in named:
        _own_ideal(ideal, owner, name)
        inputs[name] = ideal.describe()
    for name, ideal, _ in named:
        if not ideal.is_proper():
            return _skipped(check_id, inputs, f"{name} must be proper")
    if nonzero:
        for name, ideal, _ in named:
            if ideal.is_zero():
                return _skipped(check_id, inputs, f"{name} must be nonzero")
    T = tensor(A, B)
    inputs["T"] = T.describe()
    lhs_ideal = ideal_of(*ideals, T)
    lhs = grade(T, lhs_ideal, seed)
    rhs = [grade(owner, ideal, seed) for _, ideal, owner in named]
    sides = ("ideal in the factor",) if len(ideals) == 1 else ("left factor", "right factor")
    return _verdict(
        check_id,
        inputs,
        lhs.grade,
        combine([r.grade for r in rhs]),
        certificates=(
            GradeEvidence(f"lhs: {label}", T, lhs_ideal, lhs),
            *(
                GradeEvidence(f"rhs: {side}", owner, ideal, r)
                for side, (_, ideal, owner), r in zip(sides, named, rhs)
            ),
        ),
    )


@memo_scoped
def check_thm_1_1_a(
    A: AlgebraPresentation,
    B: AlgebraPresentation,
    I: AlgebraIdeal,
    seed: int = 0,
) -> TheoremReport:
    """Grade of the left-extended ideal equals the grade of the ideal."""
    return _tensor_grade_check(
        "thm_1_1_a", A, B, (I,), seed, "extended ideal",
        ideal_of=lambda I, T: embed_ideal(I, T, "left"),
        combine=lambda grades: grades[0],
    )


@memo_scoped
def check_thm_1_1_b(
    A, B, I: AlgebraIdeal, J: AlgebraIdeal, seed: int = 0,
) -> TheoremReport:
    """Grade of the joined ideal equals the sum of the factor grades."""
    return _tensor_grade_check(
        "thm_1_1_b", A, B, (I, J), seed, "joined ideal", ideal_of=joined_ideal, combine=sum,
    )


@memo_scoped
def check_thm_1_1_c(
    A, B, I: AlgebraIdeal, J: AlgebraIdeal, seed: int = 0,
) -> TheoremReport:
    """Grade of the product ideal equals the minimum of the factor grades."""
    return _tensor_grade_check(
        "thm_1_1_c", A, B, (I, J), seed, "product ideal",
        ideal_of=product_ideal, combine=min, nonzero=True,
    )


@memo_scoped
def check_lemma_1_2(A, B, xs, ys, seed: int = 0) -> TheoremReport:
    """Elementwise products of permutable sequences stay permutable in the tensor."""
    inputs = {
        "A": A.describe(),
        "B": B.describe(),
        "xs": "[" + ", ".join(f.render() for f in xs) + "]",
        "ys": "[" + ", ".join(f.render() for f in ys) + "]",
    }
    if len(xs) != len(ys):
        return _skipped("lemma_1_2", inputs, "sequences must have equal length")
    if not is_permutable_regular_sequence(A, xs):
        return _skipped("lemma_1_2", inputs, "xs is not a permutable sequence of A")
    if not is_permutable_regular_sequence(B, ys):
        return _skipped("lemma_1_2", inputs, "ys is not a permutable sequence of B")
    T = tensor(A, B)
    inputs["T"] = T.describe()
    # a regular sequence has no zero entry, so no generator is dropped
    left = embed_ideal(AlgebraIdeal(A, xs), T, "left").gens
    right = embed_ideal(AlgebraIdeal(B, ys), T, "right").gens
    lhs = is_permutable_regular_sequence(T, [f * g for f, g in zip(left, right)])
    return _verdict("lemma_1_2", inputs, lhs, True)


def _contractions(check_id, T, P):
    """The prelude of the checks on a prime P of a tensor T: the inputs and
    the contractions p = P ∩ A and q = P ∩ B, or the skip report when P is
    improper."""
    if not isinstance(T, TensorAlgebra):
        raise KernelError(f"{check_id} needs a tensor presentation")
    _own_ideal(P, T, "P")
    inputs = {"T": T.describe(), "P": P.describe()}
    if not P.is_proper():
        return _skipped(check_id, inputs, "P must be proper")
    p = contract(P, "left")
    q = contract(P, "right")
    inputs["p"] = p.describe()
    inputs["q"] = q.describe()
    return inputs, p, q


@memo_scoped
def check_prop_2_3_a(T: TensorAlgebra, P: AlgebraIdeal, seed: int = 0) -> TheoremReport:
    """Height additivity across the two contractions and the quotient."""
    head = _contractions("prop_2_3_a", T, P)
    if isinstance(head, TheoremReport):
        return head
    inputs, p, q = head
    U = quotient_algebra(T, joined_ideal(p, q, T))
    P_in_U = AlgebraIdeal(U, P.gens)
    lhs = height(T, P)
    rhs = height(T.left, p) + height(T.right, q) + height(U, P_in_U)
    return _verdict(
        "prop_2_3_a",
        inputs,
        lhs,
        rhs,
        assumptions=("P asserted prime", "equidimensional"),
    )


@memo_scoped
def check_thm_2_1(A, B, seed: int = 0) -> TheoremReport:
    """The tensor is Cohen-Macaulay exactly when both factors are."""
    inputs = {"A": A.describe(), "B": B.describe()}
    T = tensor(A, B)
    inputs["T"] = T.describe()
    vt = is_cohen_macaulay(T, seed)
    va = is_cohen_macaulay(A, seed)
    vb = is_cohen_macaulay(B, seed)
    inputs["dims"] = (
        f"T: dim {vt.dim} depth {vt.depth}; A: dim {va.dim} depth {va.depth}; "
        f"B: dim {vb.dim} depth {vb.depth}"
    )
    return _verdict(
        "thm_2_1",
        inputs,
        vt.is_cm,
        va.is_cm and vb.is_cm,
        certificates=(
            GradeEvidence("tensor depth", T, AlgebraIdeal(T, T.ring.gens()), vt.certificate),
            GradeEvidence("left depth", A, AlgebraIdeal(A, A.ring.gens()), va.certificate),
            GradeEvidence("right depth", B, AlgebraIdeal(B, B.ring.gens()), vb.certificate),
        ),
    )


@memo_scoped
def check_remark_2_5(T: TensorAlgebra, P: AlgebraIdeal, seed: int = 0) -> TheoremReport:
    """Grade additivity when both contractions are cut out by regular sequences."""
    head = _contractions("remark_2_5", T, P)
    if isinstance(head, TheoremReport):
        return head
    inputs, p, q = head
    if not is_regular_sequence(T.left, p.gens):
        return _skipped("remark_2_5", inputs, "p is not generated by a regular sequence")
    if not is_regular_sequence(T.right, q.gens):
        return _skipped("remark_2_5", inputs, "q is not generated by a regular sequence")
    U = quotient_algebra(T, joined_ideal(p, q, T))
    P_in_U = AlgebraIdeal(U, P.gens)
    lhs = grade(T, P, seed)
    rp = grade(T.left, p, seed)
    rq = grade(T.right, q, seed)
    ru = grade(U, P_in_U, seed)
    return _verdict(
        "remark_2_5",
        inputs,
        lhs.grade,
        rp.grade + rq.grade + ru.grade,
        certificates=(
            GradeEvidence("lhs: P in the tensor", T, P, lhs),
            GradeEvidence("rhs: left contraction", T.left, p, rp),
            GradeEvidence("rhs: right contraction", T.right, q, rq),
            GradeEvidence("rhs: image in the quotient", U, P_in_U, ru),
        ),
        assumptions=("P asserted prime",),
    )


CHECKS = {
    "thm_1_1_a": check_thm_1_1_a,
    "thm_1_1_b": check_thm_1_1_b,
    "thm_1_1_c": check_thm_1_1_c,
    "lemma_1_2": check_lemma_1_2,
    "prop_2_3_a": check_prop_2_3_a,
    "thm_2_1": check_thm_2_1,
    "remark_2_5": check_remark_2_5,
}
CHECK_IDS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# Corpus generation

LEFT_POOL = ("x", "y", "z", "w")
RIGHT_POOL = ("u", "v", "s", "t")


class CorpusInstance(NamedTuple):
    """One test pair with its ideals, optional prime, and optional sequences."""

    tag: str
    A: AlgebraPresentation
    B: AlgebraPresentation
    T: TensorAlgebra
    I: AlgebraIdeal
    J: AlgebraIdeal
    P: AlgebraIdeal | None = None
    xs: tuple = ()
    ys: tuple = ()
    labels: tuple = ()


def _poly_factor(rng, pool, field):
    n = rng.randint(1, 3)
    ring = PolyRing(pool[:n], field)
    return make_algebra(ring), ("polyring", "cm")


def _ci_factor(rng, pool, field):
    """A verified complete intersection: monomial powers or binomial forms."""
    n = rng.randint(2, 3)
    ring = PolyRing(pool[:n], field)
    gens = ring.gens()
    for _ in range(12):
        count = rng.randint(1, n - 1)
        forms = []
        used = list(range(n))
        rng.shuffle(used)
        for i in range(count):
            d = rng.randint(2, 3)
            if rng.random() < 0.5:
                forms.append(gens[used[i]] ** d)
            else:
                j = rng.randrange(n)
                k = rng.randrange(n)
                other = gens[j] ** (d - 1) * gens[k]
                cand = gens[used[i]] ** d - other
                forms.append(cand if cand.terms else gens[used[i]] ** d)
        base = make_algebra(ring)
        if is_regular_sequence(base, forms):
            return make_algebra(ring, forms), ("ci", "cm")
    # monomial powers on distinct variables are always a regular sequence
    forms = [gens[0] ** 2]
    return make_algebra(ring, forms), ("ci", "cm")


def _artinian_factor(rng, pool, field):
    n = rng.randint(1, 2)
    ring = PolyRing(pool[:n], field)
    gens = ring.gens()
    rels = [g ** rng.randint(2, 3) for g in gens]
    return make_algebra(ring, rels), ("artinian", "ci", "cm")


def _noncm_factor(rng, pool, field):
    n = rng.randint(2, 3)
    ring = PolyRing(pool[:n], field)
    a, b = rng.sample(range(n), 2)
    va, vb = ring.var(a), ring.var(b)
    return make_algebra(ring, (va * va, va * vb)), ("non-cm-family", "non-cm")


def _random_ideal(rng, A: AlgebraPresentation) -> AlgebraIdeal:
    """A proper nonzero homogeneous ideal of A."""
    ring = A.ring
    gens = ring.gens()
    n = ring.nvars
    for _ in range(8):
        style = rng.randrange(4)
        if style < 2:
            # some variables, in style 1 each to a random power
            picks = sorted(rng.sample(range(n), rng.randint(1, n)))
            cand = AlgebraIdeal(
                A, tuple(gens[i] ** rng.randint(1, 2) if style else gens[i] for i in picks)
            )
        elif style == 2 and n >= 3:
            i, j, k = rng.sample(range(n), 3)
            cand = AlgebraIdeal(A, (gens[i] * gens[j], gens[i] * gens[k]))
        else:
            i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            d = rng.randint(1, 2)
            f = gens[i] ** d + rng.randint(1, A.ring.field.p - 1) * gens[j] ** d
            cand = AlgebraIdeal(A, (f,))
        if cand.gens and not cand.is_zero():
            return cand
    return AlgebraIdeal(A, gens)


def _sequence_in(rng, A: AlgebraPresentation, target_len: int) -> tuple:
    """A verified permutable sequence of monomial powers on distinct variables."""
    gens = A.ring.gens()
    order = list(range(A.ring.nvars))
    rng.shuffle(order)
    want = min(target_len, krull_dim(A), len(gens))
    while want > 0:
        seq = tuple(gens[i] ** rng.randint(1, 2) for i in order[:want])
        if is_permutable_regular_sequence(A, seq):
            return seq
        want -= 1
    return ()


def _prime_in(rng, T: TensorAlgebra) -> AlgebraIdeal:
    """A linear/variable-generated prime of T containing the relations."""
    ring = T.ring
    needed = {i for g in T.relations.generators for i in g.support()}
    free = [i for i in range(ring.nvars) if i not in needed]
    extra = [i for i in free if rng.random() < 0.5]
    subset = sorted(needed | set(extra))
    remaining = [i for i in free if i not in extra]
    gens = [ring.var(i) for i in subset]
    left_rem = [i for i in remaining if i in T.left_positions]
    right_rem = [i for i in remaining if i in T.right_positions]
    while left_rem and right_rem and rng.random() < 0.5:
        a = left_rem.pop(rng.randrange(len(left_rem)))
        b = right_rem.pop(rng.randrange(len(right_rem)))
        gens.append(ring.var(a) - ring.var(b))
    return AlgebraIdeal(T, gens)


def _labels_for(side: str, labels) -> tuple:
    return tuple(f"{side}:{lbl}" for lbl in labels)


# (left factor, right factor, alternative right factor): with an
# alternative, one fair draw picks the right factor.  The kinds cycle in
# this order, and only the first three get permutable sequences.
_KINDS = (
    (_poly_factor, _poly_factor, None),
    (_poly_factor, _poly_factor, None),
    (_ci_factor, _poly_factor, _ci_factor),
    (_artinian_factor, _poly_factor, _artinian_factor),
    (_noncm_factor, _poly_factor, None),
    (_noncm_factor, _artinian_factor, _noncm_factor),
)


def _fixed_instances(field) -> list:
    out = []
    # the classic non-CM pairing
    ring_a = PolyRing(("x", "y"), field)
    x, y = ring_a.gens()
    A = make_algebra(ring_a, (x * x, x * y))
    B = make_algebra(PolyRing(("z",), field))
    T = tensor(A, B)
    out.append(
        CorpusInstance(
            tag="fixed-noncm",
            A=A,
            B=B,
            T=T,
            I=AlgebraIdeal(A, (x, y)),
            J=AlgebraIdeal(B, (B.ring.var(0),)),
            labels=("A:non-cm-family", "A:non-cm", "B:polyring", "B:cm"),
        )
    )
    # polynomial rings with a prime and permutable sequences
    ring_l = PolyRing(("x", "y"), field)
    ring_r = PolyRing(("u", "v"), field)
    A2 = make_algebra(ring_l)
    B2 = make_algebra(ring_r)
    T2 = tensor(A2, B2)
    x2, y2 = ring_l.gens()
    u2, v2 = ring_r.gens()
    out.append(
        CorpusInstance(
            tag="fixed-poly",
            A=A2,
            B=B2,
            T=T2,
            I=AlgebraIdeal(A2, (x2, y2)),
            J=AlgebraIdeal(B2, (u2, v2)),
            P=AlgebraIdeal(T2, (T2.ring.var("x"), T2.ring.var("u"))),
            xs=(x2, y2),
            ys=(u2, v2),
            labels=("A:polyring", "A:cm", "B:polyring", "B:cm", "P:prime-linear", "seqs"),
        )
    )
    return out


def generate_corpus(seed: int, size_budget: int, field: PrimeField = PrimeField()) -> list:
    """A deterministic-for-seed mix of factor pairs with ideals and primes.

    Factors stay within 4 variables and relation degree 3; tensors within
    8 ambient variables.  Every CM/non-CM label is self-checked during
    generation, and every prime is variable/linear-generated by
    construction.
    """
    rng = random.Random(seed)
    instances = _fixed_instances(field)
    idx = 0
    while len(instances) < size_budget:
        kind = idx % len(_KINDS)
        idx += 1
        left, right, alternative = _KINDS[kind]
        A, la = left(rng, LEFT_POOL, field)
        if alternative is not None and rng.random() >= 0.5:
            right = alternative
        B, lb = right(rng, RIGHT_POOL, field)
        # label self-check: CM-labeled algebras must verify as CM, and the
        # non-CM family must not.
        for alg, labels in ((A, la), (B, lb)):
            verdict = is_cohen_macaulay(alg, seed=rng.randrange(2**30))
            if verdict.is_cm != ("cm" in labels):
                raise KernelError(
                    f"corpus self-check failed for {alg.describe()}: "
                    f"labels {labels}, is_cm {verdict.is_cm}"
                )
        T = tensor(A, B)
        I = _random_ideal(rng, A)
        J = _random_ideal(rng, B)
        labels = _labels_for("A", la) + _labels_for("B", lb)
        P = None
        if "A:non-cm" not in labels and "B:non-cm" not in labels:
            P = _prime_in(rng, T)
            labels += ("P:prime-linear",)
        xs = ys = ()
        if kind in (0, 1, 2):
            xs = _sequence_in(rng, A, 3)
            ys = _sequence_in(rng, B, 3)
            n = min(len(xs), len(ys))
            xs, ys = xs[:n], ys[:n]
            if xs:
                labels += ("seqs",)
        instances.append(
            CorpusInstance(
                tag=f"pair-{len(instances):03d}",
                A=A, B=B, T=T, I=I, J=J, P=P, xs=xs, ys=ys, labels=labels,
            )
        )
    return instances[:size_budget]


@memo_scoped
def run_all_checks(
    inst: CorpusInstance,
    seed: int = 0,
) -> list:
    """Every check applicable to the instance, in a fixed order."""
    reports = [
        check_thm_1_1_a(inst.A, inst.B, inst.I, seed),
        check_thm_1_1_b(inst.A, inst.B, inst.I, inst.J, seed),
        check_thm_1_1_c(inst.A, inst.B, inst.I, inst.J, seed),
    ]
    if inst.xs and inst.ys:
        reports.append(check_lemma_1_2(inst.A, inst.B, inst.xs, inst.ys, seed))
    if inst.P is not None:
        reports.append(check_prop_2_3_a(inst.T, inst.P, seed))
        reports.append(check_remark_2_5(inst.T, inst.P, seed))
    reports.append(check_thm_2_1(inst.A, inst.B, seed))
    return reports
