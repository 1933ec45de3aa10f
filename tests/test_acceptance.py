"""Acceptance suite: every criterion runs at its stated size and tolerance
(all equalities exact) and prints one pass/fail line."""

from __future__ import annotations

import random
import time

import pytest

from cmtensor import (
    AlgebraIdeal,
    PolyRing,
    PrimeField,
    check_prop_2_3_a,
    check_thm_1_1_a,
    check_thm_1_1_b,
    check_thm_1_1_c,
    check_thm_2_1,
    check_lemma_1_2,
    embed_ideal,
    generate_corpus,
    grade,
    is_cohen_macaulay,
    is_permutable_regular_sequence,
    krull_dim,
    make_algebra,
)
from cmtensor.groebner import IdealPresentation
from conftest import random_poly
from oracles import dim_subset_oracle, membership_oracle

SEED = 20260809
F = PrimeField()

_collected_evidence = []


def _line(n, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {name}: {status}" + (f" ({extra})" if extra else ""))


@pytest.fixture(scope="module")
def corpus_main():
    return generate_corpus(seed=SEED, size_budget=32)


def test_criterion_1_theorem_1_1_suite(corpus_main):
    started = time.perf_counter()
    counts = {"a": 0, "b": 0, "c": 0}
    for index, inst in enumerate(corpus_main):
        seed = SEED + index
        ra = check_thm_1_1_a(inst.A, inst.B, inst.I, seed)
        rb = check_thm_1_1_b(inst.A, inst.B, inst.I, inst.J, seed)
        rc = check_thm_1_1_c(inst.A, inst.B, inst.I, inst.J, seed)
        for part, rep in (("a", ra), ("b", rb), ("c", rc)):
            assert rep.status == "pass", (inst.tag, part, rep.lhs, rep.rhs, rep.detail)
            assert rep.lhs == rep.rhs
            counts[part] += 1
            _collected_evidence.extend(rep.certificates)
    elapsed = time.perf_counter() - started
    assert all(n >= 30 for n in counts.values()), counts
    assert elapsed < 180.0, f"theorem 1.1 suite took {elapsed:.1f}s"
    _line(1, "theorem-1.1(a,b,c) suite", True,
          f"{counts['a']}/{counts['b']}/{counts['c']} instances, {elapsed:.1f}s")


def test_criterion_2_lemma_1_2_suite():
    corpus = generate_corpus(seed=SEED + 1, size_budget=60)
    with_seqs = [i for i in corpus if i.xs and i.ys]
    assert len(with_seqs) >= 20, len(with_seqs)
    checked = 0
    for index, inst in enumerate(with_seqs):
        assert len(inst.xs) <= 3
        rep = check_lemma_1_2(inst.A, inst.B, inst.xs, inst.ys, SEED + index)
        assert rep.status == "pass", (inst.tag, rep.detail)
        # proof step (1): merging the first two entries keeps permutability
        if len(inst.xs) >= 2:
            merged = (inst.xs[0] * inst.xs[1],) + inst.xs[2:]
            assert is_permutable_regular_sequence(inst.A, merged), inst.tag
        # proof step (2): concatenated embeddings form a permutable sequence
        T = inst.T
        concat = [
            embed_ideal(AlgebraIdeal(inst.A, (x,)), T, "left").gens[0]
            for x in inst.xs[:2]
        ] + [
            embed_ideal(AlgebraIdeal(inst.B, (y,)), T, "right").gens[0]
            for y in inst.ys[:2]
        ]
        assert is_permutable_regular_sequence(T, concat), inst.tag
        checked += 1
    _line(2, "lemma-1.2 suite with proof steps", True, f"{checked} instances")


def test_criterion_3_height_additivity():
    corpus = generate_corpus(seed=SEED + 2, size_budget=30)
    primed = [i for i in corpus if i.P is not None]
    assert len(primed) >= 20, len(primed)
    for index, inst in enumerate(primed):
        assert inst.T.ring.nvars <= 6
        rep = check_prop_2_3_a(inst.T, inst.P, SEED + index)
        assert rep.status == "pass", (inst.tag, rep.lhs, rep.rhs)
        assert rep.lhs == rep.rhs
    _line(3, "proposition-2.3(a) height additivity", True, f"{len(primed)} primes")


def test_criterion_4_cm_transfer():
    corpus = generate_corpus(seed=SEED + 3, size_budget=32)
    cm_pairs = [i for i in corpus if "A:cm" in i.labels and "B:cm" in i.labels]
    mixed = [i for i in corpus if "A:non-cm" in i.labels or "B:non-cm" in i.labels]
    assert len(cm_pairs) >= 10, len(cm_pairs)
    assert len(mixed) >= 10, len(mixed)
    for index, inst in enumerate(cm_pairs):
        rep = check_thm_2_1(inst.A, inst.B, SEED + index)
        assert rep.status == "pass" and rep.lhs is True, inst.tag
        _collected_evidence.extend(rep.certificates)
    for index, inst in enumerate(mixed):
        rep = check_thm_2_1(inst.A, inst.B, SEED + 100 + index)
        assert rep.status == "pass" and rep.lhs is False, inst.tag
        _collected_evidence.extend(rep.certificates)
    _line(4, "theorem-2.1 CM transfer", True,
          f"{len(cm_pairs)} CM pairs, {len(mixed)} non-CM pairs")


def test_criterion_5_certificate_audit():
    evidence = list(_collected_evidence)
    if not evidence:  # allow running this test in isolation
        inst = generate_corpus(seed=SEED, size_budget=3)[0]
        rep = check_thm_1_1_b(inst.A, inst.B, inst.I, inst.J, SEED)
        evidence = list(rep.certificates)
    for ev in evidence:
        ev.revalidate()  # raises CertificateError on any violation
    _line(5, "certificate audit", True, f"{len(evidence)} certificates revalidated")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(SEED + 4)
    # membership against the degree-bounded linear-algebra oracle
    pairs = 0
    while pairs < 200:
        nvars = rng.randint(2, 4)
        ring = PolyRing(tuple("abcd"[:nvars]), F)
        gens = [
            random_poly(rng, ring, max_deg=3, max_terms=2, constant_free=True)
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if g.terms]
        if not gens:
            continue
        if rng.random() < 0.5:
            f = random_poly(rng, ring, max_deg=4, max_terms=3, constant_free=True)
        else:
            f = ring.zero
            for g in gens:
                f = f + random_poly(rng, ring, max_deg=1, max_terms=2) * g
        cap = 4 + max(g.total_degree() for g in gens)
        fast = IdealPresentation(ring, gens).contains(f)
        slow = membership_oracle(f, gens, cap)
        assert fast == slow, (f.render(), [g.render() for g in gens])
        pairs += 1

    # dimension against the exhaustive subset oracle
    presentations = 0
    while presentations < 50:
        nvars = rng.randint(2, 6)
        ring = PolyRing(tuple("abcdef"[:nvars]), F)
        gens = [
            random_poly(rng, ring, max_deg=3, max_terms=2, constant_free=True)
            for _ in range(rng.randint(1, 3))
        ]
        try:
            A = make_algebra(ring, gens)
        except Exception:
            continue
        rels = A.relations
        supports = [
            frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
            for g in rels.reduced_basis()
        ]
        assert krull_dim(A) == dim_subset_oracle(nvars, supports)
        presentations += 1
    _line(6, "oracle equivalence", True, f"{pairs} membership pairs, {presentations} presentations")


def test_criterion_7_determinism(corpus_main):
    seeds = (1, 22, 333, 4444, 55555)
    for inst in corpus_main:
        for algebra, ideal in ((inst.A, inst.I), (inst.B, inst.J)):
            values = {grade(algebra, ideal, seed=s).grade for s in seeds}
            assert len(values) == 1, inst.tag
        extended = embed_ideal(inst.I, inst.T, "left")
        values = {grade(inst.T, extended, seed=s).grade for s in seeds}
        assert len(values) == 1, inst.tag

    from cmtensor.frontend import execute, parse_session

    text = (
        "ring A = poly(x, y) / (x^2, x*y);"
        "ring B = poly(z);"
        "ring T = tensor(A, B);"
        "ideal I = A:(x, y);"
        "ideal J = B:(z);"
        "assert grade(A, I) == 0;"
        "check thm_1_1_b(A, B, I, J);"
        "check thm_2_1(A, B);"
    )
    ast = parse_session(text)
    one = execute(ast, 17).to_json(include_timing=False)
    two = execute(ast, 17).to_json(include_timing=False)
    assert one == two
    _line(7, "determinism across seeds and reruns", True,
          f"{len(corpus_main)} instances x {len(seeds)} seeds")


def test_criterion_8_known_values():
    ring = PolyRing(("x", "y"), F)
    x, y = ring.gens()
    plane = make_algebra(ring)
    assert grade(plane, AlgebraIdeal(plane, (x, y))).grade == 2

    socle = make_algebra(ring, (x ** 2, x * y))
    cert = grade(socle, AlgebraIdeal(socle, (x, y)))
    assert cert.grade == 0
    assert krull_dim(socle) == 1
    assert not is_cohen_macaulay(socle).is_cm

    ring3 = PolyRing(("x", "y", "z"), F)
    x3, y3, z3 = ring3.gens()
    space = make_algebra(ring3)
    cert3 = grade(space, AlgebraIdeal(space, (x3 * y3, x3 * z3)))
    assert cert3.grade == 1
    assert cert3.witness == y3
    _line(8, "known-value spot checks", True)
