from __future__ import annotations

import pytest

from cmtensor import (
    AlgebraIdeal,
    GradedOnlyError,
    KernelError,
    PolyRing,
    PrimeField,
    check_lemma_1_2,
    check_prop_2_3_a,
    check_remark_2_5,
    check_thm_1_1_a,
    check_thm_1_1_b,
    check_thm_1_1_c,
    check_thm_2_1,
    contract,
    embed_ideal,
    generate_corpus,
    grade,
    is_cohen_macaulay,
    is_permutable_regular_sequence,
    make_algebra,
    product_ideal,
    run_all_checks,
    tensor,
)

F = PrimeField()


def poly_algebra(*names):
    return make_algebra(PolyRing(names, F))


def algebra(names, relation_builder):
    ring = PolyRing(names, F)
    return make_algebra(ring, relation_builder(*ring.gens()))


def vars_ideal(A, *names):
    return AlgebraIdeal(A, tuple(A.ring.var(nm) for nm in names))


class TestThm11a:
    def test_regular_variables(self):
        A, B = poly_algebra("x", "y"), poly_algebra("z")
        rep = check_thm_1_1_a(A, B, vars_ideal(A, "x", "y"))
        assert rep.passed and rep.lhs == 2 and rep.rhs == 2

    def test_non_cm_side(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        B = poly_algebra("z")
        rep = check_thm_1_1_a(A, B, vars_ideal(A, "x", "y"))
        assert rep.passed and rep.lhs == 0 == rep.rhs

    def test_artinian_right_factor(self):
        A = poly_algebra("x")
        B = algebra(("y",), lambda y: (y ** 2,))
        rep = check_thm_1_1_a(A, B, vars_ideal(A, "x"))
        assert rep.passed and rep.lhs == 1 == rep.rhs

    def test_improper_skips(self):
        A, B = poly_algebra("x"), poly_algebra("y")
        x = A.ring.var(0)
        rep = check_thm_1_1_a(A, B, AlgebraIdeal(A, (x, x - 1)))
        assert rep.status == "skipped" and "proper" in rep.detail

    def test_certificates_revalidate(self):
        A, B = poly_algebra("x", "y"), poly_algebra("z")
        rep = check_thm_1_1_a(A, B, vars_ideal(A, "x", "y"))
        assert len(rep.certificates) == 2
        for ev in rep.certificates:
            ev.revalidate()


class TestThm11b:
    def test_regular_sum(self):
        A, B = poly_algebra("x", "y"), poly_algebra("z")
        rep = check_thm_1_1_b(A, B, vars_ideal(A, "x", "y"), vars_ideal(B, "z"))
        assert rep.passed and rep.lhs == 3 and rep.rhs == 3

    def test_depth_zero_left(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        B = poly_algebra("z")
        rep = check_thm_1_1_b(A, B, vars_ideal(A, "x", "y"), vars_ideal(B, "z"))
        assert rep.passed and rep.lhs == 1 and rep.rhs == 1

    def test_nilpotent_proper_ideal(self):
        A = algebra(("x",), lambda x: (x ** 2,))
        B = poly_algebra("y")
        rep = check_thm_1_1_b(A, B, vars_ideal(A, "x"), vars_ideal(B, "y"))
        assert rep.passed and rep.lhs == 1 and rep.rhs == 1


class TestThm11c:
    def test_one_by_two(self):
        A, B = poly_algebra("x"), poly_algebra("y", "z")
        rep = check_thm_1_1_c(A, B, vars_ideal(A, "x"), vars_ideal(B, "y", "z"))
        assert rep.passed and rep.lhs == 1 and rep.rhs == 1

    def test_univariate_product(self):
        A, B = poly_algebra("x"), poly_algebra("y")
        rep = check_thm_1_1_c(A, B, vars_ideal(A, "x"), vars_ideal(B, "y"))
        assert rep.passed and rep.lhs == 1

    def test_two_by_two(self):
        A, B = poly_algebra("x", "y"), poly_algebra("u", "v")
        rep = check_thm_1_1_c(A, B, vars_ideal(A, "x", "y"), vars_ideal(B, "u", "v"))
        assert rep.passed and rep.lhs == 2 and rep.rhs == 2

    def test_zero_ideal_skips(self):
        A, B = poly_algebra("x"), poly_algebra("y")
        rep = check_thm_1_1_c(A, B, AlgebraIdeal(A, ()), vars_ideal(B, "y"))
        assert rep.status == "skipped" and "nonzero" in rep.detail

    def test_monotonicity_against_extension(self):
        # the product ideal can never exceed the extended ideal's grade
        A, B = poly_algebra("x", "y"), poly_algebra("u", "v")
        I, J = vars_ideal(A, "x", "y"), vars_ideal(B, "u")
        T = tensor(A, B)
        prod = grade(T, product_ideal(I, J, T)).grade
        ext = grade(T, embed_ideal(I, T, "left")).grade
        assert prod <= ext


class TestLemma12:
    def test_pairs(self):
        A, B = poly_algebra("x", "y"), poly_algebra("u", "v")
        rep = check_lemma_1_2(A, B, A.ring.gens(), B.ring.gens())
        assert rep.passed and rep.lhs is True

    def test_single(self):
        A, B = poly_algebra("x"), poly_algebra("u")
        rep = check_lemma_1_2(A, B, A.ring.gens(), B.ring.gens())
        assert rep.passed

    def test_triples(self):
        A, B = poly_algebra("x", "y", "z"), poly_algebra("u", "v", "w")
        rep = check_lemma_1_2(A, B, A.ring.gens(), B.ring.gens())
        assert rep.passed

    def test_length_mismatch_skips(self):
        A, B = poly_algebra("x", "y"), poly_algebra("u")
        rep = check_lemma_1_2(A, B, A.ring.gens(), B.ring.gens())
        assert rep.status == "skipped" and "length" in rep.detail

    def test_non_permutable_input_skips(self):
        A = poly_algebra("x", "y", "z")
        B = poly_algebra("u", "v", "w")
        x, y, z = A.ring.gens()
        xs = (x, y * (1 - x), z * (1 - x))
        rep = check_lemma_1_2(A, B, xs, B.ring.gens())
        assert rep.status == "skipped" and "permutable" in rep.detail

    def test_proof_step_products_stay_permutable(self):
        # merging the first two entries of a permutable sequence keeps it
        # permutable
        A = poly_algebra("x", "y", "z")
        x, y, z = A.ring.gens()
        assert is_permutable_regular_sequence(A, (x * y, z))

    def test_proof_step_concatenation(self):
        A, B = poly_algebra("x", "y"), poly_algebra("u", "v")
        T = tensor(A, B)
        concat = [
            embed_ideal(AlgebraIdeal(A, (g,)), T, "left").gens[0]
            for g in A.ring.gens()
        ] + [
            embed_ideal(AlgebraIdeal(B, (g,)), T, "right").gens[0]
            for g in B.ring.gens()
        ]
        assert is_permutable_regular_sequence(T, concat)


class TestProp23a:
    def test_full_maximal(self):
        T = tensor(poly_algebra("x"), poly_algebra("y"))
        rep = check_prop_2_3_a(T, AlgebraIdeal(T, T.ring.gens()))
        assert rep.passed and rep.lhs == 2 and rep.rhs == 2
        assert "P asserted prime" in rep.assumptions

    def test_diagonal_prime(self):
        T = tensor(poly_algebra("x"), poly_algebra("y"))
        P = AlgebraIdeal(T, (T.ring.var("x") - T.ring.var("y"),))
        rep = check_prop_2_3_a(T, P)
        assert rep.passed and rep.lhs == 1 and rep.rhs == 1

    def test_mixed_variables(self):
        T = tensor(poly_algebra("x", "y"), poly_algebra("z"))
        P = AlgebraIdeal(T, (T.ring.var("x"), T.ring.var("z")))
        rep = check_prop_2_3_a(T, P)
        assert rep.passed and rep.lhs == 2 and rep.rhs == 2

    def test_requires_tensor(self):
        A = poly_algebra("x")
        with pytest.raises(KernelError):
            check_prop_2_3_a(A, AlgebraIdeal(A, (A.ring.var(0),)))


class TestThm21:
    def test_non_cm_factor_spreads(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        B = poly_algebra("z")
        rep = check_thm_2_1(A, B)
        assert rep.passed and rep.lhs is False and rep.rhs is False

    def test_artinian_product(self):
        A = algebra(("x",), lambda x: (x ** 2,))
        B = algebra(("y",), lambda y: (y ** 3,))
        rep = check_thm_2_1(A, B)
        assert rep.passed and rep.lhs is True and rep.rhs is True

    def test_hypersurface_times_hypersurface(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2 + y ** 2,))
        B = algebra(("u", "v"), lambda u, v: (u * v,))
        rep = check_thm_2_1(A, B)
        assert rep.passed and rep.lhs is True and rep.rhs is True

    def test_graded_only_propagates(self):
        A = algebra(("x",), lambda x: (x ** 2 - 1,))
        with pytest.raises(GradedOnlyError):
            check_thm_2_1(A, poly_algebra("y"))

    def test_certificates_revalidate(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        rep = check_thm_2_1(A, poly_algebra("z"))
        assert len(rep.certificates) == 3
        for ev in rep.certificates:
            ev.revalidate()


class TestRemark25:
    def test_two_variables(self):
        T = tensor(poly_algebra("x"), poly_algebra("y"))
        rep = check_remark_2_5(T, AlgebraIdeal(T, T.ring.gens()))
        assert rep.passed and rep.lhs == 2 and rep.rhs == 2

    def test_three_variables(self):
        T = tensor(poly_algebra("x", "y"), poly_algebra("z"))
        rep = check_remark_2_5(T, AlgebraIdeal(T, T.ring.gens()))
        assert rep.passed and rep.lhs == 3 and rep.rhs == 3

    def test_partial_prime(self):
        T = tensor(poly_algebra("x"), poly_algebra("y", "z"))
        P = AlgebraIdeal(T, (T.ring.var("x"), T.ring.var("y")))
        rep = check_remark_2_5(T, P)
        assert rep.passed and rep.lhs == 2 and rep.rhs == 2

    def test_non_regular_contraction_skips(self):
        A = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
        T = tensor(A, poly_algebra("z"))
        P = AlgebraIdeal(T, (T.ring.var("x"), T.ring.var("y"), T.ring.var("z")))
        rep = check_remark_2_5(T, P)
        assert rep.status == "skipped" and "regular sequence" in rep.detail


class TestCorpus:
    def test_seeded_determinism(self):
        c1 = generate_corpus(seed=1, size_budget=6)
        c2 = generate_corpus(seed=1, size_budget=6)
        assert [i.tag for i in c1] == [i.tag for i in c2]
        assert [i.A.describe() for i in c1] == [i.A.describe() for i in c2]
        assert [i.I.describe() for i in c1] == [i.I.describe() for i in c2]

    def test_fixed_inclusions(self):
        corpus = generate_corpus(seed=99, size_budget=4)
        descriptions = [i.A.describe() for i in corpus]
        assert any("x^2, x*y" in d for d in descriptions)

    def test_labels_are_self_checked(self):
        for inst in generate_corpus(seed=2, size_budget=10):
            for side, alg in (("A", inst.A), ("B", inst.B)):
                expected = f"{side}:cm" in inst.labels
                assert is_cohen_macaulay(alg).is_cm == expected

    def test_primes_are_variable_or_linear_generated(self):
        for inst in generate_corpus(seed=3, size_budget=12):
            if inst.P is None:
                continue
            for g in inst.P.gens:
                assert g.total_degree() == 1

    def test_all_applicable_checks_pass(self):
        for index, inst in enumerate(generate_corpus(seed=5, size_budget=8)):
            for rep in run_all_checks(inst, seed=100 + index):
                assert rep.status != "fail", (inst.tag, rep.check_id, rep.lhs, rep.rhs)

    def test_report_integrity(self):
        inst = generate_corpus(seed=6, size_budget=3)[2]
        for rep in run_all_checks(inst, seed=8):
            for ev in rep.certificates:
                ev.revalidate()


def _hypothesis_env():
    A, B = poly_algebra("x", "y"), poly_algebra("u", "v")
    x, y = A.ring.gens()
    u, v = B.ring.gens()
    non_cm_left = algebra(("x", "y"), lambda x, y: (x ** 2, x * y))
    non_cm_right = algebra(("u", "v"), lambda u, v: (u ** 2, u * v))
    A3, B3 = poly_algebra("x", "y", "z"), poly_algebra("u", "v", "w")
    x3, y3, z3 = A3.ring.gens()
    u3, v3, w3 = B3.ring.gens()
    T = tensor(A, B)
    tx = T.ring.var("x")
    return {
        "A": A, "B": B, "T": T,
        "I": AlgebraIdeal(A, (x,)), "J": AlgebraIdeal(B, (u,)),
        "I_improper": AlgebraIdeal(A, (x, x - 1)), "J_improper": AlgebraIdeal(B, (u, u - 1)),
        "I_zero": AlgebraIdeal(A, ()), "J_zero": AlgebraIdeal(B, ()),
        "P": AlgebraIdeal(T, (tx,)), "P_improper": AlgebraIdeal(T, (tx, tx - 1)),
        "A3": A3, "B3": B3,
        "xs": (x3, y3, z3), "ys": (u3, v3, w3),
        "xs_bad": (x3, y3 * (1 - x3), z3 * (1 - x3)),
        "ys_bad": (u3, v3 * (1 - u3), w3 * (1 - u3)),
        "T_left_non_cm": tensor(non_cm_left, B),
        "T_right_non_cm": tensor(A, non_cm_right),
        "T_both_non_cm": tensor(non_cm_left, non_cm_right),
    }


def _all_vars(T):
    return AlgebraIdeal(T, T.ring.gens())


# (id, call on the environment, exact KernelError text)
HYPOTHESIS_ERRORS = [
    ("a-I-owner", lambda e: check_thm_1_1_a(e["A"], e["B"], e["J"]),
     "I is not an ideal of the given algebra"),
    ("b-I-owner-first", lambda e: check_thm_1_1_b(e["A"], e["B"], e["J"], e["I"]),
     "I is not an ideal of the given algebra"),
    ("b-J-owner", lambda e: check_thm_1_1_b(e["A"], e["B"], e["I"], e["I"]),
     "J is not an ideal of the given algebra"),
    ("c-I-owner-first", lambda e: check_thm_1_1_c(e["A"], e["B"], e["J"], e["I"]),
     "I is not an ideal of the given algebra"),
    ("c-J-owner", lambda e: check_thm_1_1_c(e["A"], e["B"], e["I"], e["I"]),
     "J is not an ideal of the given algebra"),
    ("prop-tensor", lambda e: check_prop_2_3_a(e["A"], e["I"]),
     "prop_2_3_a needs a tensor presentation"),
    ("prop-P-owner", lambda e: check_prop_2_3_a(e["T"], e["I"]),
     "P is not an ideal of the given algebra"),
    ("remark-tensor", lambda e: check_remark_2_5(e["A"], e["I"]),
     "remark_2_5 needs a tensor presentation"),
    ("remark-P-owner", lambda e: check_remark_2_5(e["T"], e["I"]),
     "P is not an ideal of the given algebra"),
    ("embed-side", lambda e: embed_ideal(e["I"], e["T"], "middle"),
     "side must be 'left' or 'right', not 'middle'"),
    ("contract-side", lambda e: contract(e["P"], "middle"),
     "side must be 'left' or 'right', not 'middle'"),
]

# (id, call on the environment, skip clause, keys of the report's inputs)
HYPOTHESIS_SKIPS = [
    ("a-I-proper", lambda e: check_thm_1_1_a(e["A"], e["B"], e["I_improper"]),
     "I must be proper", ["A", "B", "I"]),
    ("b-I-proper-first", lambda e: check_thm_1_1_b(e["A"], e["B"], e["I_improper"], e["J_improper"]),
     "I must be proper", ["A", "B", "I", "J"]),
    ("b-J-proper", lambda e: check_thm_1_1_b(e["A"], e["B"], e["I"], e["J_improper"]),
     "J must be proper", ["A", "B", "I", "J"]),
    ("c-I-proper-before-nonzero", lambda e: check_thm_1_1_c(e["A"], e["B"], e["I_improper"], e["J_zero"]),
     "I must be proper", ["A", "B", "I", "J"]),
    ("c-J-proper-before-nonzero", lambda e: check_thm_1_1_c(e["A"], e["B"], e["I_zero"], e["J_improper"]),
     "J must be proper", ["A", "B", "I", "J"]),
    ("c-I-nonzero", lambda e: check_thm_1_1_c(e["A"], e["B"], e["I_zero"], e["J_zero"]),
     "I must be nonzero", ["A", "B", "I", "J"]),
    ("c-J-nonzero", lambda e: check_thm_1_1_c(e["A"], e["B"], e["I"], e["J_zero"]),
     "J must be nonzero", ["A", "B", "I", "J"]),
    ("lemma-length-first", lambda e: check_lemma_1_2(e["A3"], e["B3"], e["xs_bad"], e["ys_bad"][:2]),
     "sequences must have equal length", ["A", "B", "xs", "ys"]),
    ("lemma-xs", lambda e: check_lemma_1_2(e["A3"], e["B3"], e["xs_bad"], e["ys_bad"]),
     "xs is not a permutable sequence of A", ["A", "B", "xs", "ys"]),
    ("lemma-ys", lambda e: check_lemma_1_2(e["A3"], e["B3"], e["xs"], e["ys_bad"]),
     "ys is not a permutable sequence of B", ["A", "B", "xs", "ys"]),
    ("prop-P-proper", lambda e: check_prop_2_3_a(e["T"], e["P_improper"]),
     "P must be proper", ["T", "P"]),
    ("remark-P-proper", lambda e: check_remark_2_5(e["T"], e["P_improper"]),
     "P must be proper", ["T", "P"]),
    ("remark-p-first", lambda e: check_remark_2_5(e["T_both_non_cm"], _all_vars(e["T_both_non_cm"])),
     "p is not generated by a regular sequence", ["T", "P", "p", "q"]),
    ("remark-p", lambda e: check_remark_2_5(e["T_left_non_cm"], _all_vars(e["T_left_non_cm"])),
     "p is not generated by a regular sequence", ["T", "P", "p", "q"]),
    ("remark-q", lambda e: check_remark_2_5(e["T_right_non_cm"], _all_vars(e["T_right_non_cm"])),
     "q is not generated by a regular sequence", ["T", "P", "p", "q"]),
]


class TestHypotheses:
    """Each check's errors and skip clauses, exactly and in clause order."""

    @pytest.mark.parametrize(
        "call, message", [c[1:] for c in HYPOTHESIS_ERRORS], ids=[c[0] for c in HYPOTHESIS_ERRORS]
    )
    def test_error(self, call, message):
        with pytest.raises(KernelError) as info:
            call(_hypothesis_env())
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, clause, keys", [c[1:] for c in HYPOTHESIS_SKIPS], ids=[c[0] for c in HYPOTHESIS_SKIPS]
    )
    def test_skip(self, call, clause, keys):
        rep = call(_hypothesis_env())
        assert rep.status == "skipped"
        assert rep.detail == f"hypothesis violated: {clause}"
        assert (rep.lhs, rep.rhs, rep.certificates, rep.assumptions) == (None, None, (), ())
        assert list(rep.inputs) == keys

    def test_joined_check_has_no_nonzero_clause(self):
        env = _hypothesis_env()
        rep = check_thm_1_1_b(env["A"], env["B"], env["I_zero"], env["J_zero"])
        assert rep.passed and rep.lhs == 0 == rep.rhs
        assert list(rep.inputs) == ["A", "B", "I", "J", "T"]
