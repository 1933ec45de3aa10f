"""The memo scope and the values kept in it.

A scope is opened by the outermost check, ``grade`` or
``is_cohen_macaulay`` and dropped when it returns.  Inside a scope the
tensor of two presentations, the contraction of an ideal, the grade
certificate of an ideal for a seed and the next stage of a grade chain
are computed once, keyed by the identity of their inputs.  A basis, and
the dimension and Hilbert numerator read off its initial ideal, are
cached only on their ``IdealPresentation``, in a scope or out of one:
``buchberger`` computes on every call, so a stage object shared through
the scope is what saves a basis.  Certificate validation reads no scope
entry.
"""

from __future__ import annotations

import pytest

from cmtensor import (
    GREVLEX,
    AlgebraIdeal,
    PolyRing,
    PrimeField,
    StepBudgetExceeded,
    buchberger,
    contract,
    generate_corpus,
    grade,
    krull_dim,
    limits,
    make_algebra,
    run_all_checks,
    tensor,
    validate_grade_certificate,
)
from cmtensor import algebra, context, groebner, invariants, monomial
from cmtensor.context import _WORK, memo_scope, scope_cached
from cmtensor.groebner import IdealPresentation
from cmtensor.theorems import CHECKS

F = PrimeField()
R3 = PolyRing(("x", "y", "z"), F)


def twisted_cubic_gens():
    # non-coprime leading monomials, so the pair criteria cannot skip
    x, y, z = R3.gens()
    return [x * y - z ** 2, y * z - x ** 2, x * z - y ** 2]


@pytest.fixture
def computed(monkeypatch):
    """Count the bases actually computed."""
    calls = []
    inner = groebner._buchberger

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    return calls


class RecordingMemo(dict):
    """A memo that records every lookup."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_no_memo_outside_a_scope(computed):
    assert _WORK.get().memo is None
    gens = twisted_cubic_gens()
    assert buchberger(gens) == buchberger(gens)
    assert len(computed) == 2


def test_scope_is_dropped_on_return():
    x, y = R3.gens()[:2]
    A = make_algebra(R3, (x * y,))
    grade(A, AlgebraIdeal(A, (x, y)))
    assert _WORK.get().memo is None
    with memo_scope():
        outer = _WORK.get()
        with memo_scope():
            assert _WORK.get() is outer  # nested scopes join, setting nothing
    assert _WORK.get().memo is None


def test_budget_failure_is_not_memoised():
    x, y, z = R3.gens()
    A = make_algebra(R3, twisted_cubic_gens())
    I = AlgebraIdeal(A, (x + y, z))
    J = IdealPresentation(R3, twisted_cubic_gens())
    with memo_scope():
        with limits(step_budget=3):
            with pytest.raises(StepBudgetExceeded):
                J.reduced_basis()
            with pytest.raises(StepBudgetExceeded):
                grade(A, I)
        assert J._basis is None
        assert ("grade", A, I, 0) not in _WORK.get().memo
        basis = J.reduced_basis()
        cert = grade(A, I)
    assert basis == tuple(buchberger(J.generators))
    assert cert == grade(A, I)


def test_buchberger_computes_inside_a_scope(computed):
    gens = twisted_cubic_gens()
    with memo_scope():
        assert buchberger(gens) == buchberger(gens)
        assert not _WORK.get().memo
    assert len(computed) == 2


def test_a_cached_none_is_a_hit():
    runs = []

    def compute():
        runs.append(None)
        return None

    assert scope_cached("nothing", compute) is None
    assert scope_cached("nothing", compute) is None
    assert len(runs) == 2  # outside every scope each call computes
    with memo_scope():
        assert scope_cached("nothing", compute) is None
        assert scope_cached("nothing", compute) is None
    assert len(runs) == 3


def test_memo_hands_out_fresh_lists():
    gens = twisted_cubic_gens()
    with memo_scope():
        first = buchberger(gens)
        first.clear()
        assert buchberger(gens) == buchberger(gens[::-1])
        assert buchberger(gens)


def test_next_stage_is_shared_in_a_scope():
    x, y, z = R3.gens()
    stage = IdealPresentation(R3, (x * y,))
    with memo_scope():
        nxt = invariants._next_stage(stage, x + y)
        assert invariants._next_stage(stage, y + x) is nxt  # an equal f, another object
        assert nxt.generators == (x * y, x + y)
        assert invariants._next_stage(stage, x + z) is not nxt
        assert invariants._next_stage(IdealPresentation(R3, (x * y,)), x + y) is not nxt
    assert invariants._next_stage(stage, x + y) is not invariants._next_stage(stage, x + y)


def test_grades_sharing_a_first_candidate_compute_its_stage_once(computed):
    x, y, z = R3.gens()
    A = make_algebra(R3, (x * y,))
    first, second = AlgebraIdeal(A, (x + y, z)), AlgebraIdeal(A, (x + y, z ** 2))

    def stage_runs():
        # x + y is a nonzerodivisor modulo (xy), so both grades take it first
        return sum(1 for args in computed if args[1] == [x * y, x + y])

    grade(A, first)
    grade(A, second)
    assert stage_runs() == 2  # each grade in a scope of its own
    computed.clear()
    with memo_scope():
        grade(A, first)
        grade(A, second)
    assert stage_runs() == 1


def test_validation_ignores_the_scope_it_is_called_in(monkeypatch):
    x, y, z = R3.gens()
    A = make_algebra(R3, (x * y,))
    I = AlgebraIdeal(A, (x + y, z))
    with memo_scope():
        cert = grade(A, I)

        def refuse(key, compute):
            raise AssertionError(f"validation read the scope at {key[0]!r}")

        for module in (context, invariants, algebra):
            monkeypatch.setattr(module, "scope_cached", refuse)
        validate_grade_certificate(A, I, cert)


def test_validation_reads_nothing_from_the_grade_scope(computed):
    """Validation called in the grade's own scope neither reads nor writes
    an entry there, and computes its bases itself."""
    x, y, z = R3.gens()
    A = make_algebra(R3, (x * y,))
    I = AlgebraIdeal(A, (x + y, z))
    memo = RecordingMemo()
    token = _WORK.set(_WORK.get()._replace(memo=memo))
    try:
        cert = grade(A, I)  # joins the scope opened above
        assert memo and memo.lookups
        entries, lookups = dict(memo), memo.lookups
        computed.clear()
        validate_grade_certificate(A, I, cert)
        assert computed  # validation computed its bases itself
        assert memo.lookups == lookups
        assert memo == entries
        assert _WORK.get().memo is memo
    finally:
        _WORK.reset(token)


def test_validation_runs_under_the_ambient_budget(computed):
    x, y, z = R3.gens()
    A = make_algebra(R3, (x * y,))
    I = AlgebraIdeal(A, (x + y, z))
    with memo_scope():
        cert = grade(A, I)
        entries = dict(_WORK.get().memo)
        computed.clear()
        with limits(step_budget=0), pytest.raises(StepBudgetExceeded):
            validate_grade_certificate(A, I, cert)
        assert computed  # the failing basis was computed, not read from the scope
        assert _WORK.get().memo == entries
        validate_grade_certificate(A, I, cert)


# ---------------------------------------------------------------------------
# Values shared inside a scope: tensor, grade, contraction, dimension


@pytest.fixture
def runs(monkeypatch):
    """Count the bodies run by ``tensor``, ``grade`` and ``contract``, by
    name: memo misses and unscoped calls; and the dimensions computed, as
    ``monomial.codimension`` calls, which a presentation makes once."""
    counts = {"tensor": 0, "grade": 0, "contract": 0, "dim": 0}

    def counting(module, attr, name):
        inner = getattr(module, attr)

        def body(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, attr, body)

    counting(algebra, "_tensor", "tensor")
    counting(invariants, "_grade", "grade")
    counting(algebra, "_contract", "contract")
    counting(monomial, "codimension", "dim")
    return counts


def factors():
    x, y = R3.gens()[:2]
    A = make_algebra(R3, (x * y,))
    B = make_algebra(PolyRing(("u", "v"), F))
    return A, B


def tensor_prime():
    A, B = factors()
    T = tensor(A, B)
    x, u = T.ring.var("x"), T.ring.var("u")
    return T, AlgebraIdeal(T, (x, u))


def test_one_tensor_per_pair_in_a_scope(runs):
    A, B = factors()
    with memo_scope():
        T = tensor(A, B)
        assert tensor(A, B) is T
        assert tensor(B, A) is not T
    assert runs["tensor"] == 2


def test_a_repeated_grade_returns_the_first_certificate(runs):
    A, _ = factors()
    x, y, z = R3.gens()
    I = AlgebraIdeal(A, (x + y, z))
    with memo_scope():
        cert = grade(A, I, 3)
        assert grade(A, I, 3) is cert
        assert runs["grade"] == 1


def test_another_seed_or_ideal_object_grades_afresh(runs):
    A, _ = factors()
    x, y, z = R3.gens()
    I = AlgebraIdeal(A, (x + y, z))
    with memo_scope():
        first = grade(A, I, 3)
        again = grade(A, I, 4)
        twin = grade(A, AlgebraIdeal(A, (x + y, z)), 3)
        assert runs["grade"] == 3
        assert again is not first and twin is not first
    assert again.grade == twin.grade == first.grade


def test_contraction_and_dimension_run_once_in_a_scope(runs):
    T, P = tensor_prime()
    with memo_scope():
        p = contract(P, "left")
        assert contract(P, "left") is p
        q = contract(P, "right")
        assert q is not p and contract(P, "right") is q
        assert krull_dim(T) == krull_dim(T)
    assert runs["contract"] == 2
    assert runs["dim"] == 1


def test_every_call_computes_afresh_outside_a_scope(runs):
    A, B = factors()
    assert tensor(A, B) is not tensor(A, B)
    T, P = tensor_prime()
    assert contract(P, "left") is not contract(P, "left")
    assert krull_dim(T) == krull_dim(T)  # the relations keep their dimension
    I = AlgebraIdeal(A, A.ring.gens())
    assert grade(A, I) is not grade(A, I)
    assert runs == {"tensor": 3, "grade": 2, "contract": 2, "dim": 1}
    assert _WORK.get().memo is None


@pytest.fixture(scope="module")
def reference_instance():
    """The reference corpus's instance with a prime and sequences, so that
    every check runs on it."""
    (inst,) = [i for i in generate_corpus(20260809, 2) if i.tag == "fixed-poly"]
    return inst


def test_run_all_checks_builds_one_tensor(reference_instance, monkeypatch):
    built = []
    init = algebra.TensorAlgebra.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra.TensorAlgebra, "__init__", counting)
    reports = run_all_checks(reference_instance, 5)
    assert len(reports) == len(CHECKS)
    assert len(built) == 1
    assert _WORK.get().memo is None


def test_sharing_leaves_every_report_unchanged(reference_instance):
    inst = reference_instance
    shared = run_all_checks(inst, 5)
    args = {
        "thm_1_1_a": (inst.A, inst.B, inst.I),
        "thm_1_1_b": (inst.A, inst.B, inst.I, inst.J),
        "thm_1_1_c": (inst.A, inst.B, inst.I, inst.J),
        "lemma_1_2": (inst.A, inst.B, inst.xs, inst.ys),
        "prop_2_3_a": (inst.T, inst.P),
        "remark_2_5": (inst.T, inst.P),
        "thm_2_1": (inst.A, inst.B),
    }
    # each check alone, in a scope of its own
    alone = [CHECKS[rep.check_id](*args[rep.check_id], 5) for rep in shared]
    assert [r.to_dict() for r in shared] == [r.to_dict() for r in alone]
