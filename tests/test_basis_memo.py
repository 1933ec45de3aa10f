"""The scoped, content-addressed basis memo of ``buchberger``.

A scope is opened by the outermost check, ``grade`` or
``is_cohen_macaulay`` and dropped when it returns; certificate validation
always works in a fresh scope of its own.
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
    grade,
    limits,
    make_algebra,
    validate_grade_certificate,
)
from cmtensor import groebner
from cmtensor.groebner import _BASIS_MEMO, memo_scope, scope_cached

F = PrimeField()
R3 = PolyRing(("x", "y", "z"), F)


def twisted_cubic_gens():
    # non-coprime leading monomials, so the pair criteria cannot skip
    x, y, z = R3.gens()
    return [x * y - z ** 2, y * z - x ** 2, x * z - y ** 2]


@pytest.fixture
def computed(monkeypatch):
    """Count the bases actually computed (memo misses and unscoped calls)."""
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
    assert _BASIS_MEMO.get() is None
    gens = twisted_cubic_gens()
    assert buchberger(gens) == buchberger(gens)
    assert len(computed) == 2


def test_scope_is_dropped_on_return():
    x, y = R3.gens()[:2]
    A = make_algebra(R3, (x * y,))
    grade(A, AlgebraIdeal(A, (x, y)))
    assert _BASIS_MEMO.get() is None
    with memo_scope():
        outer = _BASIS_MEMO.get()
        with memo_scope():
            assert _BASIS_MEMO.get() is outer  # nested scopes join
    assert _BASIS_MEMO.get() is None


def test_budget_failure_is_not_memoised(computed):
    gens = twisted_cubic_gens()
    with memo_scope():
        with limits(step_budget=3), pytest.raises(StepBudgetExceeded):
            buchberger(gens, GREVLEX)
        assert not _BASIS_MEMO.get()
        basis = buchberger(gens, GREVLEX)
    assert basis == buchberger(gens, GREVLEX)
    assert len(computed) == 3  # the failure, the scoped success, the unscoped call


def test_permuted_and_repeated_generators_share_an_entry(computed):
    gens = twisted_cubic_gens()
    with memo_scope():
        first = buchberger(gens)
        again = buchberger(gens[::-1] + [gens[1], R3.zero])
        assert len(_BASIS_MEMO.get()) == 1
    assert again == first
    assert len(computed) == 1


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


def test_validation_reads_nothing_from_the_grade_scope(computed):
    x, y, z = R3.gens()
    A = make_algebra(R3, (x * y,))
    I = AlgebraIdeal(A, (x + y, z))
    memo = RecordingMemo()
    token = _BASIS_MEMO.set(memo)
    try:
        cert = grade(A, I)  # joins the scope opened above
        assert memo and memo.lookups
        entries, lookups = dict(memo), memo.lookups
        computed.clear()
        validate_grade_certificate(A, I, cert)
        assert computed  # validation computed its bases itself
        assert memo.lookups == lookups
        assert memo == entries
        assert _BASIS_MEMO.get() is memo
    finally:
        _BASIS_MEMO.reset(token)


def test_validation_runs_under_the_ambient_budget(computed):
    x, y, z = R3.gens()
    A = make_algebra(R3, (x * y,))
    I = AlgebraIdeal(A, (x + y, z))
    with memo_scope():
        cert = grade(A, I)
        entries = dict(_BASIS_MEMO.get())
        computed.clear()
        with limits(step_budget=0), pytest.raises(StepBudgetExceeded):
            validate_grade_certificate(A, I, cert)
        assert computed  # the failing basis was computed, not read from the memo
        assert _BASIS_MEMO.get() == entries
        validate_grade_certificate(A, I, cert)
