"""What the record types promise: equality, hashing, immutability, messages.

`PrimeField`, `MonomialOrder` and `PolyRing` are dict and ``lru_cache``
keys, so they are equal and hash equal by value and refuse assignment.
Algebras compare by identity; a command result leaves its run time out of
``==``, and statements, which hold no source position, compare as tuples.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from cmtensor import (
    GREVLEX,
    AlgebraIdeal,
    MonomialOrder,
    PolyRing,
    PrimeField,
    block_order,
    grade,
    make_algebra,
)
from cmtensor.frontend.parser import parse_session
from cmtensor.frontend.report import CommandResult
from cmtensor.polyring import MODULUS_BOUND
from oracles import reference_grade


def _values():
    """Pairs of equal values built separately, one pair per type."""
    return [
        (PrimeField(7), PrimeField(7)),
        (MonomialOrder("grevlex"), GREVLEX),
        (block_order([1, 0]), MonomialOrder("block", (0, 1))),
        (PolyRing(("x", "y"), PrimeField(7)), PolyRing(["x", "y"], PrimeField(7))),
        (PolyRing(("x",)), PolyRing(("x",), PrimeField())),
    ]


@pytest.mark.parametrize("a, b", _values(), ids=repr)
def test_equal_and_hash_equal_by_value(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_unequal_values():
    assert PrimeField(7) != PrimeField(11)
    assert MonomialOrder("lex") != MonomialOrder("deglex")
    assert block_order([0]) != block_order([0, 1])
    assert PolyRing(("x", "y")) != PolyRing(("y", "x"))
    assert PolyRing(("x",), PrimeField(7)) != PolyRing(("x",), PrimeField(11))


def test_a_value_is_not_the_tuple_of_its_fields():
    assert PrimeField(7) != (7,)
    assert MonomialOrder("lex") != ("lex", ())
    assert PolyRing(("x",)) != (("x",), PrimeField())


def test_a_rebuilt_ring_meets_polynomials_of_the_first():
    R = PolyRing(("x", "y"), PrimeField(7))
    S = PolyRing(tuple(R.names), PrimeField(R.field.p))
    assert R.var("x") + S.var("y") == S.var("x") + R.var("y")


@pytest.mark.parametrize("make, message", [
    (lambda: PrimeField(32001), "modulus 32001 is not prime"),
    (lambda: PrimeField(1), "modulus 1 is not prime"),
    (lambda: PrimeField(MODULUS_BOUND),
     f"modulus {MODULUS_BOUND} is too large: primality is checked exactly "
     f"only below {MODULUS_BOUND}"),
    (lambda: MonomialOrder("revlex"), "unknown monomial order kind 'revlex'"),
    (lambda: MonomialOrder("block"), "block order needs at least one front position"),
    (lambda: PolyRing(("x", "y", "x")), "duplicate variable names in ('x', 'y', 'x')"),
    (lambda: PolyRing(("x", "")), "bad variable name ''"),
    (lambda: PolyRing(("x", 3)), "bad variable name 3"),
])
def test_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("value, name", [
    (PrimeField(7), "p"),
    (GREVLEX, "kind"),
    (block_order([0]), "front"),
    (PolyRing(("x",)), "names"),
    (PolyRing(("x",)), "field"),
    (PolyRing(("x",)), "extra"),
])
def test_assignment_and_deletion_raise(value, name):
    before = hash(value)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert hash(value) == before


@pytest.mark.parametrize("a, b", _values(), ids=repr)
def test_copies_and_pickles_are_equal(a, b):
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == b and hash(c) == hash(b)


def test_repr_names_the_fields():
    assert repr(PolyRing(["x"], PrimeField(7))) == "PolyRing(names=('x',), field=PrimeField(p=7))"
    assert repr(block_order([2])) == "MonomialOrder(kind='block', front=(2,))"


def test_command_result_equality_ignores_ms():
    a = CommandResult("compute dim(A)", "ok", lhs=2, ms=1.5)
    assert a == CommandResult("compute dim(A)", "ok", lhs=2, ms=40.0)
    assert a != CommandResult("compute dim(A)", "ok", lhs=3, ms=1.5)
    assert a != CommandResult("compute dim(A)", "ok", lhs=2, detail="x", ms=1.5)
    with pytest.raises(TypeError):
        hash(a)


SESSION = """ring A = poly(x, y) / (x*y);
ideal I = A:(x);
assert grade(A, I) == 0;
check prop_2_3_a(A, I);
compute dim(A);
"""


def test_statement_equality_ignores_pos():
    one = parse_session(SESSION).statements
    two = parse_session("\n\n" + SESSION.replace(";\n", ";   ")).statements
    assert list(one) == list(two)
    assert one[0] != one[1] and one[2] != one[4]
    changed = parse_session(SESSION.replace("== 0", "== 1")).statements
    assert one[2] != changed[2]
    # a boolean literal holds its word, so it differs from the integer of its value
    ints = parse_session("compute 1; assert 1 == 0;").statements
    bools = parse_session("compute true; assert true == false;").statements
    assert ints[0] != bools[0] and ints[1] != bools[1]


def test_algebras_compare_by_identity():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    A = make_algebra(ring, [x * y])
    B = make_algebra(ring, [x * y])
    assert A == A and A != B
    assert len({A, B}) == 2


def test_grade_certificate_equals_the_reference():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    A = make_algebra(ring, [x * z, y * z])
    I = AlgebraIdeal(A, [x, y, z])
    cert = grade(A, I, 3)
    assert cert == reference_grade(A, I, 3)
    assert cert != cert._replace(grade=cert.grade + 1)
