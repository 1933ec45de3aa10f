from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cmtensor import GREVLEX, PolyRing, Polynomial, PrimeField, buchberger, context, groebner
from cmtensor.polyring import map_variables

FIELD = PrimeField()


@pytest.fixture(scope="session")
def field():
    return FIELD


@pytest.fixture
def step_counters(monkeypatch):
    """Every reduction-step counter built while the test runs."""
    made = []

    class Recording(context._StepCounter):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(groebner, "_StepCounter", Recording)
    return made


@pytest.fixture
def ring_xy():
    return PolyRing(("x", "y"), FIELD)


@pytest.fixture
def ring_xyz():
    return PolyRing(("x", "y", "z"), FIELD)


def random_poly(rng: random.Random, ring: PolyRing, max_deg=3, max_terms=3,
                homogeneous=False, constant_free=False):
    """A random sparse polynomial, possibly zero."""
    n = ring.nvars
    terms = {}
    deg = rng.randint(1 if constant_free else 0, max_deg)
    for _ in range(rng.randint(1, max_terms)):
        d = deg if homogeneous else rng.randint(1 if constant_free else 0, max_deg)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.randrange(1, ring.field.p)
    return Polynomial(ring, terms)


def basis_under(gens, order) -> list:
    """Generators that present the ideal of `gens` "under" `order`: `gens`
    themselves under grevlex, their reduced basis under any other order.
    Every presentation is read under grevlex, so another order shows only
    in the generators it gives."""
    return list(gens) if order == GREVLEX else buchberger(gens, order)


def permuted(polys, perm):
    """Each polynomial with its variables permuted: variable i goes to the
    i-th entry of `perm` below the ring's variable count.  `perm` is a
    permutation of range(n) for an n at least that count, so the entries
    kept permute the ring's variables."""
    return [map_variables(g, g.ring, [i for i in perm if i < g.ring.nvars]) for g in polys]
