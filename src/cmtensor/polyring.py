"""Sparse multivariate polynomial arithmetic over a prime field.

Monomials are exponent tuples indexed by variable position in a
:class:`PolyRing`; a polynomial maps monomials to nonzero coefficients
reduced into ``[0, p)``.  Monomial orders are total, multiplicative, and
have 1 as minimum; the block order puts every monomial containing a front
variable above every monomial without one, which is what elimination
needs.  All values are immutable after construction and safe to share
between threads: `PrimeField`, `MonomialOrder` and `PolyRing` set their
slots once, in ``__init__``, and refuse assignment; no code writes a
`Polynomial`'s ring or terms after construction.

A polynomial remembers its leading term for the order it was last asked
about, so repeated ``leading_term``/``leading_monomial``/``monic`` calls
under one order scan the terms once.  The cache is filled on first use,
never in the constructor, and is safe because the terms never change.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from operator import add, le, neg

from .errors import AmbientMismatchError, ZeroPolynomialError

DEFAULT_PRIME = 32003

Monomial = tuple


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for n < MODULUS_BOUND (deterministic Miller-Rabin)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_set = object.__setattr__


class _Value:
    """An immutable value, equal to and hashed as the tuple of its fields.

    Each subclass sets its fields in ``__init__``, then calls `_freeze` with
    them in the order of its ``__slots__``, which is that of its parameters
    (``__repr__`` and ``__reduce__`` rely on it).  The types are dict and
    ``lru_cache`` keys, so their hash is computed once and assignment raises.
    """

    __slots__ = ("_key", "_hash")

    def _freeze(self, *key) -> None:
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._key

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{self.__class__.__name__}({fields})"


class PrimeField(_Value):
    """The coefficient field F_p, for a prime p below ``MODULUS_BOUND``."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= MODULUS_BOUND:
            raise ValueError(
                f"modulus {p} is too large: primality is checked exactly "
                f"only below {MODULUS_BOUND}"
            )
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        _set(self, "p", p)
        self._freeze(p)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in the prime field")
        return pow(a, -1, self.p)


# ---------------------------------------------------------------------------
# Monomial helpers (exponent tuples of a fixed shared length)

def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))


@functools.lru_cache(maxsize=None)
def _rest_indices(front: tuple, n: int) -> tuple:
    fs = set(front)
    return tuple(i for i in range(n) if i not in fs)


class MonomialOrder(_Value):
    """A global monomial order: ``lex``, ``grevlex``, ``deglex``, or a block order.

    ``deglex`` compares total degree first and breaks ties by ``lex``.  The
    block order compares the exponents at the ``front`` positions
    first (by grevlex) and falls back to the remaining positions, so any
    monomial touching a front variable exceeds any monomial that does not.
    """

    __slots__ = ("kind", "front")

    def __init__(self, kind: str, front: tuple = ()):
        if kind not in ("lex", "grevlex", "deglex", "block"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        if kind == "block" and not front:
            raise ValueError("block order needs at least one front position")
        _set(self, "kind", kind)
        _set(self, "front", front)
        self._freeze(kind, front)

    def key(self, m: Monomial):
        """Sort key: larger key means larger monomial."""
        if self.kind == "grevlex":
            return (sum(m), tuple(map(neg, reversed(m))))
        if self.kind == "lex":
            return m
        if self.kind == "deglex":
            return (sum(m), m)
        fm = tuple(m[i] for i in self.front)
        rm = tuple(m[i] for i in _rest_indices(self.front, len(m)))
        return (
            sum(fm),
            tuple(map(neg, reversed(fm))),
            sum(rm),
            tuple(map(neg, reversed(rm))),
        )


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")
DEGLEX = MonomialOrder("deglex")


def block_order(front: Iterable[int]) -> MonomialOrder:
    return MonomialOrder("block", tuple(sorted(set(front))))


class PolyRing(_Value):
    """An ambient variable set over a prime field.

    Polynomial values never migrate between ambients implicitly; use
    :func:`map_variables` / :func:`restrict_variables` for explicit moves.
    """

    __slots__ = ("names", "field")

    def __init__(self, names: Iterable[str], field: PrimeField = PrimeField()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not isinstance(nm, str) or not nm:
                raise ValueError(f"bad variable name {nm!r}")
        _set(self, "names", names)
        _set(self, "field", field)
        self._freeze(names, field)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in {self.names}") from None

    def var(self, which) -> "Polynomial":
        i = self.index(which) if isinstance(which, str) else which
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable position {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: 1}, _trusted=True)

    def gens(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def const(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return Polynomial(self, {}, _trusted=True)
        return Polynomial(self, {(0,) * self.nvars: c}, _trusted=True)

    @property
    def zero(self) -> "Polynomial":
        return self.const(0)

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coeff})

    def fresh_name(self, base: str) -> str:
        if base not in self.names:
            return base
        k = 1
        while f"{base}{k}" in self.names:
            k += 1
        return f"{base}{k}"

    def extended(self, name: str) -> "PolyRing":
        if name in self.names:
            raise ValueError(f"variable {name!r} already present")
        return PolyRing(self.names + (name,), self.field)

    def describe(self) -> str:
        return f"GF({self.field.p})[{', '.join(self.names)}]"


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient."""

    # `_lead` is (order, leading monomial) once known; one slot, so that
    # threads racing to fill it never pair an order with another's monomial.
    # `_packed` is set only on the elements of a reduced basis from Buchberger's
    # general path, as they are made: (memo, position), the memo `groebner`
    # keeps with that basis for its normal forms, holding its packing, entries,
    # packed exponent tuples and first divisors.
    __slots__ = ("ring", "terms", "_lead", "_packed")

    def __init__(self, ring: PolyRing, terms: dict, *, _trusted: bool = False):
        if not _trusted:
            p = ring.field.p
            n = ring.nvars
            clean = {}
            for m, c in terms.items():
                m = tuple(m)
                if len(m) != n or any(e < 0 or not isinstance(e, int) for e in m):
                    raise ValueError(f"bad exponent tuple {m} for {ring.names}")
                c %= p
                if c:
                    clean[m] = c
            terms = clean
        self.ring = ring
        self.terms = terms

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise AmbientMismatchError(
                    f"mixed ambients {self.ring.names} and {other.ring.names}"
                )
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.field.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) + c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(
            self.ring, {m: p - c for m, c in self.terms.items()}, _trusted=True
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # self + (-other) in one pass, with the same terms in the same order
        p = self.ring.field.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) - c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res, _trusted=True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.field.p
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # A single-term factor: each product term is distinct and, p
            # being prime, nonzero; the order is that of the double loop.
            ((m2, c2),) = b.items()
            res = {tuple(map(add, m1, m2)): c1 * c2 % p for m1, c1 in a.items()}
            return Polynomial(self.ring, res, _trusted=True)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = (res.get(m, 0) + c1 * c2) % p
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Polynomial(self.ring, res, _trusted=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the square past the top bit would be thrown away
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def support(self) -> frozenset:
        """Positions of the variables that actually occur."""
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return frozenset(used)

    def leading_term(self, order: MonomialOrder = GREVLEX):
        """(monomial, coefficient) of the largest term; cached for the last order."""
        known = getattr(self, "_lead", None)
        if known is not None and (known[0] is order or known[0] == order):
            m = known[1]
        elif not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        else:
            m = max(self.terms, key=order.key)
            self._known_lead(order, m)
        return m, self.terms[m]

    def _known_lead(self, order: MonomialOrder, m: Monomial) -> "Polynomial":
        """Record `m` as the leading monomial under `order`; the caller knows it is."""
        self._lead = (order, m)
        return self

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        return self.leading_term(order)[0]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        lm, c = self.leading_term(order)
        if c == 1:
            return self
        inv = self.ring.field.inv(c)
        p = self.ring.field.p
        return Polynomial(
            self.ring, {m: (v * inv) % p for m, v in self.terms.items()}, _trusted=True
        )._known_lead(order, lm)

    # -- rendering ----------------------------------------------------------

    def render(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text: terms descending in `order`, balanced coefficients."""
        if not self.terms:
            return "0"
        p = self.ring.field.p
        names = self.ring.names
        chunks = []
        for m in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[m]
            if c > p // 2:
                c -= p
            mono = "*".join(
                nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, m) if e
            )
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self.render()} in {self.ring.describe()}>"


def map_variables(f: Polynomial, target: PolyRing, positions: Sequence[int]) -> Polynomial:
    """Reinterpret f in `target`, sending variable i to `positions[i]`."""
    if f.ring.field != target.field:
        raise AmbientMismatchError("cannot move a polynomial between different fields")
    n = target.nvars
    pos = tuple(positions)
    if len(pos) != f.ring.nvars or len(set(pos)) != len(pos):
        raise ValueError("positions must be an injection from the source variables")
    if any(not 0 <= i < n for i in pos):
        raise ValueError("position out of range for the target ambient")
    terms = {}
    for m, c in f.terms.items():
        exps = [0] * n
        for i, e in enumerate(m):
            if e:
                exps[pos[i]] = e
        terms[tuple(exps)] = c
    return Polynomial(target, terms, _trusted=True)


def restrict_variables(f: Polynomial, target: PolyRing, positions: Sequence[int]) -> Polynomial:
    """Inverse of :func:`map_variables`: variable `positions[i]` becomes variable i.

    Every exponent outside `positions` must be zero.
    """
    if f.ring.field != target.field:
        raise AmbientMismatchError("cannot move a polynomial between different fields")
    pos = tuple(positions)
    if len(pos) != target.nvars:
        raise ValueError("positions must enumerate the target variables")
    keep = set(pos)
    terms = {}
    for m, c in f.terms.items():
        for i, e in enumerate(m):
            if e and i not in keep:
                raise ValueError(
                    f"polynomial involves variable {f.ring.names[i]!r} outside the restriction"
                )
        terms[tuple(m[i] for i in pos)] = c
    return Polynomial(target, terms, _trusted=True)
