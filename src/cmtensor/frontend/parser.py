"""Tokenizer, recursive-descent parser, and AST for the session DSL.

Grammar (statements end with ';', '#' starts a line comment):

    session := { stmt ";" }
    stmt    := "ring" NAME "=" ( "poly" "(" [vars] ")" [ "/" "(" polys ")" ]
                               | "tensor" "(" NAME "," NAME ")" )
             | "ideal" NAME "=" NAME ":" "(" polys ")"
             | "assert" expr CMP expr
             | "check" CHECKID "(" args ")"
             | "compute" expr
    expr    := "grade" "(" NAME "," NAME ")" | "dim" "(" NAME ["," NAME] ")"
             | "height" "(" NAME "," NAME ")" | "is_cm" "(" NAME ")"
             | INT | "true" | "false"
    arg     := NAME | "(" polys ")"

Polynomial expressions use ^ over * over binary +/- with explicit *, and
integer literals are reduced modulo the session prime at parse time.  A
power whose expansion may have more than MAX_POWER_TERMS terms is a parse
error at its exponent, and so is any literal whose products (power steps
included) need more than MAX_LITERAL_WORK steps: a product of a and b
terms over n names costs a*b*max(n, MIN_PAIR_COST), and the offending
factor is reported.
Names must be declared before use and are never shadowed; violations are
parse errors carrying the source position.

Each polynomial literal is a kernel Polynomial over the alphabetically
sorted names left in it after cancellation, built with the kernel's own
arithmetic and rendered in deglex order.  The executor moves it into the
declared ring, where a name the ring lacks is an error.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from ..errors import ParseError
from ..polyring import (
    DEFAULT_PRIME,
    DEGLEX,
    Polynomial,
    PolyRing,
    PrimeField,
    restrict_variables,
)

# The most terms a literal power may expand to.  It bounds the time a short
# literal can spend expanding at parse time: the worst admitted power, a
# binomial to the 499th, parses in about 0.06 s on one Intel Xeon core.
MAX_POWER_TERMS = 500

# The most work one literal may spend in products, a product of polynomials
# of a and b terms over n names costing a*b*max(n, MIN_PAIR_COST) (each
# power step is one product).  It bounds parse time where the power bound
# cannot: many written-out factors, or terms over many names.
MAX_LITERAL_WORK = 500_000

# The least a pair of terms is charged, whatever the number of names: a
# pair costs about 1.1-1.7 us at one to six names and 4.5 us at 64 names
# (Polynomial.__mul__, one Intel Xeon core), so charging n alone
# under-counts literals over one or two names.  Four keeps (x + y)^499
# admitted (416,604 steps); the longest admitted product of factors
# (1 + x), 353 of them, parses in about 0.14 s, where a charge of n
# admitted 706 of them, which took 0.55 s.
MIN_PAIR_COST = 4

_TWO_CHAR = ("==", "!=", "<=", ">=")
_ONE_CHAR = "(),;=:+-*^/<>"

EXPR_FUNCTIONS = {
    "grade": (("ring", "ideal"),),
    "dim": (("ring",), ("ring", "ideal")),
    "height": (("ring", "ideal"),),
    "is_cm": (("ring",),),
}

CHECK_SIGNATURES = {
    "thm_1_1_a": ("ring", "ring", "ideal"),
    "thm_1_1_b": ("ring", "ring", "ideal", "ideal"),
    "thm_1_1_c": ("ring", "ring", "ideal", "ideal"),
    "lemma_1_2": ("ring", "ring", "polys", "polys"),
    "prop_2_3_a": ("ring", "ideal"),
    "thm_2_1": ("ring", "ring"),
    "remark_2_5": ("ring", "ideal"),
}

COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")


class Token(NamedTuple):
    kind: str  # ident | int | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "_"):
                raise ParseError(
                    f"number runs into a name (write an explicit '*'?)", line, col
                )
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("op", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST

class IntLit(NamedTuple):
    value: int

    def render(self) -> str:
        return str(self.value)


class BoolLit(NamedTuple):
    value: bool

    def render(self) -> str:
        return "true" if self.value else "false"


class CallExpr(NamedTuple):
    fn: str
    args: tuple

    def render(self) -> str:
        return f"{self.fn}({', '.join(self.args)})"


class NameArg(NamedTuple):
    name: str

    def render(self) -> str:
        return self.name


class PolysArg(NamedTuple):
    polys: tuple

    def render(self) -> str:
        return "(" + ", ".join(p.render(DEGLEX) for p in self.polys) + ")"


class _Statement:
    """Statements of one class are equal when every field but `pos`, the
    source position, is equal.  Expressions are compared with their class,
    since as tuples ``IntLit(1) == BoolLit(True)``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()


class RingDecl(_Statement):
    def __init__(self, name, kind, vars=(), relations=(), factors=(), pos=(0, 0)):
        self.name = name
        self.kind = kind  # poly | tensor
        self.vars = vars
        self.relations = relations
        self.factors = factors
        self.pos = pos

    def _compared(self) -> tuple:
        return (self.name, self.kind, self.vars, self.relations, self.factors)

    def render(self) -> str:
        if self.kind == "tensor":
            return f"ring {self.name} = tensor({self.factors[0]}, {self.factors[1]})"
        body = f"ring {self.name} = poly({', '.join(self.vars)})"
        if self.relations:
            body += " / " + PolysArg(self.relations).render()
        return body


class IdealDecl(_Statement):
    def __init__(self, name, owner, gens=(), pos=(0, 0)):
        self.name = name
        self.owner = owner
        self.gens = gens
        self.pos = pos

    def _compared(self) -> tuple:
        return (self.name, self.owner, self.gens)

    def render(self) -> str:
        return f"ideal {self.name} = {self.owner}:{PolysArg(self.gens).render()}"


class AssertStmt(_Statement):
    def __init__(self, lhs, op, rhs, pos=(0, 0)):
        self.lhs = lhs
        self.op = op
        self.rhs = rhs
        self.pos = pos

    def _compared(self) -> tuple:
        return (type(self.lhs), self.lhs, self.op, type(self.rhs), self.rhs)

    def render(self) -> str:
        return f"assert {self.lhs.render()} {self.op} {self.rhs.render()}"


class CheckStmt(_Statement):
    def __init__(self, check_id, args=(), pos=(0, 0)):
        self.check_id = check_id
        self.args = args
        self.pos = pos

    def _compared(self) -> tuple:
        return (self.check_id, self.args)

    def render(self) -> str:
        return f"check {self.check_id}(" + ", ".join(a.render() for a in self.args) + ")"


class ComputeStmt(_Statement):
    def __init__(self, expr, pos=(0, 0)):
        self.expr = expr
        self.pos = pos

    def _compared(self) -> tuple:
        return (type(self.expr), self.expr)

    def render(self) -> str:
        return f"compute {self.expr.render()}"


class Session(NamedTuple):
    prime: int
    statements: tuple = ()

    @property
    def declarations(self) -> tuple:
        return tuple(s for s in self.statements if isinstance(s, (RingDecl, IdealDecl)))

    @property
    def commands(self) -> tuple:
        return tuple(
            s for s in self.statements if isinstance(s, (AssertStmt, CheckStmt, ComputeStmt))
        )

    def render(self) -> str:
        return "\n".join(s.render() + ";" for s in self.statements) + (
            "\n" if self.statements else ""
        )


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens, prime):
        self.tokens = tokens
        self.i = 0
        self.field = PrimeField(prime)
        self.symbols = {}  # name -> "ring" | "ideal"
        self.work = 0  # of the literal being parsed

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's integer string limit
            self.fail(
                f"integer literal of {len(tok.text)} digits exceeds the "
                f"limit of {sys.get_int_max_str_digits()} digits",
                tok,
            )

    def expect_op(self, text) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}, found end of input")
        return self.advance()

    def expect_ident(self, what="a name") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input")
        return self.advance()

    def at_keyword(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    # -- bindings ------------------------------------------------------------

    def bound(self, tok: Token, kind: str) -> str:
        name = tok.text
        if name not in self.symbols:
            self.fail(f"unbound name {name!r}", tok)
        if self.symbols[name] != kind:
            self.fail(f"{name!r} is bound as a {self.symbols[name]}, not a {kind}", tok)
        return name

    def declare(self, tok: Token, kind: str) -> str:
        name = tok.text
        if name in self.symbols:
            self.fail(f"{name!r} is already declared (no shadowing)", tok)
        self.symbols[name] = kind
        return name

    # -- polynomial expressions ----------------------------------------------

    def literal_ring(self) -> PolyRing:
        """The ring over the sorted names in the literal that starts here.

        The scan covers every token the literal can consume, so each name
        the parser meets is a variable of this ring.
        """
        names, depth, j = set(), 0, self.i
        while True:
            tok = self.tokens[j]
            if tok.kind == "ident":
                names.add(tok.text)
            elif tok.text == "(":
                depth += 1
            elif tok.text == ")" and depth:
                depth -= 1
            elif tok.kind != "int" and tok.text not in ("+", "-", "*", "^"):
                return PolyRing(tuple(sorted(names)), self.field)
            j += 1

    def parse_literal(self) -> Polynomial:
        """One polynomial, over the sorted names left after cancellation."""
        ring = self.literal_ring()
        self.work = 0
        f = self.parse_sum(ring)
        used = sorted(f.support())
        if len(used) == ring.nvars:
            return f
        names = tuple(ring.names[i] for i in used)
        return restrict_variables(f, PolyRing(names, self.field), used)

    def parse_sum(self, ring) -> Polynomial:
        acc = self.parse_term(ring)
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.advance().text == "+":
                acc = acc + self.parse_term(ring)
            else:
                acc = acc - self.parse_term(ring)
        return acc

    def parse_term(self, ring) -> Polynomial:
        acc = self.parse_factor(ring)
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            tok = self.peek()
            acc = self.product(acc, self.parse_factor(ring), tok)
        return acc

    def product(self, a: Polynomial, b: Polynomial, tok: Token) -> Polynomial:
        """a * b, charged to the literal's work; refused at `tok` past the bound."""
        self.work += len(a.terms) * len(b.terms) * max(a.ring.nvars, MIN_PAIR_COST)
        if self.work > MAX_LITERAL_WORK:
            self.fail(
                f"literal needs more than {MAX_LITERAL_WORK} steps of "
                "multiplication to expand",
                tok,
            )
        return a * b

    def power(self, base: Polynomial, exponent: int, tok: Token) -> Polynomial:
        """base ** exponent by the products of ``Polynomial.__pow__``, each charged."""
        result = base.ring.one
        while exponent:
            if exponent & 1:
                result = self.product(result, base, tok)
            exponent >>= 1
            if exponent:
                base = self.product(base, base, tok)
        return result

    def parse_factor(self, ring) -> Polynomial:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.parse_factor(ring)
        base = self.parse_atom(ring)
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "int":
                self.fail("expected an integer exponent")
            self.advance()
            exponent = self.integer(etok)
            # a k-term polynomial to the power e has at most C(e+k-1, k-1)
            # terms; for k > 1 that bound is at least e+1, so a large e is
            # refused before the binomial is computed
            k = len(base.terms)
            if k > 1 and (
                exponent >= MAX_POWER_TERMS
                or math.comb(exponent + k - 1, k - 1) > MAX_POWER_TERMS
            ):
                self.fail(
                    f"polynomial of {k} terms to the power {exponent} may have "
                    f"more than {MAX_POWER_TERMS} terms",
                    etok,
                )
            return self.power(base, exponent, etok)
        return base

    def parse_atom(self, ring) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ring.const(self.integer(tok))
        if tok.kind == "ident":
            self.advance()
            return ring.var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_sum(ring)
            self.expect_op(")")
            return inner
        self.fail(f"expected a polynomial, found {tok.text!r}" if tok.text else "expected a polynomial, found end of input")

    def parse_poly_list(self) -> tuple:
        polys = [self.parse_literal()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            polys.append(self.parse_literal())
        return tuple(polys)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(self.integer(tok))
        if tok.kind == "ident" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text == "true")
        if tok.kind == "ident" and tok.text in EXPR_FUNCTIONS:
            fn = self.advance().text
            self.expect_op("(")
            names = [self.expect_ident()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                names.append(self.expect_ident())
            close = self.peek()
            self.expect_op(")")
            for sig in EXPR_FUNCTIONS[fn]:
                if len(sig) == len(names):
                    args = tuple(
                        self.bound(t, kind) for t, kind in zip(names, sig)
                    )
                    return CallExpr(fn, args)
            expected = " or ".join(str(len(s)) for s in EXPR_FUNCTIONS[fn])
            self.fail(
                f"arity mismatch: {fn} takes {expected} argument(s), got {len(names)}",
                close,
            )
        self.fail(
            "expected grade/dim/height/is_cm, an integer, or true/false"
            + (f", found {tok.text!r}" if tok.text else "")
        )

    # -- statements --------------------------------------------------------------

    def parse_ring_decl(self) -> RingDecl:
        start = self.advance()  # 'ring'
        name_tok = self.expect_ident("a ring name")
        self.expect_op("=")
        head = self.peek()
        if self.at_keyword("poly"):
            self.advance()
            self.expect_op("(")
            vars_ = []
            if not (self.peek().kind == "op" and self.peek().text == ")"):
                vars_.append(self.expect_ident("a variable name").text)
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    vars_.append(self.expect_ident("a variable name").text)
            self.expect_op(")")
            if len(set(vars_)) != len(vars_):
                self.fail("duplicate variable name", head)
            relations = ()
            if self.peek().kind == "op" and self.peek().text == "/":
                self.advance()
                self.expect_op("(")
                relations = self.parse_poly_list()
                self.expect_op(")")
            name = self.declare(name_tok, "ring")
            return RingDecl(
                name, "poly", tuple(vars_), relations, (), (start.line, start.col)
            )
        if self.at_keyword("tensor"):
            self.advance()
            self.expect_op("(")
            left = self.bound(self.expect_ident("a ring name"), "ring")
            self.expect_op(",")
            right = self.bound(self.expect_ident("a ring name"), "ring")
            self.expect_op(")")
            name = self.declare(name_tok, "ring")
            return RingDecl(name, "tensor", (), (), (left, right), (start.line, start.col))
        self.fail("expected poly(...) or tensor(...)", head)

    def parse_ideal_decl(self) -> IdealDecl:
        start = self.advance()  # 'ideal'
        name_tok = self.expect_ident("an ideal name")
        self.expect_op("=")
        owner = self.bound(self.expect_ident("a ring name"), "ring")
        self.expect_op(":")
        self.expect_op("(")
        gens = self.parse_poly_list()
        self.expect_op(")")
        name = self.declare(name_tok, "ideal")
        return IdealDecl(name, owner, gens, (start.line, start.col))

    def parse_assert(self) -> AssertStmt:
        start = self.advance()  # 'assert'
        lhs = self.parse_expr()
        tok = self.peek()
        if tok.kind != "op" or tok.text not in COMPARISONS:
            self.fail("expected a comparison (==, !=, <, <=, >, >=)")
        self.advance()
        rhs = self.parse_expr()
        return AssertStmt(lhs, tok.text, rhs, (start.line, start.col))

    def parse_check(self) -> CheckStmt:
        start = self.advance()  # 'check'
        id_tok = self.expect_ident("a check id")
        if id_tok.text not in CHECK_SIGNATURES:
            self.fail(f"unknown check id {id_tok.text!r}", id_tok)
        sig = CHECK_SIGNATURES[id_tok.text]
        self.expect_op("(")
        args = []
        if not (self.peek().kind == "op" and self.peek().text == ")"):
            args.append(self.parse_check_arg())
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                args.append(self.parse_check_arg())
        close = self.peek()
        self.expect_op(")")
        if len(args) != len(sig):
            self.fail(
                f"arity mismatch: {id_tok.text} takes {len(sig)} argument(s), got {len(args)}",
                close,
            )
        checked = []
        for (arg, tok), kind in zip(args, sig):
            if kind == "polys":
                if not isinstance(arg, PolysArg):
                    self.fail("expected a parenthesized polynomial list", tok)
            else:
                if not isinstance(arg, NameArg):
                    self.fail(f"expected a {kind} name", tok)
                self.bound(tok, kind)
            checked.append(arg)
        return CheckStmt(id_tok.text, tuple(checked), (start.line, start.col))

    def parse_check_arg(self):
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return NameArg(tok.text), tok
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            polys = self.parse_poly_list()
            self.expect_op(")")
            return PolysArg(polys), tok
        self.fail(f"expected a name or a polynomial list, found {tok.text!r}" if tok.text else "expected a name or a polynomial list")

    def parse_session(self) -> Session:
        statements = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.at_keyword("ring"):
                stmt = self.parse_ring_decl()
            elif self.at_keyword("ideal"):
                stmt = self.parse_ideal_decl()
            elif self.at_keyword("assert"):
                stmt = self.parse_assert()
            elif self.at_keyword("check"):
                stmt = self.parse_check()
            elif self.at_keyword("compute"):
                start = self.advance()
                stmt = ComputeStmt(self.parse_expr(), (start.line, start.col))
            else:
                self.fail(
                    f"expected a statement (ring/ideal/assert/check/compute), found {tok.text!r}"
                    if tok.text
                    else "expected a statement"
                )
            self.expect_op(";")
            statements.append(stmt)
        return Session(self.field.p, tuple(statements))


def parse_session(text: str, prime: int = DEFAULT_PRIME) -> Session:
    """Parse a session; every failure is a ParseError with line and column."""
    return _Parser(tokenize(text), prime).parse_session()
