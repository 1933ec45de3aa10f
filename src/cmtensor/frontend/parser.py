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
    NAME    := an ASCII letter or "_", then ASCII letters, digits or "_"

An assert compares two integers (INT, grade, dim, height) with any CMP, or
two booleans (true, false, is_cm) with == or != only; any other comparison
is a parse error at its operator.

Polynomial expressions use ^ over * over binary +/- with explicit *, and
integer literals are reduced modulo the session prime at parse time.  A
power whose expansion may have more than MAX_POWER_TERMS terms is a parse
error at its exponent, and so is any literal whose products (power steps
included) need more than MAX_LITERAL_WORK steps: a product of a and b
terms over n names costs a*b*max(n, MIN_PAIR_COST), and the offending
factor is reported.  Parentheses nested more than MAX_NESTING deep are a
parse error at the first one too deep, and a run of unary minus signs
folds by parity, so no literal can exhaust the interpreter's recursion.
Names must be declared before use and are never shadowed; violations are
parse errors carrying the source position.

Each polynomial literal is a kernel Polynomial over the alphabetically
sorted names left in it after cancellation, built with the kernel's own
arithmetic and rendered in deglex order.  The executor moves it into the
declared ring, where a name the ring lacks is an error.
"""

from __future__ import annotations

import math
import operator
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

# The deepest parentheses may nest inside a literal.  Each level is four
# frames of the recursive descent (sum, term, factor, atom), so this keeps
# a literal far inside the interpreter's recursion limit of 1000.
MAX_NESTING = 64

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_CHARS = _NAME_START | _DIGITS
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

# the two kinds a name is bound as, with their indefinite article
_WITH_ARTICLE = {"ring": "a ring", "ideal": "an ideal"}

COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


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
        if ch in _NAME_CHARS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            word = text[i:j]
            if ch not in _DIGITS:
                kind = "ident"
            elif word.isdigit():
                kind = "int"
            else:
                raise ParseError("number runs into a name (write an explicit '*'?)", line, col)
            tokens.append(Token(kind, word, line, col))
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
    word: str  # true | false; as tuples, BoolLit("true") != IntLit(1)

    @property
    def value(self) -> bool:
        return self.word == "true"

    def render(self) -> str:
        return self.word


class CallExpr(NamedTuple):
    fn: str
    args: tuple

    def render(self) -> str:
        return f"{self.fn}({', '.join(self.args)})"


def _value_kind(expr) -> str:
    """What an expression evaluates to, as the diagnostics name it."""
    if isinstance(expr, BoolLit) or isinstance(expr, CallExpr) and expr.fn == "is_cm":
        return "a boolean"
    return "an integer"


class NameArg(NamedTuple):
    name: str

    def render(self) -> str:
        return self.name


class PolysArg(NamedTuple):
    polys: tuple

    def render(self) -> str:
        return "(" + ", ".join(p.render(DEGLEX) for p in self.polys) + ")"


class RingDecl(NamedTuple):
    name: str
    kind: str  # poly | tensor
    vars: tuple = ()
    relations: tuple = ()
    factors: tuple = ()

    def render(self) -> str:
        if self.kind == "tensor":
            return f"ring {self.name} = tensor({self.factors[0]}, {self.factors[1]})"
        body = f"ring {self.name} = poly({', '.join(self.vars)})"
        if self.relations:
            body += " / " + PolysArg(self.relations).render()
        return body


class IdealDecl(NamedTuple):
    name: str
    owner: str
    gens: tuple

    def render(self) -> str:
        return f"ideal {self.name} = {self.owner}:{PolysArg(self.gens).render()}"


class AssertStmt(NamedTuple):
    lhs: IntLit | BoolLit | CallExpr
    op: str
    rhs: IntLit | BoolLit | CallExpr

    def render(self) -> str:
        return f"assert {self.lhs.render()} {self.op} {self.rhs.render()}"


class CheckStmt(NamedTuple):
    check_id: str
    args: tuple

    def render(self) -> str:
        return f"check {self.check_id}(" + ", ".join(a.render() for a in self.args) + ")"


class ComputeStmt(NamedTuple):
    expr: IntLit | BoolLit | CallExpr

    def render(self) -> str:
        return f"compute {self.expr.render()}"


class Session(NamedTuple):
    prime: int
    statements: tuple = ()

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
        self.nesting = 0  # parentheses open around the current atom

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expected(self, what):
        """Fail at the next token, which is not `what`."""
        found = repr(self.peek().text) if self.peek().text else "end of input"
        self.fail(f"expected {what}, found {found}")

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's integer string limit
            self.fail(
                f"integer literal of {len(tok.text)} digits exceeds the "
                f"limit of {sys.get_int_max_str_digits()} digits",
                tok,
            )

    def at_op(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def at_keyword(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_op(self, text) -> Token:
        if not self.at_op(text):
            self.expected(repr(text))
        return self.advance()

    def expect_ident(self, what="a name") -> Token:
        if self.peek().kind != "ident":
            self.expected(what)
        return self.advance()

    def comma_list(self, item) -> list:
        """``item {"," item}``: what each call of `item` returned."""
        items = [item()]
        while self.at_op(","):
            self.advance()
            items.append(item())
        return items

    # -- bindings ------------------------------------------------------------

    def bound(self, tok: Token, kind: str) -> str:
        name = tok.text
        if name not in self.symbols:
            self.fail(f"unbound name {name!r}", tok)
        if self.symbols[name] != kind:
            bound_as = _WITH_ARTICLE[self.symbols[name]]
            self.fail(f"{name!r} is bound as {bound_as}, not {_WITH_ARTICLE[kind]}", tok)
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
        while self.at_op("+", "-"):
            if self.advance().text == "+":
                acc = acc + self.parse_term(ring)
            else:
                acc = acc - self.parse_term(ring)
        return acc

    def parse_term(self, ring) -> Polynomial:
        acc = self.parse_factor(ring)
        while self.at_op("*"):
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
        """``{"-"} atom ["^" INT]``: a run of minus signs folds by parity."""
        negate = False
        while self.at_op("-"):
            self.advance()
            negate = not negate
        base = self.parse_atom(ring)
        if self.at_op("^"):
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
            base = self.power(base, exponent, etok)
        return -base if negate else base

    def parse_atom(self, ring) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ring.const(self.integer(tok))
        if tok.kind == "ident":
            self.advance()
            return ring.var(tok.text)
        if not self.at_op("("):
            self.expected("a polynomial")
        if self.nesting == MAX_NESTING:
            self.fail(f"parentheses nested more than {MAX_NESTING} deep")
        self.advance()
        self.nesting += 1
        inner = self.parse_sum(ring)
        self.nesting -= 1
        self.expect_op(")")
        return inner

    def parse_poly_list(self) -> tuple:
        self.expect_op("(")
        polys = tuple(self.comma_list(self.parse_literal))
        self.expect_op(")")
        return polys

    # -- expressions -----------------------------------------------------------

    def parse_expr(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(self.integer(tok))
        if tok.kind == "ident" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text)
        if not (tok.kind == "ident" and tok.text in EXPR_FUNCTIONS):
            self.expected("grade/dim/height/is_cm, an integer, or true/false")
        fn = self.advance().text
        self.expect_op("(")
        names = self.comma_list(self.expect_ident)
        close = self.peek()
        self.expect_op(")")
        for sig in EXPR_FUNCTIONS[fn]:
            if len(sig) == len(names):
                return CallExpr(fn, tuple(self.bound(t, kind) for t, kind in zip(names, sig)))
        counts = " or ".join(str(len(s)) for s in EXPR_FUNCTIONS[fn])
        self.fail(f"arity mismatch: {fn} takes {counts} argument(s), got {len(names)}", close)

    # -- statements (each method starts after its keyword) ------------------------

    def parse_ring_decl(self) -> RingDecl:
        name_tok = self.expect_ident("a ring name")
        self.expect_op("=")
        head = self.peek()
        if self.at_keyword("tensor"):
            self.advance()
            self.expect_op("(")
            left = self.bound(self.expect_ident("a ring name"), "ring")
            self.expect_op(",")
            right = self.bound(self.expect_ident("a ring name"), "ring")
            self.expect_op(")")
            return RingDecl(self.declare(name_tok, "ring"), "tensor", factors=(left, right))
        if not self.at_keyword("poly"):
            self.fail("expected poly(...) or tensor(...)", head)
        self.advance()
        self.expect_op("(")
        vars_ = ()
        if not self.at_op(")"):
            vars_ = tuple(self.comma_list(lambda: self.expect_ident("a variable name").text))
        self.expect_op(")")
        if len(set(vars_)) != len(vars_):
            self.fail("duplicate variable name", head)
        relations = ()
        if self.at_op("/"):
            self.advance()
            relations = self.parse_poly_list()
        return RingDecl(self.declare(name_tok, "ring"), "poly", vars_, relations)

    def parse_ideal_decl(self) -> IdealDecl:
        name_tok = self.expect_ident("an ideal name")
        self.expect_op("=")
        owner = self.bound(self.expect_ident("a ring name"), "ring")
        self.expect_op(":")
        gens = self.parse_poly_list()
        return IdealDecl(self.declare(name_tok, "ideal"), owner, gens)

    def parse_assert(self) -> AssertStmt:
        lhs = self.parse_expr()
        op = self.peek()
        if not self.at_op(*COMPARISONS):
            self.fail("expected a comparison (==, !=, <, <=, >, >=)")
        self.advance()
        rhs = self.parse_expr()
        kind = _value_kind(lhs)
        if kind != _value_kind(rhs):
            self.fail(f"cannot compare {kind} with {_value_kind(rhs)}", op)
        if kind == "a boolean" and op.text not in ("==", "!="):
            self.fail("only == and != compare booleans", op)
        return AssertStmt(lhs, op.text, rhs)

    def parse_check(self) -> CheckStmt:
        id_tok = self.expect_ident("a check id")
        if id_tok.text not in CHECK_SIGNATURES:
            self.fail(f"unknown check id {id_tok.text!r}", id_tok)
        sig = CHECK_SIGNATURES[id_tok.text]
        self.expect_op("(")
        args = [] if self.at_op(")") else self.comma_list(self.parse_check_arg)
        close = self.peek()
        self.expect_op(")")
        if len(args) != len(sig):
            self.fail(
                f"arity mismatch: {id_tok.text} takes {len(sig)} argument(s), got {len(args)}",
                close,
            )
        for (arg, tok), kind in zip(args, sig):
            if kind == "polys":
                if not isinstance(arg, PolysArg):
                    self.fail("expected a parenthesized polynomial list", tok)
            elif not isinstance(arg, NameArg):
                self.fail(f"expected a {kind} name", tok)
            else:
                self.bound(tok, kind)
        return CheckStmt(id_tok.text, tuple(arg for arg, _ in args))

    def parse_check_arg(self):
        """One argument of a check, with its first token."""
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return NameArg(tok.text), tok
        if not self.at_op("("):
            self.expected("a name or a polynomial list")
        return PolysArg(self.parse_poly_list()), tok

    def parse_compute(self) -> ComputeStmt:
        return ComputeStmt(self.parse_expr())

    STATEMENTS = {
        "ring": parse_ring_decl,
        "ideal": parse_ideal_decl,
        "assert": parse_assert,
        "check": parse_check,
        "compute": parse_compute,
    }

    def parse_session(self) -> Session:
        statements = []
        while self.peek().kind != "eof":
            tok = self.peek()
            parse = self.STATEMENTS.get(tok.text) if tok.kind == "ident" else None
            if parse is None:
                self.expected("a statement (ring/ideal/assert/check/compute)")
            self.advance()
            statements.append(parse(self))
            self.expect_op(";")
        return Session(self.field.p, tuple(statements))


def parse_session(text: str, prime: int = DEFAULT_PRIME) -> Session:
    """Parse a session; every failure is a ParseError with line and column."""
    return _Parser(tokenize(text), prime).parse_session()
