from __future__ import annotations

import inspect
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtensor import (
    AlgebraIdeal,
    ParseError,
    PolyRing,
    PrimeField,
    groebner,
    limits,
    make_algebra,
    tensor,
    theorems,
)
from cmtensor.frontend import RunReport, execute, parse_session
from cmtensor.frontend.cli import main
from cmtensor.frontend.parser import (
    CHECK_SIGNATURES,
    AssertStmt,
    MAX_LITERAL_WORK,
    MAX_NESTING,
    MAX_POWER_TERMS,
    MIN_PAIR_COST,
    CheckStmt,
    RingDecl,
    tokenize,
)
from cmtensor.polyring import MODULUS_BOUND

README = Path(__file__).resolve().parent.parent / "README.md"


def test_version_is_consistent():
    import cmtensor
    from cmtensor.frontend.report import VERSION

    assert cmtensor.__version__ == VERSION


# One row per ParseError site of the parser: (text, message, line, column).
DIAGNOSTICS = {
    # tokenize
    "number-into-name": ("2x", "number runs into a name (write an explicit '*'?)", 1, 1),
    "unexpected-character": ("ring @", "unexpected character '@'", 1, 6),
    # integer
    "integer-limit": ("ring A = poly(x) / (x^" + "9" * 5000 + ");",
        "integer literal of 5000 digits exceeds the limit of 4300 digits", 1, 23),
    # expect_op
    "expected-op": ("ring A = poly(x) (x);", "expected ';', found '('", 1, 18),
    "expected-op-eof": ("ring A = poly(x", "expected ')', found end of input", 1, 16),
    "missing-semicolon": ("ring A = poly(x)", "expected ';', found end of input", 1, 17),
    # expect_ident
    "expected-ident": ("ring 1 = poly(x);", "expected a ring name, found '1'", 1, 6),
    "expected-ident-eof": ("ring A = poly(x,",
        "expected a variable name, found end of input", 1, 17),
    # bound and declare
    "unbound": ("ring T = tensor(A, B);", "unbound name 'A'", 1, 17),
    "bound-as": ("ring A = poly(x); ideal I = A:(x); ring T = tensor(A, I);",
        "'I' is bound as an ideal, not a ring", 1, 55),
    "bound-as-ring": ("ring A = poly(x); assert grade(A, A) == 0;",
        "'A' is bound as a ring, not an ideal", 1, 35),
    "shadowing": ("ring A = poly(x); ring A = poly(y);",
        "'A' is already declared (no shadowing)", 1, 24),
    # product, power and atoms of a literal
    "literal-work": ("ring A = poly(x) / (" + "*".join(["(1 + x)"] * 800) + ");",
        "literal needs more than 500000 steps of multiplication to expand", 1, 2845),
    "integer-exponent": ("ring A = poly(x) / (x^y);", "expected an integer exponent", 1, 23),
    "power-terms": ("ring A = poly(x, y) / ((x + y)^500);",
        "polynomial of 2 terms to the power 500 may have more than 500 terms", 1, 32),
    "nesting": ("ring A = poly(x) / (" + "(" * 65 + "x" + ")" * 65 + ");",
        "parentheses nested more than 64 deep", 1, 85),
    "polynomial": ("ring A = poly(x); ideal I = A:(x, );",
        "expected a polynomial, found ')'", 1, 35),
    "polynomial-eof": ("ring A = poly(x); ideal I = A:(x +",
        "expected a polynomial, found end of input", 1, 35),
    # expressions
    "expr-arity": ("ring A = poly(x); assert grade(A) == 0;",
        "arity mismatch: grade takes 2 argument(s), got 1", 1, 33),
    "expr": ("ring A = poly(x); compute ring;",
        "expected grade/dim/height/is_cm, an integer, or true/false, found 'ring'", 1, 27),
    "expr-eof": ("ring A = poly(x); compute",
        "expected grade/dim/height/is_cm, an integer, or true/false, found end of input",
        1, 26),
    # comparisons
    "int-with-bool": ("ring A = poly(x); assert is_cm(A) == 0;",
        "cannot compare a boolean with an integer", 1, 35),
    "bool-with-int": ("ring A = poly(x); assert dim(A) == true;",
        "cannot compare an integer with a boolean", 1, 33),
    "bool-order": ("ring A = poly(x); assert is_cm(A) < true;",
        "only == and != compare booleans", 1, 35),
    # statements
    "duplicate-variable": ("ring A = poly(x, x);", "duplicate variable name", 1, 10),
    "poly-or-tensor": ("ring A = quot(x);", "expected poly(...) or tensor(...)", 1, 10),
    "comparison": ("ring A = poly(x); assert dim(A) = 1;",
        "expected a comparison (==, !=, <, <=, >, >=)", 1, 33),
    "unknown-check": ("check thm_9_9(A);", "unknown check id 'thm_9_9'", 1, 7),
    "check-arity": ("ring A = poly(x); ring B = poly(y); check thm_1_1_a(A, B);",
        "arity mismatch: thm_1_1_a takes 3 argument(s), got 2", 1, 57),
    "polynomial-list": ("ring A = poly(x); ring B = poly(y); check lemma_1_2(A, B, A, (y));",
        "expected a parenthesized polynomial list", 1, 59),
    "check-kind": ("ring A = poly(x); ring B = poly(y); check thm_2_1(A, (x));",
        "expected a ring name", 1, 54),
    "check-arg": ("ring A = poly(x); check thm_2_1(A, ;",
        "expected a name or a polynomial list, found ';'", 1, 36),
    "check-arg-eof": ("ring A = poly(x); check thm_2_1(A,",
        "expected a name or a polynomial list, found end of input", 1, 35),
    "statement": ("ring A = poly(x); 1;",
        "expected a statement (ring/ideal/assert/check/compute), found '1'", 1, 19),
}


class TestTokenizer:
    def test_positions(self):
        toks = tokenize("ring A =\n  poly(x);")
        assert toks[0].text == "ring" and toks[0].line == 1 and toks[0].col == 1
        poly_tok = [t for t in toks if t.text == "poly"][0]
        assert poly_tok.line == 2 and poly_tok.col == 3

    def test_comments_are_skipped(self):
        toks = tokenize("# nothing here\nring")
        assert toks[0].text == "ring"

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("ring @")
        assert err.value.column == 6

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            tokenize("2x")

    @pytest.mark.parametrize(
        "text, char, column",
        [
            ("ring A = poly(x) / (x^\u00b2);", "\u00b2", 23),
            ("ring A = poly(x) / (x^\u0663);", "\u0663", 23),
            ("ring A = poly(x\u00b2);", "\u00b2", 16),
            ("ring \u03b1 = poly(x);", "\u03b1", 6),
            ("ring A = poly(x); ideal I = A:(2\u03b1);", "\u03b1", 33),
        ],
        ids=["superscript-two", "arabic-indic-three", "name-superscript-two", "name-alpha",
             "alpha-after-digit"],
    )
    def test_numbers_are_ascii_digits(self, text, char, column):
        # names are ASCII too, so a non-ASCII letter or digit is never part of a token
        with pytest.raises(ParseError) as err:
            parse_session(text)
        assert (err.value.message, err.value.line, err.value.column) == (
            f"unexpected character {char!r}", 1, column
        )


class TestParser:
    def test_ring_declaration(self):
        ast = parse_session("ring A = poly(x, y) / (x^2, x*y);")
        assert len(ast.statements) == 1
        stmt = ast.statements[0]
        assert isinstance(stmt, RingDecl)
        assert stmt.vars == ("x", "y")
        assert [r.render() for r in stmt.relations] == ["x^2", "x*y"]

    def test_assert_statement(self):
        ast = parse_session("ring A = poly(x); ideal I = A:(x); assert grade(A, I) == 0;")
        stmt = ast.statements[-1]
        assert isinstance(stmt, AssertStmt)
        assert stmt.render() == "assert grade(A, I) == 0"

    def test_empty_generator_is_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_session("ring A = poly(x); ideal I = A:(x, );")
        assert "polynomial" in err.value.message

    def test_unbound_name(self):
        with pytest.raises(ParseError) as err:
            parse_session("ring T = tensor(A, B);")
        assert "unbound" in err.value.message

    def test_no_shadowing(self):
        with pytest.raises(ParseError) as err:
            parse_session("ring A = poly(x); ring A = poly(y);")
        assert "already declared" in err.value.message

    def test_kind_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_session("ring A = poly(x); assert grade(A, A) == 0;")
        assert "bound as" in err.value.message

    def test_check_arity_mismatch(self):
        text = "ring A = poly(x); ring B = poly(y); check thm_1_1_a(A, B);"
        with pytest.raises(ParseError) as err:
            parse_session(text)
        assert "arity" in err.value.message

    def test_unknown_check_id(self):
        with pytest.raises(ParseError):
            parse_session("ring A = poly(x); check thm_9_9(A);")

    def test_expr_arity(self):
        with pytest.raises(ParseError) as err:
            parse_session("ring A = poly(x); assert grade(A) == 0;")
        assert "arity" in err.value.message

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_session("ring A = poly(x)")

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("ring A = poly(x) / ({big});", 1, 21),
            ("ring A = poly(x);\nideal I = A:(x^{big});", 2, 16),
            ("ring A = poly(x);\nassert dim(A) == {big};", 2, 18),
        ],
        ids=["coefficient", "exponent", "expression"],
    )
    def test_overlong_integer_literal(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_session(text.format(big="9" * 5000))
        assert (err.value.line, err.value.column) == (line, column)
        assert err.value.message == (
            "integer literal of 5000 digits exceeds the limit of 4300 digits"
        )

    def test_power_bound_admits_its_limit(self):
        n = MAX_POWER_TERMS
        ast = parse_session(f"ring A = poly(x, y) / ((x + y)^{n - 1}, x^{10 * n}, (x - x)^{n});")
        assert [len(f.terms) for f in ast.statements[0].relations] == [n, 1, 0]

    @pytest.mark.parametrize(
        "literal, column, terms",
        [
            ("(x + y)^{n}", 35, 2),
            ("(x + y + z)^{n}", 39, 3),
            ("((x + y)^20)^20", 40, 21),
        ],
        ids=["binomial", "trinomial", "nested"],
    )
    def test_power_past_the_bound_is_refused(self, literal, column, terms):
        text = "ring A = poly(x, y, z) / (" + literal.format(n=MAX_POWER_TERMS) + ");"
        with pytest.raises(ParseError) as err:
            parse_session(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.message.startswith(f"polynomial of {terms} terms to the power")

    def test_literal_over_many_names_is_refused_quickly(self):
        # every monomial is a tuple over all 1,002 names, so the admitted
        # power (x + y)^499 becomes too costly and is refused at its exponent
        literal = "(x + y)^499 * " + "*".join(f"v{i}" for i in range(1000))
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_session(f"ring A = poly(x) / ({literal});")
        assert time.perf_counter() - started < 0.5
        assert (err.value.line, err.value.column) == (1, 29)
        assert err.value.message == (
            f"literal needs more than {MAX_LITERAL_WORK} steps of multiplication to expand"
        )

    def test_written_out_products_are_refused_at_the_offending_factor(self):
        # the k-th product of factors (1 + x) costs 2(k + 1) pairs of terms,
        # so the budget runs out at a factor, and the product just before it
        # is admitted
        literal = "*".join(["(1 + x)"] * 800)
        with pytest.raises(ParseError) as err:
            parse_session(f"ring A = poly(x) / ({literal});")
        start = err.value.column - len("ring A = poly(x) / (") - 1
        assert literal[start:start + 7] == "(1 + x)" and literal[start - 1] == "*"
        products = start // 8 - 1
        assert MIN_PAIR_COST * (products ** 2 + 3 * products) <= MAX_LITERAL_WORK
        assert MIN_PAIR_COST * ((products + 1) ** 2 + 3 * (products + 1)) > MAX_LITERAL_WORK
        ast = parse_session(f"ring A = poly(x) / ({literal[:start - 1]});")
        assert len(ast.statements[0].relations[0].terms) == products + 2

    def test_few_names_are_charged_the_pair_floor(self):
        # a pair of terms over one or two names costs about what it costs
        # over four, so 706 factors (1 + x), admitted when a pair was
        # charged the number of names and 4.5 times slower to parse than
        # (x + y)^499, are refused; (x + y)^499 stays admitted
        assert MIN_PAIR_COST == 4
        literal = "*".join(["(1 + x)"] * 706)
        with pytest.raises(ParseError) as err:
            parse_session(f"ring A = poly(x) / ({literal});")
        assert err.value.message == (
            f"literal needs more than {MAX_LITERAL_WORK} steps of multiplication to expand"
        )
        ast = parse_session("ring A = poly(x, y) / ((x + y)^499);")
        assert len(ast.statements[0].relations[0].terms) == 500

    def test_literals_reduced_mod_prime(self):
        ast = parse_session("ring A = poly(x) / (x - 6);", prime=5)
        assert ast.statements[0].relations[0].render() == "x - 1"

    def test_polynomial_precedence(self):
        ast = parse_session("ring A = poly(x, y); ideal I = A:(-x^2*y + 2);")
        lit = ast.statements[1].gens[0]
        assert lit.render() == "-x^2*y + 2"
        # a run of unary minus signs folds by parity, however long
        ast = parse_session(f"ring A = poly(x); ideal I = A:({'-' * 2001}x^2 - {'-' * 2000}1);")
        assert ast.statements[1].gens[0].render() == "-x^2 - 1"

    def test_parenthesized_subexpression(self):
        ast = parse_session("ring A = poly(x, y); ideal I = A:((x + y)^2);")
        lit = ast.statements[1].gens[0]
        assert lit.render() == "x^2 + 2*x*y + y^2"

    def test_lemma_poly_list_args(self):
        text = (
            "ring A = poly(x, y); ring B = poly(u, v); "
            "check lemma_1_2(A, B, (x, y), (u, v));"
        )
        stmt = parse_session(text).statements[-1]
        assert isinstance(stmt, CheckStmt)
        assert stmt.render() == "check lemma_1_2(A, B, (x, y), (u, v))"

    @pytest.mark.parametrize(
        "text, message, line, column", list(DIAGNOSTICS.values()), ids=list(DIAGNOSTICS)
    )
    def test_diagnostics(self, text, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_session(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)

    @settings(max_examples=150)
    @given(st.text(max_size=60))
    def test_totality_no_crash(self, text):
        # every failure must surface as a structured diagnostic
        try:
            parse_session(text)
        except ParseError:
            pass

    def test_roundtrip(self):
        text = (
            "ring A = poly(x, y) / (x^2, x*y);\n"
            "ring B = poly(z);\n"
            "ring T = tensor(A, B);\n"
            "ideal I = A:(x, y);\n"
            "ideal J = B:(z);\n"
            "assert grade(A, I) == 0;\n"
            "assert is_cm(T) != true;\n"
            "check thm_1_1_b(A, B, I, J);\n"
            "check lemma_1_2(A, B, (x - y, y^2), (z, z^3));\n"
            "compute height(T, J);\n"
        )
        ast = parse_session(text)
        printed = ast.render()
        assert parse_session(printed) == ast
        # pretty-printing is idempotent
        assert parse_session(printed).render() == printed


class TestExecutor:
    def run(self, text, prime=32003):
        return execute(parse_session(text, prime))

    def test_non_cm_session(self):
        rep = self.run(
            "ring A = poly(x, y) / (x^2, x*y);"
            "ideal I = A:(x, y);"
            "assert grade(A, I) == 0;"
            "assert dim(A) == 1;"
            "assert is_cm(A) == false;"
        )
        assert rep.passed
        statuses = [r.status for r in rep.results]
        assert statuses == ["ok", "ok", "pass", "pass", "pass"]

    def test_check_command(self):
        rep = self.run(
            "ring A = poly(x) / (x^2);"
            "ring B = poly(y) / (y^3);"
            "check thm_2_1(A, B);"
        )
        assert rep.passed
        assert rep.results[-1].lhs is True and rep.results[-1].rhs is True
        assert rep.results[-1].certificates  # embedded grade certificates

    def test_empty_session(self):
        rep = self.run("")
        assert rep.passed and rep.results == ()

    def test_assert_failure_does_not_abort(self):
        rep = self.run(
            "ring A = poly(x);"
            "ideal I = A:(x);"
            "assert grade(A, I) == 7;"
            "assert dim(A) == 1;"
        )
        assert not rep.passed
        assert [r.status for r in rep.results] == ["ok", "ok", "fail", "pass"]
        assert rep.results[2].lhs == 1 and rep.results[2].rhs == 7

    def test_kernel_error_captured_per_command(self):
        rep = self.run(
            "ring A = poly(x) / (x^2 - 1);"  # not homogeneous
            "assert is_cm(A) == true;"
        )
        assert [r.status for r in rep.results] == ["ok", "error"]
        assert "homogeneous" in rep.results[1].error

    def test_zero_ring_declaration_errors(self):
        rep = self.run("ring A = poly(x) / (1);")
        assert rep.results[0].status == "error"
        assert "zero ring" in rep.results[0].error

    def test_unknown_variable_in_ideal(self):
        rep = self.run("ring A = poly(x); ideal I = A:(nope);")
        assert rep.results[1].status == "error"
        assert "unknown variable" in rep.results[1].error

    def test_skipped_check(self):
        rep = self.run(
            "ring A = poly(x); ring B = poly(y);"
            "ideal Z = A:(0); ideal J = B:(y);"
            "check thm_1_1_c(A, B, Z, J);"
        )
        assert rep.results[-1].status == "skipped"
        assert rep.passed  # skipped is not a failure

    def test_tensor_and_prime_checks(self):
        rep = self.run(
            "ring A = poly(x, y); ring B = poly(u);"
            "ring T = tensor(A, B);"
            "ideal P = T:(x, u);"
            "check prop_2_3_a(T, P);"
            "check remark_2_5(T, P);"
        )
        assert rep.passed
        assert [r.status for r in rep.results[-2:]] == ["pass", "pass"]

    def test_determinism_excluding_timing(self):
        text = (
            "ring A = poly(x, y) / (x*y);"
            "ideal I = A:(x + y);"
            "assert grade(A, I) == 1;"
            "compute dim(A);"
        )
        ast = parse_session(text)
        j1 = execute(ast, 9).to_json(include_timing=False)
        j2 = execute(ast, 9).to_json(include_timing=False)
        assert j1 == j2

    def test_dim_of_quotient_expression(self):
        rep = self.run(
            "ring A = poly(x, y); ideal I = A:(x); assert dim(A, I) == 1;"
        )
        assert rep.passed

    def test_compute_grade_embeds_certificate(self):
        rep = self.run("ring A = poly(x, y); ideal I = A:(x, y); compute grade(A, I);")
        last = rep.results[-1]
        assert last.status == "ok" and last.lhs == 2
        assert last.certificates and last.certificates[0]["grade"] == 2

    def test_step_budget_flag_reaches_kernel(self):
        with limits(step_budget=3):
            rep = self.run("ring A = poly(x, y, z) / (x*y - z^2, y*z - x^2, x*z - y^2);")
        assert rep.results[0].status == "error"
        assert "budget" in rep.results[0].error

    def test_check_on_non_tensor_is_captured(self):
        rep = self.run(
            "ring A = poly(x); ideal P = A:(x); check prop_2_3_a(A, P);"
        )
        assert rep.results[-1].status == "error"
        assert "tensor" in rep.results[-1].error

    def test_no_variable_ring(self):
        rep = self.run(
            "ring K = poly(); ring A = poly(x); ring T = tensor(A, K);"
            "assert dim(T) == 1;"
        )
        assert rep.passed

    def test_small_prime_session(self):
        rep = self.run("ring A = poly(x) / (x + 2);", prime=3)
        # x + 2 = x - 1: not homogeneous but a legal algebra
        assert rep.results[0].status == "ok"


CHECK_SETUP = """\
ring A = poly(x, y) / (x^2, x*y);
ring B = poly(u, v);
ring C = poly(s, t);
ring T = tensor(A, B);
ring S = tensor(B, C);
ideal I = A:(x, y);
ideal J = B:(u, v);
ideal P = S:(u, s - v);
"""

CHECK_ARGS = {
    "thm_1_1_a": "A, B, I",
    "thm_1_1_b": "A, B, I, J",
    "thm_1_1_c": "A, B, I, J",
    "lemma_1_2": "B, C, (u, v^2), (s - t, t)",
    "prop_2_3_a": "S, P",
    "thm_2_1": "A, B",
    "remark_2_5": "S, P",
}


def _direct_check_args(check_id):
    """The kernel objects CHECK_SETUP declares, as CHECK_ARGS names them."""
    field = PrimeField()
    x, y = (ra := PolyRing(("x", "y"), field)).gens()
    u, v = (rb := PolyRing(("u", "v"), field)).gens()
    s, t = (rc := PolyRing(("s", "t"), field)).gens()
    A = make_algebra(ra, (x**2, x * y))
    B = make_algebra(rb)
    C = make_algebra(rc)
    S = tensor(B, C)
    su, sv, ss = (S.ring.var(n) for n in ("u", "v", "s"))
    return {
        "thm_1_1_a": (A, B, AlgebraIdeal(A, (x, y))),
        "thm_1_1_b": (A, B, AlgebraIdeal(A, (x, y)), AlgebraIdeal(B, (u, v))),
        "thm_1_1_c": (A, B, AlgebraIdeal(A, (x, y)), AlgebraIdeal(B, (u, v))),
        "lemma_1_2": (B, C, (u, v**2), (s - t, t)),
        "prop_2_3_a": (S, AlgebraIdeal(S, (su, ss - sv))),
        "thm_2_1": (A, B),
        "remark_2_5": (S, AlgebraIdeal(S, (su, ss - sv))),
    }[check_id]


class TestCheckTable:
    def run(self, statement):
        return execute(parse_session(CHECK_SETUP + statement)).results[-1]

    def test_signatures_cover_every_check(self):
        assert set(CHECK_SIGNATURES) == set(theorems.CHECK_IDS)
        assert set(CHECK_ARGS) == set(theorems.CHECK_IDS)
        # the parser may not import theorems, so each spells out a check's inputs
        for check_id, check in theorems.CHECKS.items():
            params = list(inspect.signature(check).parameters)
            assert len(CHECK_SIGNATURES[check_id]) == params.index("seed"), check_id

    @pytest.mark.parametrize("check_id", theorems.CHECK_IDS)
    def test_executor_matches_direct_call(self, check_id):
        res = self.run(f"check {check_id}({CHECK_ARGS[check_id]});")
        seed = len(parse_session(CHECK_SETUP).statements)
        direct = getattr(theorems, f"check_{check_id}")(
            *_direct_check_args(check_id), seed
        )
        assert res.status == direct.status != "error"
        assert (res.lhs, res.rhs) == (direct.lhs, direct.rhs)
        assert res.certificates == tuple(e.to_dict() for e in direct.certificates)
        assert res.assumptions == direct.assumptions
        assert res.detail == direct.detail

    def test_ideal_of_another_ring(self):
        res = self.run("check prop_2_3_a(T, J);")
        assert res.status == "error"
        assert res.error == "'J' is not an ideal of 'T'"

    def test_lemma_list_in_the_wrong_ring(self):
        res = self.run("check lemma_1_2(B, C, (u, s), (s, t));")
        assert res.status == "error"
        assert res.error == "unknown variable 's'; the ring has ('u', 'v')"


class TestReportSerialization:
    def test_roundtrip(self):
        ast = parse_session(
            "ring A = poly(x, y); ideal I = A:(x); assert grade(A, I) == 1;"
        )
        rep = execute(ast, 2)
        again = RunReport.from_json(rep.to_json())
        assert again == rep

    def test_certificates_embed_polynomial_strings(self):
        ast = parse_session("ring A = poly(x); ideal I = A:(x); assert grade(A, I) == 1;")
        rep = execute(ast)
        payload = json.loads(rep.to_json())
        certs = payload["results"][2]["certificates"]
        assert certs and certs[0]["sequence"] == ["x"]
        assert certs[0]["witness"] == "1"
        assert certs[0]["grade"] == 1


class TestCli:
    def write(self, tmp_path, text):
        path = tmp_path / "session.cmt"
        path.write_text(text)
        return str(path)

    def test_run_pass(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "ring A = poly(x, y) / (x^2, x*y); ideal I = A:(x, y);"
            "assert grade(A, I) == 0;",
        )
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_run_failure_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, "ring A = poly(x); ideal I = A:(x);"
                                    "assert grade(A, I) == 5;")
        assert main(["run", path]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_run_json_format(self, tmp_path, capsys):
        path = self.write(tmp_path, "ring A = poly(x); compute dim(A);")
        assert main(["run", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime"] == 32003
        assert payload["results"][1]["lhs"] == 1

    def test_parse_error_diagnostic(self, tmp_path, capsys):
        path = self.write(tmp_path, "ring A = poly(x,;")
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "syntax error" in err and ":1:" in err

    @pytest.mark.parametrize("row", ["int-with-bool", "bool-with-int", "bool-order"])
    def test_mixed_comparison_exits_2(self, tmp_path, capsys, row):
        text, message, line, column = DIAGNOSTICS[row]
        path = self.write(tmp_path, text)
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:{line}:{column}: syntax error: {message}\n"

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/q.cmt"]) == 2

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cmt"
        path.write_bytes(b"ring A = poly(x);\xff\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cmtensor: cannot read {path}: ") and "utf-8" in err

    def test_prime_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, "ring A = poly(x) / (x + 2*x);")
        # over F_3 the relation collapses to zero, leaving the polynomial ring
        assert main(["run", path, "--prime", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prime"] == 3

    def test_corpus_command(self, capsys):
        assert main(["corpus", "--size", "3", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_failed_declarations_and_a_skipped_check_in_the_text_report(self, tmp_path, capsys):
        # a statement naming a ring or ideal whose declaration failed is an
        # error of its own; errors and details each get their marker
        path = self.write(
            tmp_path,
            "ring A = poly(x) / (1); compute dim(A);"
            "ring B = poly(x); ideal I = B:(y); compute grade(B, I);"
            "ideal Z = B:(0); ring C = poly(y); ideal J = C:(y); check thm_1_1_c(B, C, Z, J);",
        )
        assert main(["run", path]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "cmtensor 0.1.0  prime=32003  seed=0",
            "[error] ring A = poly(x) / (1)  !! relations (1) present the zero ring",
            "[error] compute dim(A)  !! ring 'A' failed to declare earlier in the run",
            "[ok] ring B = poly(x)",
            "[error] ideal I = B:(y)  !! unknown variable 'y'; the ring has ('x',)",
            "[error] compute grade(B, I)  !! ideal 'I' failed to declare earlier in the run",
            "[ok] ideal Z = B:(0)",
            "[ok] ring C = poly(y)",
            "[ok] ideal J = C:(y)",
            "[skipped] check thm_1_1_c(B, C, Z, J)  (hypothesis violated: I must be nonzero)",
            "9 statements: 4 error, 4 ok, 1 skipped",
            "overall: FAIL",
        ]

    def test_corpus_records_an_instance_whose_checks_raise(self, capsys):
        # under this budget the corpus is generated, but one instance's
        # checks exhaust it: an error entry, and exit 1
        argv = ["corpus", "--seed", "5", "--size", "11", "--gb-step-budget", "30"]
        assert main(argv + ["--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert [r for r in results if r["status"] == "error"] == [
            {"instance": "pair-010", "status": "error", "error": "reduction step budget of 30 exhausted"}
        ]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "[error] pair-010 -  !! reduction step budget of 30 exhausted" in lines
        assert lines[-1] == "overall: FAIL"

    def test_corpus_json(self, capsys):
        assert main(["corpus", "--seed", "1", "--size", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "corpus"
        assert all(r["status"] != "fail" for r in payload["results"])

    def test_corpus_text(self, capsys):
        assert main(["corpus", "--seed", "2", "--size", "3", "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert main(["corpus", "--seed", "2", "--size", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # rendered by RunReport.to_text: header, one line per check, tally, verdict
        assert lines[0] == "cmtensor 0.1.0  prime=32003  seed=2"
        assert lines[1:-2] == [
            f"[{r['status']}] {r['instance']} {r['check']}  :: lhs={r['lhs']} rhs={r['rhs']}"
            + (f"  ({r['detail']})" if r["detail"] else "")
            for r in results
        ]
        assert lines[-2] == f"{len(results)} checks: {len(results)} pass"
        assert lines[-1] == "overall: PASS"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["run", "{path}", "--prime", "4"], 2, "cmtensor: --prime: modulus 4 is not prime"),
            (["corpus", "--prime", "4"], 2, "cmtensor: --prime: modulus 4 is not prime"),
            (["corpus", "--size", "-1"], 2, "cmtensor: --size must be at least 1, got -1"),
            (["corpus", "--size", "0"], 2, "cmtensor: --size must be at least 1, got 0"),
            (["run", "{path}", "--nzd-retries", "-1"], 2,
             "cmtensor: --nzd-retries must be at least 0, got -1"),
            (["corpus", "--nzd-retries", "-1"], 2,
             "cmtensor: --nzd-retries must be at least 0, got -1"),
            (["run", "{path}", "--gb-step-budget", "0"], 2,
             "cmtensor: --gb-step-budget must be at least 1, got 0"),
            (["run", "{path}", "--gb-step-budget", "-1"], 2,
             "cmtensor: --gb-step-budget must be at least 1, got -1"),
            (["run", "{path}", "--prime", str(2 ** 89 - 1)], 2,
             f"cmtensor: --prime: modulus {2 ** 89 - 1} is too large: primality is "
             f"checked exactly only below {MODULUS_BOUND}"),
            (["run", "{long}"], 2,
             "{long}:1:21: syntax error: integer literal of 5000 digits exceeds "
             "the limit of 4300 digits"),
            (["run", "{power}"], 2,
             "{power}:1:32: syntax error: polynomial of 2 terms to the power 3000 "
             f"may have more than {MAX_POWER_TERMS} terms"),
            (["run", "{costly}"], 2,
             "{costly}:1:29: syntax error: literal needs more than "
             f"{MAX_LITERAL_WORK} steps of multiplication to expand"),
            (["run", "{nested}"], 2,
             f"{{nested}}:1:85: syntax error: parentheses nested more than {MAX_NESTING} deep"),
            (["run", "{negated}"], 2,
             f"{{negated}}:1:2085: syntax error: parentheses nested more than {MAX_NESTING} deep"),
            (["corpus", "--size", "12", "--gb-step-budget", "1"], 1,
             "cmtensor: corpus generation failed: reduction step budget of 1 exhausted"),
        ],
        ids=[
            "run-prime", "corpus-prime", "size-negative", "size-zero",
            "run-nzd-negative", "corpus-nzd-negative", "budget-zero", "budget-negative",
            "prime-too-large", "long-integer-literal", "power-too-large",
            "literal-too-costly", "nesting-too-deep", "minus-run-then-nesting-too-deep",
            "corpus-generation-budget",
        ],
    )
    def test_bad_numbers_exit_2(self, tmp_path, capsys, argv, code, message):
        """Bad input exits 2, and a corpus that cannot be generated exits 1,
        each with one line on stderr, nothing on stdout and no traceback."""
        path = self.write(tmp_path, "ring A = poly(x); compute dim(A);")
        long = tmp_path / "long.cmt"
        long.write_text("ring A = poly(x) / (" + "9" * 5000 + ");")
        power = tmp_path / "power.cmt"
        power.write_text("ring A = poly(x, y) / ((x + y)^3000);")
        costly = tmp_path / "costly.cmt"
        costly.write_text(
            "ring A = poly(x) / ((x + y)^499 * "
            + "*".join(f"v{i}" for i in range(1000)) + ");"
        )
        nested = tmp_path / "nested.cmt"
        nested.write_text("ring A = poly(x) / (" + "(" * 300 + "x" + ")" * 300 + ");")
        negated = tmp_path / "negated.cmt"
        negated.write_text("ring A = poly(x) / (" + "-" * 2000 + "(" * 300 + "x" + ")" * 300 + ");")
        files = dict(path=path, long=long, power=power, costly=costly, nested=nested, negated=negated)
        assert main([a.format(**files) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.format(**files) + "\n"

    @pytest.mark.parametrize(
        "argv", [["run", "{path}"], ["corpus", "--size", "4"]], ids=["run", "corpus"]
    )
    def test_budget_reaches_every_step_counter(
        self, tmp_path, capsys, monkeypatch, step_counters, argv
    ):
        """With --gb-step-budget N every step counter has limit N, except
        the unbounded one of exact division."""
        divisions = []

        def exact_quotient(*args):
            divisions.append(args)
            return inner(*args)

        inner = groebner._exact_quotient
        monkeypatch.setattr(groebner, "_exact_quotient", exact_quotient)
        path = self.write(
            tmp_path,
            "ring A = poly(x, y); ring B = poly(u, v); ring T = tensor(A, B);"
            "ideal P = T:(x, u, y - v);"
            "check prop_2_3_a(T, P); check remark_2_5(T, P);",
        )
        assert main([a.format(path=path) for a in argv] + ["--gb-step-budget", "500000"]) == 0
        capsys.readouterr()
        made = [counter.limit for counter in step_counters]
        assert made.count(math.inf) == len(divisions)
        assert made.count(500000) == len(made) - len(divisions) > 0

    def test_readme_session_runs(self, tmp_path, capsys):
        blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
        session = next(b for b in blocks if "ring T = tensor(A, B);" in b)
        assert main(["run", self.write(tmp_path, session)]) == 0
        assert "overall: PASS" in capsys.readouterr().out
