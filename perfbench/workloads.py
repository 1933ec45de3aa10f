"""The three benchmark workloads: inputs, the timed pass, certification and
the output gate.

Every workload draws its inputs from the run seed through a change of
coordinates that preserves every invariant the kernel computes.  So the
verdicts pinned under ``pinned/`` hold for every seed, and the amount of
kernel work stays the same from seed to seed:

* ``corpus`` and ``bases`` scale each variable by a seed-drawn unit,
  x_i -> c_i x_i.  That keeps every support, so Groebner bases keep their
  shape and the pinned reduced bases transport exactly.
* ``session`` substitutes x_i -> x_i + c_i x_{i+1} into fixed monomial
  templates, so relations and ideal generators become products and powers
  of linear forms that the session parser has to expand.

A workload is four functions, run by ``worker.py`` in a fresh interpreter:
``setup(seed)`` builds the inputs; ``run(inputs, seed, mark, failures,
probe)`` is the timed pass and returns per-item seconds, per-item
certification seconds and the outputs; ``gate`` compares the outputs with
the pinned results; ``payload`` is their canonical form, hashed to compare
passes.  ``probe(n)`` samples the host's speed n times (``reference.py``),
between items and outside every timed region.

Certification re-checks each output independently.  In ``corpus`` and
``bases`` it follows each item, so that it is spread over the whole pass
like the items themselves, rather than gathered into one second at its end
where a short slowdown of the host could fall on all of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from collections import namedtuple
from functools import partial
from itertools import combinations_with_replacement
from pathlib import Path

from cmtensor import (
    GREVLEX,
    LEX,
    AlgebraIdeal,
    CorpusInstance,
    GradeCertificate,
    IdealPresentation,
    KernelError,
    Polynomial,
    PolyRing,
    PrimeField,
    block_order,
    buchberger,
    eliminate,
    generate_corpus,
    ideal_quotient,
    make_algebra,
    normal_form,
    run_all_checks,
    tensor,
    validate_grade_certificate,
)
from cmtensor.frontend import cli

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned"
OUT = HERE / "out"

FIELD = PrimeField()
P = FIELD.p

Workload = namedtuple("Workload", "setup run gate payload")


class Failures:
    """Gate bookkeeping: operations attempted and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.messages = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.messages.append(message)


def load_pinned(name: str):
    return json.loads((PINNED / name).read_text(encoding="utf-8"))


def _units(rng: random.Random, n: int) -> list:
    return [rng.randrange(1, P) for _ in range(n)]


def _scaled_terms(terms, units) -> dict:
    out = {}
    for m, c in terms:
        for u, e in zip(units, m):
            c = c * pow(u, e, P) % P
        out[tuple(m)] = c
    return out


def scale(f: Polynomial, units) -> Polynomial:
    """f(c_0 x_0, ..., c_{n-1} x_{n-1})."""
    return Polynomial(f.ring, _scaled_terms(f.terms.items(), units))


def parse_rendered(text: str, ring: PolyRing) -> Polynomial:
    """Read back the canonical text of ``Polynomial.render``."""
    if text == "0":
        return ring.zero
    index = {nm: i for i, nm in enumerate(ring.names)}
    terms = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        coeff = -1 if chunk.startswith("-") else 1
        exps = [0] * ring.nvars
        for factor in chunk.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e or 1)
        terms[tuple(exps)] = coeff
    return Polynomial(ring, terms)


# ---------------------------------------------------------------------------
# corpus: generate_corpus, then run_all_checks per instance, as the
# `cmtensor corpus` command does

# The acceptance suite's reference corpus is the first 32 instances of this
# seed; 64 instances leave at least ten beyond the 84th percentile.
REFERENCE_SEED = 20260809
CORPUS_SIZE = 64


def corpus_setup(seed: int) -> list:
    """The reference corpus under a seed-drawn scaling of every variable.

    Scaling keeps the work identical for every seed.  A fresh corpus per
    seed would not: over five seeds a pass made 800,933 to 936,733
    ``MonomialOrder.key`` calls, a spread that adds to the machine's noise.
    """
    rng = random.Random(seed)
    out = []
    for inst in generate_corpus(REFERENCE_SEED, CORPUS_SIZE, FIELD):
        ua = _units(rng, inst.A.ring.nvars)
        ub = _units(rng, inst.B.ring.nvars)
        A = make_algebra(inst.A.ring, [scale(g, ua) for g in inst.A.relations.generators])
        B = make_algebra(inst.B.ring, [scale(g, ub) for g in inst.B.relations.generators])
        T = tensor(A, B)
        if T.ring != inst.T.ring:
            raise RuntimeError(f"{inst.tag}: the tensor ambient changed under scaling")
        out.append(
            CorpusInstance(
                tag=inst.tag,
                A=A,
                B=B,
                T=T,
                I=AlgebraIdeal(A, [scale(g, ua) for g in inst.I.gens]),
                J=AlgebraIdeal(B, [scale(g, ub) for g in inst.J.gens]),
                P=None if inst.P is None else AlgebraIdeal(T, [scale(g, ua + ub) for g in inst.P.gens]),
                xs=tuple(scale(g, ua) for g in inst.xs),
                ys=tuple(scale(g, ub) for g in inst.ys),
                labels=inst.labels,
            )
        )
    return out


def _timed_each(calls, mark, failures: Failures, probe) -> tuple:
    """Time each (group, call, certify), then certify(output, failures) on
    its output.  A KernelError the call raises becomes its output, and is
    not certified.  The host is sampled before each item, before each
    certification and after the last one."""
    items = []
    certify_items = []
    outputs = []
    for group, call, certify in calls:
        probe()
        mark(group)
        started = time.perf_counter()
        try:
            result = call()
        except KernelError as exc:
            result = exc
        items.append(time.perf_counter() - started)
        outputs.append(result)
        probe()
        mark("certify")
        started = time.perf_counter()
        if not isinstance(result, KernelError):
            certify(result, failures)
        certify_items.append(time.perf_counter() - started)
    probe()
    return items, certify_items, outputs


def corpus_run(instances, seed: int, mark, failures: Failures, probe) -> tuple:
    return _timed_each(
        ((f"instance:{inst.tag}", partial(run_all_checks, inst, seed + index),
          partial(corpus_certify, inst))
         for index, inst in enumerate(instances)),
        mark,
        failures,
        probe,
    )


def corpus_certify(inst, reports, failures: Failures) -> None:
    """validate_grade_certificate on every certificate of every check."""
    for rep in reports:
        for evidence in rep.certificates:
            try:
                evidence.revalidate()
                failures.check(True, "")
            except KernelError as exc:
                failures.check(False, f"{inst.tag} {rep.check_id} {evidence.label}: {exc}")


def corpus_verdicts(instances, outputs) -> list:
    """[tag, check, status, lhs, rhs, detail] per check: the pinned form."""
    rows = []
    for inst, reports in zip(instances, outputs):
        if isinstance(reports, KernelError):
            rows.append([inst.tag, "-", "error", None, None, str(reports)])
        else:
            rows += [[inst.tag, r.check_id, r.status, r.lhs, r.rhs, r.detail] for r in reports]
    return rows


def corpus_gate(instances, outputs, seed: int, failures: Failures) -> None:
    """Every verdict and skip clause equals the pinned one, for any seed."""
    got = corpus_verdicts(instances, outputs)
    pinned = load_pinned("corpus.json")
    for i, row in enumerate(got):
        want = pinned[i] if i < len(pinned) else None
        failures.check(row[2] != "fail" and row == want, f"check {i}: {row}, pinned {want}")
    failures.check(len(got) == len(pinned), f"{len(got)} checks ran, {len(pinned)} pinned")


def corpus_payload(instances, outputs) -> list:
    return [
        {"instance": inst.tag, "error": str(reports)}
        if isinstance(reports, KernelError)
        else [{"instance": inst.tag, **rep.to_dict()} for rep in reports]
        for inst, reports in zip(instances, outputs)
    ]


# ---------------------------------------------------------------------------
# bases: a few large Groebner computations, no input repeated


def katsura(n: int) -> list:
    ring = PolyRing(tuple(f"x{i}" for i in range(n + 1)), FIELD)
    x = ring.gens()

    def u(level):
        return x[abs(level)] if abs(level) <= n else ring.zero

    eqs = [
        sum((u(l) * u(m - l) for l in range(-n, n + 1)), ring.zero) - u(m)
        for m in range(n)
    ]
    eqs.append(sum((u(l) for l in range(-n, n + 1)), ring.zero) - 1)
    return eqs


def cyclic(n: int) -> list:
    ring = PolyRing(tuple(f"z{i}" for i in range(n)), FIELD)
    z = ring.gens()
    eqs = []
    for d in range(1, n):
        total = ring.zero
        for j in range(n):
            term = ring.one
            for k in range(d):
                term = term * z[(j + k) % n]
            total = total + term
        eqs.append(total)
    prod = ring.one
    for v in z:
        prod = prod * v
    eqs.append(prod - 1)
    return eqs


def dense_form(ring: PolyRing, degree: int, rng: random.Random) -> Polynomial:
    terms = {}
    for combo in combinations_with_replacement(range(ring.nvars), degree):
        m = [0] * ring.nvars
        for i in combo:
            m[i] += 1
        terms[tuple(m)] = rng.randrange(1, P)
    return Polynomial(ring, terms)


def dense_quotient():
    """Dense forms l, q1, q2, c in 6 variables.  (l*q1, l*q2, c) : (l) is
    (q1, q2, c), because l is a nonzerodivisor modulo that complete
    intersection.  (A quotient of two dense 6-variable intersections took
    70 s, so the problem stays this size.)"""
    rng = random.Random(7)
    ring = PolyRing(tuple(f"y{i}" for i in range(6)), FIELD)
    l, q1, q2, c = (dense_form(ring, d, rng) for d in (1, 2, 2, 2))
    return [l * q1, l * q2, c, l], [q1, q2, c]


def bases_problems() -> list:
    """(name, order, generators) before scaling.

    The dense quotient's last generator is the divisor."""
    c5 = cyclic(5)
    return [
        ("katsura5-grevlex", GREVLEX, katsura(5)),
        ("cyclic5-grevlex", GREVLEX, c5),
        ("katsura4-lex", LEX, katsura(4)),
        ("cyclic5-eliminate-z0z1", block_order((0, 1)), c5),
        ("dense6-quotient", GREVLEX, dense_quotient()[0]),
    ]


def bases_setup(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for name, order, gens in bases_problems():
        units = _units(rng, gens[0].ring.nvars)
        out.append((name, order, [scale(g, units) for g in gens], units))
    return out


def solve(name: str, order, gens) -> tuple:
    ring = gens[0].ring
    if name == "cyclic5-eliminate-z0z1":
        return eliminate(IdealPresentation(ring, gens), ["z0", "z1"]).generators
    if name == "dense6-quotient":
        *num, divisor = gens
        Q = ideal_quotient(IdealPresentation(ring, num), IdealPresentation(ring, (divisor,)))
        return Q.reduced_basis()
    return tuple(buchberger(gens, order))


def bases_run(problems, seed: int, mark, failures: Failures, probe) -> tuple:
    return _timed_each(
        ((f"problem:{problem[0]}", partial(solve, *problem[:3]), partial(bases_certify, problem))
         for problem in problems),
        mark,
        failures,
        probe,
    )


def _spoly(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """The S-polynomial, or zero when the leading monomials are coprime
    (Buchberger's first criterion: it then reduces to zero)."""
    (mf, cf), (mg, cg) = f.leading_term(order), g.leading_term(order)
    if not any(a and b for a, b in zip(mf, mg)):
        return f.ring.zero
    lcm = [max(a, b) for a, b in zip(mf, mg)]
    sf = f.ring.monomial([a - b for a, b in zip(lcm, mf)], FIELD.inv(cf))
    sg = f.ring.monomial([a - b for a, b in zip(lcm, mg)], FIELD.inv(cg))
    return sf * f - sg * g


def bases_certify(problem, basis, failures: Failures) -> None:
    """Buchberger's criterion on the basis, plus the inclusion the problem
    implies: the inputs, or the known quotient generators, reduce to zero."""
    name, order, gens, units = problem
    members = {
        "cyclic5-eliminate-z0z1": (),
        "dense6-quotient": [scale(g, units) for g in dense_quotient()[1]],
    }.get(name, gens)
    basis = list(basis)
    ok = all(
        not normal_form(_spoly(basis[i], basis[j], order), basis, order).terms
        for i in range(len(basis))
        for j in range(i)
    ) and all(not normal_form(g, basis, order).terms for g in members)
    failures.check(ok, f"{name}: the output is not a Groebner basis of the expected ideal")


def basis_rows(basis, order) -> list:
    """Each element as [exponents..., coefficient] rows, leading term first."""
    return [
        [list(m) + [g.terms[m]] for m in sorted(g.terms, key=order.key, reverse=True)]
        for g in basis
    ]


def bases_gate(problems, outputs, seed: int, failures: Failures) -> None:
    """Each basis equals the pinned one carried through the scaling.  Scaling
    keeps every monomial, so the pinned leading term stays leading."""
    pinned = load_pinned("bases.json")
    for (name, order, _, units), basis in zip(problems, outputs):
        if isinstance(basis, KernelError):
            failures.check(False, f"{name}: {basis}")
            continue
        expected = []
        for rows in pinned[name]:
            terms = _scaled_terms(((row[:-1], row[-1]) for row in rows), units)
            inv = pow(terms[tuple(rows[0][:-1])], P - 2, P)
            expected.append({m: c * inv % P for m, c in terms.items()})
        failures.check(
            [g.terms for g in basis] == expected, f"{name}: the basis differs from the pinned one"
        )


def bases_payload(problems, outputs) -> list:
    return [
        [name, str(basis) if isinstance(basis, KernelError) else basis_rows(basis, order)]
        for (name, order, _, _), basis in zip(problems, outputs)
    ]


# ---------------------------------------------------------------------------
# session: `cmtensor run FILE --format json` on a generated session

# Factor templates: variables, monomial relations as exponent tuples, Krull
# dimension, and whether the factor is Cohen-Macaulay.
LEFT = (
    (("x", "y", "z"), (), 3, True),
    (("x", "y", "z"), ((2, 1, 0),), 2, True),
    (("x", "y", "z"), ((2, 0, 0), (0, 3, 0)), 1, True),
    (("x", "y", "z"), ((2, 0, 0), (1, 1, 0)), 2, False),
)
RIGHT = (
    (("u", "v"), (), 2, True),
    (("u", "v"), ((2, 0), (0, 2)), 0, True),
    (("u", "v"), ((3, 1),), 1, True),
    (("u", "v"), ((2, 0), (1, 1)), 1, False),
)
LEFT_IDEALS = (((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 0, 2)), ((0, 1, 0),))
RIGHT_IDEALS = (((1, 0),), ((1, 0), (0, 1)), ((0, 2),))
CHECKS = ("thm_1_1_a", "thm_1_1_b", "thm_1_1_c", "thm_2_1", "lemma_1_2")
SESSION_BLOCKS = 22

# The README's example session, verbatim.  Its last statement is refused
# because J is declared over B, not T; the pinned results expect that error.
README_SESSION = """\
# the classic failure of the Cohen-Macaulay property
ring A = poly(x, y) / (x^2, x*y);
ring B = poly(z);
ring T = tensor(A, B);
ideal I = A:(x, y);
ideal J = B:(z);
assert grade(A, I) == 0;
assert dim(A) == 1;
assert is_cm(A) == false;
check thm_1_1_b(A, B, I, J);
check thm_2_1(A, B);
compute height(T, J);
"""


class _Coordinates:
    """The forms x_i + c_i x_{i+1} (the last variable kept) of one factor,
    as polynomials and as session text."""

    def __init__(self, ring: PolyRing, rng: random.Random):
        names = ring.names
        self.polys = []
        self.texts = []
        for i, x in enumerate(ring.gens()):
            if i + 1 < ring.nvars:
                c = rng.randrange(1, P)
                self.polys.append(x + c * ring.var(i + 1))
                self.texts.append(f"({names[i]} + {c}*{names[i + 1]})")
            else:
                self.polys.append(x)
                self.texts.append(names[i])

    def image(self, exps) -> tuple:
        """The monomial with exponents `exps` in the new coordinates."""
        poly = None
        texts = []
        for form, text, e in zip(self.polys, self.texts, exps):
            if e:
                poly = form ** e if poly is None else poly * form ** e
                texts.append(text if e == 1 else f"{text}^{e}")
        return poly, "*".join(texts)


def _block(k: int, rng: random.Random, certified: dict) -> list:
    """One block of 23 statements over template pair k; every assert holds
    by construction, and each grade or is_cm label is recorded with the
    relations and ideal it certifies."""
    lvars, lrels, ldim, lcm = LEFT[k % len(LEFT)]
    rvars, rrels, rdim, _ = RIGHT[(k // len(LEFT)) % len(RIGHT)]
    left, right = PolyRing(lvars, FIELD), PolyRing(rvars, FIELD)
    fl, fr = _Coordinates(left, rng), _Coordinates(right, rng)
    lrel = [fl.image(e) for e in lrels]
    rrel = [fr.image(e) for e in rrels]
    igens = [fl.image(e) for e in LEFT_IDEALS[k % len(LEFT_IDEALS)]]
    jgens = [fr.image(e) for e in RIGHT_IDEALS[k % len(RIGHT_IDEALS)]]
    A, B, T, I, J, K, L, M = (f"{s}{k}" for s in "ABTIJKLM")

    def ring_line(name, names, rels):
        body = f"ring {name} = poly({', '.join(names)})"
        if rels:
            body += " / (" + ", ".join(t for _, t in rels) + ")"
        return body + ";"

    check = CHECKS[k % len(CHECKS)]
    args = {
        "thm_1_1_a": f"{A}, {B}, {I}",
        "thm_1_1_b": f"{A}, {B}, {I}, {J}",
        "thm_1_1_c": f"{A}, {B}, {I}, {J}",
        "thm_2_1": f"{A}, {B}",
        "lemma_1_2": f"{A}, {B}, ({fl.texts[-1]}), ({fr.texts[0]} + {fr.texts[1]})",
    }[check]
    lrel_polys = tuple(p for p, _ in lrel)
    certified[f"grade({A}, {I})"] = (left, lrel_polys, [p for p, _ in igens])
    certified[f"is_cm({A})"] = (left, lrel_polys, None)
    certified[f"grade({B}, {J})"] = (right, tuple(p for p, _ in rrel), [p for p, _ in jgens])
    return [
        f"# block {k}",
        ring_line(A, lvars, lrel),
        ring_line(B, rvars, rrel),
        f"ring {T} = tensor({A}, {B});",
        f"ideal {I} = {A}:(" + ", ".join(t for _, t in igens) + ");",
        f"ideal {J} = {B}:(" + ", ".join(t for _, t in jgens) + ");",
        f"ideal {K} = {T}:({fl.texts[0]}, {fr.texts[0]});",
        f"ideal {L} = {T}:({fl.texts[0]}*{fr.texts[0]}, {fl.texts[1]}^2*{fr.texts[1]});",
        f"ideal {M} = {T}:({fl.texts[1]}^2 - {fl.texts[0]}*{fl.texts[2]}, {fr.texts[0]}^2);",
        f"compute dim({A});",
        f"assert dim({T}) == {ldim + rdim};",
        f"compute height({A}, {I});",
        f"assert dim({A}, {I}) <= dim({A});",
        f"compute height({T}, {K});",
        f"assert height({T}, {K}) <= dim({T});",
        f"compute height({T}, {L});",
        f"assert dim({T}, {L}) <= dim({T});",
        f"compute height({T}, {M});",
        f"compute dim({T}, {M});",
        f"compute grade({B}, {J});",
        f"assert grade({A}, {I}) <= height({A}, {I});",
        f"assert is_cm({A}) == {'true' if lcm else 'false'};",
        f"check {check}({args});",
    ]


def session_text(seed: int) -> tuple:
    """The session source, and per certificate label (ring, relations,
    ideal generators or None for the irrelevant ideal)."""
    rng = random.Random(seed)
    certified = {}
    lines = []
    for k in range(SESSION_BLOCKS):
        lines += _block(k, rng, certified)
    readme = PolyRing(("x", "y"), FIELD)
    x, y = readme.gens()
    certified["grade(A, I)"] = (readme, (x ** 2, x * y), [x, y])
    certified["is_cm(A)"] = (readme, (x ** 2, x * y), None)
    return "\n".join(lines) + "\n" + README_SESSION, certified


SESSION_PROBES = 12


def session_setup(seed: int) -> tuple:
    text, certified = session_text(seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"session-{os.getpid()}.cmt"
    path.write_text(text, encoding="utf-8")
    return path, certified


def session_run(inputs, seed: int, mark, failures: Failures, probe) -> tuple:
    """The CLI call; then, since its report only exists at the end, the
    certificates in it, each timed.  The host can only be sampled before
    and after the call, so each time it is sampled SESSION_PROBES times."""
    path, certified = inputs
    probe(SESSION_PROBES)
    mark("session")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", str(path), "--format", "json"])
    probe(SESSION_PROBES)
    report = json.loads(out.getvalue())
    items = [r["ms"] / 1000.0 for r in report["results"]]
    for r in report["results"]:
        del r["ms"]
    mark("certify")
    return items, session_certify(certified, report, failures), (code, report)


def session_certify(certified, report, failures: Failures) -> list:
    """validate_grade_certificate on the certificate of every grade and
    is_cm statement, read back from the JSON report; seconds per check."""
    seconds = []
    for r in report["results"]:
        for data in r["certificates"]:
            if data["label"] not in certified:
                continue  # a check's certificate over a derived ideal
            started = time.perf_counter()
            ring, relations, gens = certified[data["label"]]
            A = make_algebra(ring, relations)
            I = AlgebraIdeal(A, ring.gens() if gens is None else gens)
            cert = GradeCertificate(
                sequence=tuple(parse_rendered(s, ring) for s in data["sequence"]),
                witness=parse_rendered(data["witness"], ring),
                stage_ideals=tuple(
                    tuple(parse_rendered(s, ring) for s in stage) for stage in data["stages"]
                ),
                grade=data["grade"],
            )
            try:
                validate_grade_certificate(A, I, cert)
                failures.check(True, "")
            except KernelError as exc:
                failures.check(False, f"{r['command']} {data['label']}: {exc}")
            seconds.append(time.perf_counter() - started)
    return seconds


def session_verdicts(outputs) -> dict:
    """The pinned form: exit code and [status, lhs, rhs, error] per statement."""
    code, report = outputs
    return {
        "exit_code": code,
        "results": [[r["status"], r["lhs"], r["rhs"], r["error"]] for r in report["results"]],
    }


def session_payload(inputs, outputs) -> str:
    """The canonical JSON report with the `ms` fields dropped."""
    return json.dumps(outputs[1], indent=2, sort_keys=True) + "\n"


def session_gate(inputs, outputs, seed: int, failures: Failures) -> None:
    """Every statement's result equals the pinned one for any seed; for the
    pinned seeds the whole canonical report is compared by digest."""
    pinned = load_pinned("session.json")
    got = session_verdicts(outputs)
    failures.check(got["exit_code"] == pinned["exit_code"], f"exit code {got['exit_code']}")
    for i, row in enumerate(got["results"]):
        want = pinned["results"][i] if i < len(pinned["results"]) else None
        failures.check(row == want, f"statement {i}: {row}, pinned {want}")
    failures.check(
        len(got["results"]) == len(pinned["results"]),
        f"{len(got['results'])} statements ran, {len(pinned['results'])} pinned",
    )
    digest = pinned["digests"].get(str(seed))
    if digest is not None:
        text = session_payload(inputs, outputs)
        failures.check(
            hashlib.sha256(text.encode()).hexdigest() == digest,
            "the canonical report differs from the pinned one",
        )


WORKLOADS = {
    "corpus": Workload(corpus_setup, corpus_run, corpus_gate, corpus_payload),
    "bases": Workload(bases_setup, bases_run, bases_gate, bases_payload),
    "session": Workload(session_setup, session_run, session_gate, session_payload),
}
