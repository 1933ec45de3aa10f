"""Golden front-end output: exact command strings and canonical reports.

The rendered `command` strings and the timing-free JSON report of these
sessions are pinned byte for byte, so any change to how polynomial
literals are parsed, ordered, rendered or moved into a declared ring
shows up here as a failure rather than as a silent difference.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from cmtensor.frontend import execute, parse_session

GOLDEN = Path(__file__).parent / "golden"

MAIN_SESSION = """\
# variables declared out of alphabetical order
ring A = poly(y, x) / (y*x - x^2);
ring B = poly(z, y, x);
# x*z leads y^2 in deglex; grevlex over (x, y, z) would put y^2 first
ideal J = B:(y^2 + z*x, -(-(z - 2*x)*(y + 1)));
ideal I = A:((x + y)^3, x*y);
# cancellation to zero and a constant-only literal
ideal U = A:(x - x, 2*3 - 1);
ideal Bad = B:(z*nope - 3);
ring C = poly(v, u);
ring D = poly(t, s);
check lemma_1_2(C, D, (u, v^2), (s - t, -t));
compute grade(B, J);
compute height(A, I);
compute dim(A, U);
assert dim(A) == 1;
"""

MAIN_COMMANDS = [
    "ring A = poly(y, x) / (-x^2 + x*y)",
    "ring B = poly(z, y, x)",
    "ideal J = B:(x*z + y^2, -2*x*y + y*z - 2*x + z)",
    "ideal I = A:(x^3 + 3*x^2*y + 3*x*y^2 + y^3, x*y)",
    "ideal U = A:(0, 5)",
    "ideal Bad = B:(nope*z - 3)",
    "ring C = poly(v, u)",
    "ring D = poly(t, s)",
    "check lemma_1_2(C, D, (u, v^2), (s - t, -t))",
    "compute grade(B, J)",
    "compute height(A, I)",
    "compute dim(A, U)",
    "assert dim(A) == 1",
]

SMALL_PRIME_SESSION = """\
ring A = poly(x);
ideal I = A:(6*x, 13*x^2 + 7);
compute grade(A, I);
"""

SMALL_PRIME_COMMANDS = [
    "ring A = poly(x)",
    "ideal I = A:(-x, -x^2)",
    "compute grade(A, I)",
]

CASES = [
    ("main", MAIN_SESSION, 32003, 5, MAIN_COMMANDS),
    ("prime7", SMALL_PRIME_SESSION, 7, 0, SMALL_PRIME_COMMANDS),
]


@pytest.mark.parametrize(
    "name, text, prime, seed, commands", CASES, ids=[c[0] for c in CASES]
)
def test_golden_session(name, text, prime, seed, commands):
    report = execute(parse_session(text, prime), seed)
    assert [r.command for r in report.results] == commands
    expected = (GOLDEN / f"session_{name}.json").read_text(encoding="utf-8")
    assert report.to_json(include_timing=False) == expected

