"""Golden corpus certificates: every report of the first corpus instances.

The benchmark compares verdicts only.  This pins the full report of each
check, certificates included (sequence, witness and stage chain), byte
for byte, so a change that keeps the grades but alters the chosen
nonzerodivisors, random draws or witnesses fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

from cmtensor import generate_corpus, run_all_checks

GOLDEN = Path(__file__).parent / "golden" / "corpus_reports.json"
CORPUS_SEED = 20260809
CORPUS_SIZE = 8


def corpus_reports() -> list:
    return [
        [r.to_dict() for r in run_all_checks(inst, i)]
        for i, inst in enumerate(generate_corpus(CORPUS_SEED, CORPUS_SIZE))
    ]


def render(reports) -> str:
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def test_corpus_reports_match_golden():
    assert render(corpus_reports()) == GOLDEN.read_text(encoding="utf-8")
