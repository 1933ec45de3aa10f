"""Byte-identity of the whole 64-instance reference corpus.

``test_corpus_golden`` pins the full reports of the first instances as
text.  This pins one sha256 per instance of the canonical JSON of its
reports, certificates included, for every instance of the corpus the
benchmark runs, and revalidates every certificate.  A change to the
kernel that keeps the grades but alters a chosen nonzerodivisor, a random
draw or a witness anywhere in the corpus fails here.

Regenerate the digests (only for a change that means to alter outputs)
with ``PYTHONPATH=src python tests/test_corpus_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from cmtensor import generate_corpus, run_all_checks
from test_corpus_golden import CORPUS_SEED, render

DIGESTS = Path(__file__).parent / "golden" / "corpus_digests.json"
REFERENCE_SIZE = 64


def corpus_runs() -> list:
    """(tag, reports) for each instance, each run at its index as seed."""
    return [
        (inst.tag, run_all_checks(inst, i))
        for i, inst in enumerate(generate_corpus(CORPUS_SEED, REFERENCE_SIZE))
    ]


def digest(reports) -> str:
    text = render([r.to_dict() for r in reports])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_reports_match_the_pinned_digests_and_revalidate():
    runs = corpus_runs()
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [[tag, digest(reports)] for tag, reports in runs] == pinned
    certificates = [e for _, reports in runs for r in reports for e in r.certificates]
    for evidence in certificates:
        evidence.revalidate()
    assert len(certificates) == 796


if __name__ == "__main__":
    rows = [[tag, digest(reports)] for tag, reports in corpus_runs()]
    DIGESTS.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
