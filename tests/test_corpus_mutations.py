"""Tampered corpus certificates must be refused.

``test_corpus_digests`` revalidates every certificate of the 64-instance
reference corpus.  This tampers with each of them in three ways that
``validate_grade_certificate`` must catch:

- the witness replaced by a generator of the final stage, which lies in
  that stage;
- for a grade of at least 1, the last sequence element dropped with its
  stage.  The witness w then no longer annihilates I: if w * f_k lay in
  stage k - 1, so would w, since f_k is a nonzerodivisor there, while w
  lies outside stage k.  Since f_k lies in I, some generator g of I has
  w * g outside stage k - 1, and no such g is a generator of that stage;
- for a grade of at least 1, the last sequence element f_k repeated with
  its stage.  f_k lies in stage k, so it is a zerodivisor modulo that
  stage: (stage k : f_k) is the unit ideal, and stage k is proper, since
  the witness lies outside it.  Monomial stages refuse it by divisibility
  and the others by a colon and normal forms.
"""

from __future__ import annotations

import pytest

from cmtensor import CertificateError, validate_grade_certificate
from test_corpus_digests import corpus_runs


def test_tampered_corpus_certificates_are_refused():
    evidence = [e for _, reports in corpus_runs() for r in reports for e in r.certificates]
    replaced = dropped = repeated = 0
    for e in evidence:
        cert = e.certificate
        final = cert.stage_ideals[-1]
        if final:
            bad = cert._replace(witness=final[0])
            with pytest.raises(CertificateError, match="lies in the final stage"):
                validate_grade_certificate(e.algebra, e.ideal, bad)
            replaced += 1
        if cert.grade:
            bad = cert._replace(
                sequence=cert.sequence[:-1],
                stage_ideals=cert.stage_ideals[:-1],
                grade=cert.grade - 1,
            )
            with pytest.raises(CertificateError, match="does not annihilate"):
                validate_grade_certificate(e.algebra, e.ideal, bad)
            dropped += 1
            k = cert.grade
            bad = cert._replace(
                sequence=cert.sequence + cert.sequence[-1:],
                stage_ideals=cert.stage_ideals + (cert.stage_ideals[-1] + cert.sequence[-1:],),
                grade=k + 1,
            )
            with pytest.raises(CertificateError, match=f"f_{k + 1} is a zerodivisor modulo stage {k}$"):
                validate_grade_certificate(e.algebra, e.ideal, bad)
            repeated += 1
    assert (len(evidence), replaced, dropped, repeated) == (796, 787, 530, 530)
