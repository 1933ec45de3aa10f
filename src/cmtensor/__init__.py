"""Commutative algebra kernel for grade, height, and Cohen-Macaulay checks
on tensor products of finitely presented algebras over a prime field."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraIdeal,
    AlgebraPresentation,
    TensorAlgebra,
    contract,
    embed_ideal,
    joined_ideal,
    make_algebra,
    product_ideal,
    quotient_algebra,
    tensor,
)
from .context import DEFAULT_STEP_BUDGET, limits
from .errors import (
    AmbientMismatchError,
    CertificateError,
    GradedOnlyError,
    ImproperIdealError,
    KernelError,
    NzdSearchExhausted,
    ParseError,
    PermutationBoundExceeded,
    SessionError,
    StepBudgetExceeded,
    ZeroPolynomialError,
    ZeroRingError,
)
from .groebner import (
    IdealPresentation,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    normal_form,
)
from .invariants import (
    CmVerdict,
    GradeCertificate,
    dim_quotient,
    grade,
    height,
    is_cohen_macaulay,
    is_permutable_regular_sequence,
    is_regular_sequence,
    krull_dim,
    validate_grade_certificate,
)
from .polyring import (
    DEFAULT_PRIME,
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    PolyRing,
    PrimeField,
    block_order,
)
from .theorems import (
    CHECK_IDS,
    CorpusInstance,
    GradeEvidence,
    TheoremReport,
    check_lemma_1_2,
    check_prop_2_3_a,
    check_remark_2_5,
    check_thm_1_1_a,
    check_thm_1_1_b,
    check_thm_1_1_c,
    check_thm_2_1,
    generate_corpus,
    run_all_checks,
)
