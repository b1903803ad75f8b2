"""Localized orthonormal bases from subdivision isometries.

Exact dyadic step functions and trig hybrids on [0,1), the two-branch
isometry pair and its general-N cousin, the recursive square-wave basis,
entropy best-basis analysis over the subdivision tree, and the scale-4
Cantor measure with its exponential spectrum.
"""

from .dyadic import (
    DyadicStep,
    MultiIndex,
    Rational,
    StepFunction,
    as_rational,
    digits_of,
    enumerate_words,
    evaluate,
    inner,
    multiindex_order,
    normalize,
    parse_rational,
    rational_str,
    refine,
)
from .trig import (
    HybridFunction,
    TrigAtom,
    classify_reflection,
    fourier_coeffs,
    hybrid_inner,
    hybrid_norm_sq,
    make_atom,
    make_cos,
    make_sine,
)
from .operators import (
    GeneralRepN,
    INTERVAL_REP,
    IntervalRep2,
    NAdicStep,
    adjoint_word,
    apply_word,
    s_adjoint,
    s_adjoint_hybrid,
    s_apply,
    s_apply_hybrid,
    verify_cuntz,
    verify_unitary_matrix,
)
from .basis import (
    GeneratorCover,
    SubspaceFrame,
    WalshSystem,
    build_frame,
    compute_K,
    frames_orthogonal,
    gram_identity_gap,
    greedy_generators,
    ingest_signal,
    verify_decomposition,
    walsh,
    walsh_expand,
    walsh_synthesize,
    walsh_word,
)
from .entropy import (
    EntropyTree,
    best_basis,
    build_entropy_tree,
    entropy,
    onb_entropy,
    projection_masses,
    verify_entropy_recursion,
)
from .cantor import (
    CantorStep,
    LambdaPoint,
    bessel_sum,
    coefficient_table,
    exp_coefficient,
    gram_exponentials,
    indicator_relation_check,
    lambda_set,
    mu_hat,
    mu_hat_is_zero,
    verify_lambda_partition,
)
from .reporting import VerificationReport
from .verification import run_suite

__version__ = "0.1.0"
