"""Localized orthonormal bases from subdivision isometries.

Exact dyadic step functions and trig hybrids on [0,1), the two-branch
isometry pair and its general-N cousin, the recursive square-wave basis,
entropy best-basis analysis over the subdivision tree, and the scale-4
Cantor measure with its exponential spectrum.
"""

import os
import sys

# The library's one BLAS call (the Gram in basis._gram_gaps) is exact in any
# summation order, and each OpenBLAS worker thread costs every process CPU
# time from the moment numpy loads; a value the user set always wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dyadic import (
    DyadicStep,
    MultiIndex,
    StepFunction,
    as_rational,
    enumerate_words,
    rational_str,
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
    s_apply,
    verify_cuntz,
    verify_unitary_matrix,
)
from .basis import (
    GeneratorCover,
    SubspaceFrame,
    build_frame,
    compute_K,
    frames_orthogonal,
    gram_identity_gap,
    greedy_generators,
    ingest_signal,
    verify_decomposition,
    verify_decomposition_levels,
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
from .reporting import Tally, VerificationReport
from .verification import run_suite

__version__ = "0.1.0"
