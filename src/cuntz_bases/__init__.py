"""Localized orthonormal bases from subdivision isometries.

Exact dyadic step functions and trig hybrids on [0,1), the two-branch
isometry pair and its general-N cousin, the recursive square-wave basis,
entropy best-basis analysis over the subdivision tree, and the scale-4
Cantor measure with its exponential spectrum.

The public names load on first use (PEP 562): ``from cuntz_bases import X``
imports only the submodule that defines X.  ``entropy`` is bound at import,
because the submodule of that name would otherwise replace the function as
the package attribute when it loads; that import also loads ``dyadic``,
``operators``, ``basis`` and ``reporting``.
"""

import importlib
import os
import sys

# The library's one BLAS call (the Gram in basis._gram_gaps) is exact in any
# summation order, and each OpenBLAS worker thread costs every process CPU
# time from the moment numpy loads; a value the user set always wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .entropy import entropy

_EXPORTS = {
    "dyadic": ("DyadicStep", "MultiIndex", "StepFunction", "as_rational", "enumerate_words",
               "rational_str"),
    "trig": ("HybridFunction", "TrigAtom", "classify_reflection", "fourier_coeffs",
             "hybrid_inner", "make_atom", "make_cos", "make_sine"),
    "operators": ("GeneralRepN", "INTERVAL_REP", "IntervalRep2", "NAdicStep", "adjoint_word",
                  "apply_word", "s_adjoint", "s_apply", "verify_cuntz",
                  "verify_unitary_matrix"),
    "basis": ("GeneratorCover", "SubspaceFrame", "build_frame", "compute_K",
              "frames_orthogonal", "gram_identity_gap", "greedy_generators", "ingest_signal",
              "verify_decomposition", "verify_decomposition_levels", "walsh", "walsh_expand",
              "walsh_synthesize", "walsh_word"),
    "entropy": ("EntropyTree", "best_basis", "build_entropy_tree", "onb_entropy",
                "projection_masses", "verify_entropy_recursion"),
    "cantor": ("CantorStep", "LambdaPoint", "bessel_sum", "coefficient_table",
               "exp_coefficient", "gram_exponentials", "indicator_relation_check", "lambda_set",
               "mu_hat", "mu_hat_is_zero", "verify_lambda_partition"),
    "reporting": ("Tally", "VerificationReport"),
    "verification": ("run_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "entropy"])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
