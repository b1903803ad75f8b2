"""The package's public surface: the names ``import cuntz_bases`` exports."""

import types

import cuntz_bases

PUBLIC = [
    "CantorStep", "DyadicStep", "EntropyTree", "GeneralRepN", "GeneratorCover",
    "HybridFunction", "INTERVAL_REP", "IntervalRep2", "LambdaPoint", "MultiIndex",
    "NAdicStep", "StepFunction", "SubspaceFrame", "Tally", "TrigAtom",
    "VerificationReport", "adjoint_word", "apply_word", "as_rational", "bessel_sum",
    "best_basis", "build_entropy_tree", "build_frame", "classify_reflection",
    "coefficient_table", "compute_K", "entropy", "enumerate_words", "exp_coefficient",
    "fourier_coeffs", "frames_orthogonal", "gram_exponentials", "gram_identity_gap",
    "greedy_generators", "hybrid_inner", "hybrid_norm_sq", "indicator_relation_check",
    "ingest_signal", "lambda_set", "make_atom", "make_cos", "make_sine", "mu_hat",
    "mu_hat_is_zero", "onb_entropy", "projection_masses", "rational_str", "run_suite",
    "s_adjoint", "s_apply", "verify_cuntz", "verify_decomposition",
    "verify_decomposition_levels", "verify_entropy_recursion", "verify_lambda_partition",
    "verify_unitary_matrix", "walsh", "walsh_expand", "walsh_synthesize", "walsh_word",
]


def test_public_names_are_pinned_and_importable():
    # modules (the submodules, and os and sys) are not part of the surface
    names = sorted(name for name, value in vars(cuntz_bases).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
    for name in names:
        scope = {}
        exec(f"from cuntz_bases import {name}", scope)
        assert scope[name] is getattr(cuntz_bases, name)
