"""The package's public surface: the names ``import cuntz_bases`` exports,
and the package modules that each command loads in a fresh process."""

import ast
import sys
from pathlib import Path

import pytest

import cuntz_bases
from conftest import fresh_python

PUBLIC = [
    "CantorStep", "DyadicStep", "EntropyTree", "GeneralRepN", "GeneratorCover",
    "HybridFunction", "INTERVAL_REP", "IntervalRep2", "LambdaPoint", "MultiIndex",
    "NAdicStep", "StepFunction", "SubspaceFrame", "Tally", "TrigAtom",
    "VerificationReport", "adjoint_word", "apply_word", "as_rational", "bessel_sum",
    "best_basis", "build_entropy_tree", "build_frame", "classify_reflection",
    "coefficient_table", "compute_K", "entropy", "enumerate_words", "exp_coefficient",
    "fourier_coeffs", "frames_orthogonal", "gram_exponentials", "gram_identity_gap",
    "greedy_generators", "hybrid_inner", "indicator_relation_check",
    "ingest_signal", "lambda_set", "make_atom", "make_cos", "make_sine", "mu_hat",
    "mu_hat_is_zero", "onb_entropy", "projection_masses", "rational_str", "run_suite",
    "s_adjoint", "s_apply", "verify_cuntz", "verify_decomposition",
    "verify_decomposition_levels", "verify_entropy_recursion", "verify_lambda_partition",
    "verify_unitary_matrix", "walsh", "walsh_expand", "walsh_synthesize", "walsh_word",
]


def test_public_names_are_pinned_and_importable():
    # the names load on first use, so the surface is __all__, not vars()
    assert cuntz_bases.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(cuntz_bases))
    for name in PUBLIC:
        scope = {}
        exec(f"from cuntz_bases import {name}", scope)
        value = scope[name]
        assert value is getattr(cuntz_bases, name)
        # the object its defining module holds under the same name
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        cuntz_bases.no_such_name


def run_fresh(setup: str, report: str) -> str:
    """stdout of ``report`` run in a fresh interpreter after ``setup``."""
    return fresh_python(["-c", f"import sys\n{setup}\n{report}"])


def cli_call(*args) -> str:
    return f"from cuntz_bases.cli import main\nassert main({list(args)!r}) in (0, 1)"


def commands(tmp_path) -> dict:
    """A statement per way in, each run against a small signal file."""
    src, out = tmp_path / "sig.csv", str(tmp_path / "out")
    src.write_text("1\n-1\n2\n0\n", encoding="utf-8")
    return {
        "import": "import cuntz_bases",
        "expand": cli_call("expand", "--input", str(src), "--output", out),
        "entropy": cli_call("entropy", "--input", str(src), "--output", out),
        "cantor-gram": cli_call("cantor", "gram", "--output", out),
        "verify": cli_call("verify", "--suite", "cuntz", "--output", out),
    }


# the package itself, its eager ``entropy`` binding and what that imports
PACKAGE = ["", ".basis", ".dyadic", ".entropy", ".operators", ".reporting"]
LOADS = {
    "import": PACKAGE,
    "expand": PACKAGE + [".cli"],
    "entropy": PACKAGE + [".cli"],
    "cantor-gram": PACKAGE + [".cantor", ".cli"],
    "verify": PACKAGE + [".cantor", ".cli", ".trig", ".verification"],
}


@pytest.mark.parametrize("command", list(LOADS))
def test_modules_loaded_per_command(tmp_path, command):
    loaded = run_fresh(commands(tmp_path)[command],
                       "print(*sorted(m for m in sys.modules if m.split('.')[0] == "
                       "'cuntz_bases'))").split()
    assert loaded == sorted(f"cuntz_bases{module}" for module in LOADS[command])


@pytest.mark.parametrize("order", ["first", "entropy-module", "verification-module",
                                   "entropy-command", "verify-entropy"])
def test_entropy_name_is_the_function_in_any_order(tmp_path, order):
    # loading the submodule cuntz_bases.entropy must not replace the function
    setup = {
        "first": "",
        "entropy-module": "import cuntz_bases.entropy",
        "verification-module": "import cuntz_bases.verification",
        "entropy-command": commands(tmp_path)["entropy"],
        "verify-entropy": cli_call("verify", "--suite", "entropy",
                                   "--output", str(tmp_path / "report")),
    }[order]
    out = run_fresh(setup, "import cuntz_bases\n"
                           "from cuntz_bases import entropy\n"
                           "function = sys.modules['cuntz_bases.entropy'].entropy\n"
                           "print(callable(entropy), entropy is function,\n"
                           "      cuntz_bases.entropy is function)")
    assert out.split() == ["True", "True", "True"]


def test_only_dyadic_knows_the_numerator_width():
    # the int64-or-object rule of step numerators is applied to lifted values
    # by dyadic._as_array alone; dyadic._lowest restates it for reduced steps
    # and basis.butterfly widens its own input with dyadic._WIDE
    package = Path(cuntz_bases.__file__).parent
    users = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)}
            if "_as_array" in names:
                users.add(path.stem)
    assert users == {"dyadic"}
