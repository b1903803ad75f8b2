"""The argument rules for counts, indices and tolerances, each driven from
one table.

Every public level, depth, order, branch, cell and word-digit parameter is
read by ``dyadic._index``: a bool, a float or a Fraction raises TypeError, an
int outside the parameter's range raises ValueError naming it, and a numpy
int gives the same result as the same int, down to the types inside it.
The table lists each such parameter with one call that fixes every other
argument; a second test walks the package's public names and fails on any
count-named parameter the table does not list.  Every public ``tol`` is
read by ``dyadic._tol`` and has a table and a walk of its own.  A last table
holds the other refused arguments, each with its exception and message.
"""

import math

import inspect
import pickle
from fractions import Fraction

import numpy as np
import pytest

import cuntz_bases
from cuntz_bases import (
    INTERVAL_REP,
    CantorStep,
    DyadicStep,
    GeneralRepN,
    HybridFunction,
    LambdaPoint,
    MultiIndex,
    NAdicStep,
    StepFunction,
    Tally,
    bessel_sum,
    best_basis,
    build_entropy_tree,
    build_frame,
    classify_reflection,
    coefficient_table,
    compute_K,
    entropy,
    enumerate_words,
    exp_coefficient,
    fourier_coeffs,
    frames_orthogonal,
    gram_exponentials,
    greedy_generators,
    ingest_signal,
    lambda_set,
    make_atom,
    make_cos,
    make_sine,
    onb_entropy,
    projection_masses,
    run_suite,
    s_adjoint,
    s_apply,
    verify_cuntz,
    verify_decomposition,
    verify_decomposition_levels,
    verify_entropy_recursion,
    verify_lambda_partition,
    verify_unitary_matrix,
    walsh,
    walsh_expand,
    walsh_synthesize,
    walsh_word,
)

STEP = DyadicStep(2, [1, -2, 3, 4])
PSI = walsh(1)
CANTOR = CantorStep(2, [1, -2, 0, 3])
COVER = greedy_generators(5)
REP3 = GeneralRepN(3)
F3 = NAdicStep(3, 1, [1, 2j, 3])
# the spectrum points among the tested ints, with their digits
POINTS = {0: (), 1: (1,), 4: (0, 1), 5: (1, 1)}


def cells(v):
    """A cell count for level ``v`` that the test can build whatever ``v``
    is, so that only the call under test can reject it."""
    return 1 << max(int(v), 0)


def row(owner, param, name, valid, call):
    return pytest.param(name, valid, call, id=f"{owner}-{param}")


# owner, parameter, the name its messages use, the valid ints among
# -3..6, and the call with every other argument fixed
TABLE = {
    ("CantorStep", "level"): ("level", range(0, 7), lambda v: CantorStep(v, range(cells(v)))),
    ("CantorStep.cell_left", "cell"): ("cell index", range(-3, 7), lambda v: CANTOR.cell_left(v)),
    ("CantorStep.cell_mass", "level"): ("level", range(0, 7), lambda v: CantorStep.cell_mass(v)),
    ("CantorStep.cell_diameter", "level"): ("level", range(0, 7),
                                            lambda v: CantorStep.cell_diameter(v)),
    ("DyadicStep", "level"): ("level", range(0, 7), lambda v: DyadicStep(v, range(cells(v)))),
    ("DyadicStep.cell_left", "cell"): ("cell index", range(0, 4), lambda v: STEP.cell_left(v)),
    ("StepFunction", "level"): ("level", range(0, 7), lambda v: StepFunction(v, range(cells(v)))),
    ("StepFunction.indicator", "level"): ("level", range(0, 7),
                                          lambda v: DyadicStep.indicator(v, 0)),
    ("StepFunction.indicator", "cell"): ("cell index", range(0, 4),
                                         lambda v: DyadicStep.indicator(2, v)),
    ("StepFunction.refine", "target_level"): ("target_level", range(2, 7),
                                              lambda v: STEP.refine(v)),
    ("GeneralRepN", "n"): ("n", range(2, 7), lambda v: GeneralRepN(v)),
    ("GeneralRepN.filter_value", "j"): ("branch index", range(0, 3),
                                        lambda v: REP3.filter_value(v, 0.5)),
    ("GeneralRepN.apply", "j"): ("branch index", range(0, 3), lambda v: REP3.apply(v, F3)),
    ("GeneralRepN.adjoint", "j"): ("branch index", range(0, 3), lambda v: REP3.adjoint(v, F3)),
    ("GeneralRepN.random_step", "level"): ("level", range(0, 7),
                                           lambda v: REP3.random_step(v, np.random.default_rng(0))),
    ("IntervalRep2.apply", "j"): ("branch index", range(0, 2),
                                  lambda v: INTERVAL_REP.apply(v, STEP)),
    ("IntervalRep2.adjoint", "j"): ("branch index", range(0, 2),
                                    lambda v: INTERVAL_REP.adjoint(v, STEP)),
    ("LambdaPoint", "value"): ("value", POINTS, lambda v: LambdaPoint(v, POINTS.get(int(v), ()))),
    ("LambdaPoint.from_value", "value"): ("value", POINTS, lambda v: LambdaPoint.from_value(v)),
    ("MultiIndex", "digits"): ("word digit", range(0, 2), lambda v: MultiIndex((1, v))),
    ("NAdicStep", "base"): ("base", range(2, 7), lambda v: NAdicStep(v, 0, [1])),
    ("NAdicStep", "level"): ("level", range(0, 7), lambda v: NAdicStep(2, v, np.ones(cells(v)))),
    ("NAdicStep.refine", "target_level"): ("target_level", range(1, 7),
                                           lambda v: NAdicStep(2, 1, [1, 2]).refine(v)),
    ("bessel_sum", "p"): ("p", range(0, 7), lambda v: bessel_sum(CANTOR, v)),
    ("best_basis", "max_depth"): ("max_depth", range(0, 7), lambda v: best_basis(STEP, v)),
    ("build_entropy_tree", "depth"): ("depth", range(0, 7), lambda v: build_entropy_tree(STEP, v)),
    ("build_frame", "depth"): ("depth", range(0, 7), lambda v: build_frame(PSI, None, v)),
    ("coefficient_table", "p"): ("p", range(0, 7), lambda v: coefficient_table(CANTOR, v)),
    ("compute_K", "max_depth"): ("max_depth", range(0, 7), lambda v: compute_K(PSI, v)),
    ("entropy", "k"): ("k", range(0, 7), lambda v: entropy(STEP, v)),
    ("enumerate_words", "max_len"): ("max_len", range(0, 7), lambda v: list(enumerate_words(v))),
    ("fourier_coeffs", "max_n"): ("max_n", range(0, 7), lambda v: fourier_coeffs(STEP, v)),
    ("gram_exponentials", "p"): ("p", range(0, 7), lambda v: gram_exponentials(v)),
    ("greedy_generators", "max_word_len"): ("max_word_len", range(0, 7),
                                            lambda v: greedy_generators(v)),
    ("ingest_signal", "level"): ("level", range(0, 7),
                                 lambda v: ingest_signal(list(range(cells(v))), v)),
    ("lambda_set", "p"): ("p", range(0, 7), lambda v: lambda_set(v)),
    ("make_cos", "n"): ("n", range(0, 7), lambda v: make_cos(v)),
    ("make_sine", "n"): ("n", range(0, 7), lambda v: make_sine(v)),
    ("projection_masses", "k"): ("k", range(0, 7), lambda v: projection_masses(STEP, v)),
    ("s_adjoint", "j"): ("branch index", range(0, 2), lambda v: s_adjoint(v, STEP)),
    ("s_apply", "j"): ("branch index", range(0, 2), lambda v: s_apply(v, STEP)),
    ("verify_decomposition", "level"): ("level", range(0, 7),
                                        lambda v: verify_decomposition(COVER, v)),
    ("verify_decomposition_levels", "levels"): ("level", range(0, 7),
                                                lambda v: verify_decomposition_levels(COVER, [v])),
    # k is read by entropy at k + 1 and at k
    ("verify_entropy_recursion", "k"): ("k", range(0, 7),
                                        lambda v: verify_entropy_recursion(STEP, v)),
    ("verify_lambda_partition", "p"): ("p", range(1, 7), lambda v: verify_lambda_partition(v)),
    ("verify_unitary_matrix", "n"): ("n", range(2, 7), lambda v: verify_unitary_matrix(v, [0.25])),
    ("walsh", "n"): ("n", range(0, 7), lambda v: walsh(v)),
    ("walsh_expand", "level"): ("level", range(2, 7), lambda v: walsh_expand(STEP, v)),
    ("walsh_word", "n"): ("n", range(0, 7), lambda v: walsh_word(v)),
}

# count-named parameters that are not counts or indices, and why
NOT_COUNTS = {
    ("EntropyTree", "depth"): "a result field, filled from build_entropy_tree's depth",
    ("GeneratorCover", "max_word_len"): "a result field, filled from greedy_generators' bound",
    ("VerificationReport", "max_violation"): "a float gap",
    ("as_rational", "value"): "an exact value, read by the value rule of lift",
    ("rational_str", "value"): "an exact value",
}

COUNT_NAMES = {"level", "depth", "k", "p", "n", "j", "cell", "value", "base", "target_level"}

BAD_TYPES = [True, False, 2.0, 2.5, Fraction(2), Fraction(5, 2)]

ROWS = [row(*key, *entry) for key, entry in TABLE.items()]


@pytest.mark.parametrize("name, valid, call", ROWS)
def test_bools_floats_and_fractions_raise_type_error(name, valid, call):
    for value in BAD_TYPES:
        with pytest.raises(TypeError, match=name):
            call(value)


@pytest.mark.parametrize("name, valid, call", ROWS)
def test_ints_out_of_range_raise_value_error_naming_the_parameter(name, valid, call):
    for value in range(-3, 7):
        if value not in valid:
            with pytest.raises(ValueError, match=name):
                call(value)


@pytest.mark.parametrize("name, valid, call", ROWS)
def test_numpy_int_gives_the_int_result(name, valid, call):
    # pickled results differ when a numpy scalar leaks into them
    for value in valid:
        assert pickle.dumps(call(np.int64(value))) == pickle.dumps(call(value)), value


def _public_parameters(select):
    """(owner, parameter) for every parameter whose name ``select`` accepts,
    of the public callables and of the public methods of the public
    classes."""
    found = set()

    def scan(owner, fn):
        for param in inspect.signature(fn).parameters:
            if select(param):
                found.add((owner, param))

    for name in cuntz_bases.__all__:
        obj = getattr(cuntz_bases, name)
        if inspect.isclass(obj):
            scan(name, obj)
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    scan(f"{name}.{attr}", getattr(obj, attr))
        elif callable(obj):
            scan(name, obj)
    return found


def test_every_count_parameter_is_in_the_table():
    found = _public_parameters(lambda param: param in COUNT_NAMES or param.startswith("max_"))
    assert found - set(NOT_COUNTS) <= set(TABLE), sorted(found - set(NOT_COUNTS) - set(TABLE))
    assert set(NOT_COUNTS) <= found  # an entry whose parameter is gone leaves the list


def test_numpy_int_lambda_takes_the_exact_path():
    # an integral lambda reduces its angle as an integer, whatever its type
    for lam in (5, 4 ** 20 + 1, 10 ** 15 + 7, 2 ** 60 + 5):
        assert exp_coefficient(np.int64(lam), CANTOR) == exp_coefficient(lam, CANTOR), lam
    with pytest.raises(TypeError):
        exp_coefficient(True, CANTOR)


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

FRAME = build_frame(make_sine(1), None, 2)

# owner, whether its tol must be positive (zero is valid otherwise), and the
# call with every other argument fixed
TOL_TABLE = {
    "Tally.report": (False, lambda t: Tally().report("r", t)),
    "classify_reflection": (True, lambda t: classify_reflection(make_sine(1), t)),
    "compute_K": (False, lambda t: compute_K(PSI, 2, t)),
    "frames_orthogonal": (False, lambda t: frames_orthogonal(FRAME, FRAME, t)),
    "onb_entropy": (False, lambda t: onb_entropy([0.6, 0.8], t)),
    "verify_cuntz": (False, lambda t: verify_cuntz(INTERVAL_REP, [STEP], t)),
    "verify_entropy_recursion": (True, lambda t: verify_entropy_recursion(STEP, 1, t)),
    "verify_unitary_matrix": (False, lambda t: verify_unitary_matrix(2, [0.1], t)),
}

# tol parameters that are not tolerances to check, and why
NOT_TOLS = {("VerificationReport", "tol"): "a result field, filled from Tally.report's tol"}

TOL_ROWS = [pytest.param(positive, call, id=owner) for owner, (positive, call)
            in TOL_TABLE.items()]


@pytest.mark.parametrize("positive, call", TOL_ROWS)
def test_tol_bools_and_non_numbers_raise_type_error(positive, call):
    for value in (True, False, np.True_, "1e-10", None, 1e-10j):
        with pytest.raises(TypeError, match="tol"):
            call(value)


@pytest.mark.parametrize("positive, call", TOL_ROWS)
def test_tol_nan_and_negatives_raise_value_error(positive, call):
    # NaN compares false with everything, so an unchecked NaN passes or
    # fails every comparison it meets
    for value in (math.nan, np.float64("nan"), -1.0, -1, -1e-300, Fraction(-1, 2), -math.inf):
        with pytest.raises(ValueError, match="tol out of range"):
            call(value)


@pytest.mark.parametrize("positive, call", TOL_ROWS)
def test_tol_zero_is_valid_unless_positive(positive, call):
    for value in (0, 0.0):
        if positive:
            with pytest.raises(ValueError, match="tol must be positive"):
                call(value)
        else:
            call(value)


@pytest.mark.parametrize("positive, call", TOL_ROWS)
def test_tol_numpy_float_gives_the_float_result(positive, call):
    assert call(np.float64(1e-10)) == call(1e-10)


def test_every_tol_parameter_is_in_the_table():
    found = _public_parameters(lambda param: param == "tol")
    assert found - set(NOT_TOLS) == {(owner, "tol") for owner in TOL_TABLE}
    assert set(NOT_TOLS) <= found


# ---------------------------------------------------------------------------
# other refused arguments
# ---------------------------------------------------------------------------

# a call refused for a reason other than a count or a tol: the exception,
# a pattern its message matches, and the call
REFUSED = {
    "run_suite-unknown-suite": (ValueError, "unknown suite 'bogus'", lambda: run_suite("bogus")),
    "walsh_synthesize-length-3": (ValueError, "length must be a power of two",
                                  lambda: walsh_synthesize([1, 2, 3])),
    "make_atom-unknown-mode": (ValueError, "unknown mode 'tan'", lambda: make_atom(STEP, "tan")),
    "DyadicStep-plus-CantorStep": (TypeError, "cannot combine DyadicStep with CantorStep",
                                   lambda: STEP + CANTOR),
    "NAdicStep-coefficient-count": (ValueError, "expected 2 coefficients",
                                    lambda: NAdicStep(2, 1, [1])),
    "GeneralRepN.filter_value-x-1": (ValueError, r"x must lie in \[0, 1\)",
                                     lambda: REP3.filter_value(0, 1.0)),
    # a hybrid lives on [0, 1) with Lebesgue measure, the spectrum's
    # exponentials in L2(mu): neither takes a step of the other geometry
    "make_atom-CantorStep": (TypeError, "pairs only with a hybrid or a DyadicStep, not CantorStep",
                             lambda: make_atom(CANTOR, "sin", 1)),
    "HybridFunction.from_step-CantorStep": (TypeError, "not CantorStep",
                                            lambda: HybridFunction.from_step(CANTOR)),
    "exp_coefficient-DyadicStep": (TypeError, "pairs only with a CantorStep, not DyadicStep",
                                   lambda: exp_coefficient(1, STEP)),
    "bessel_sum-DyadicStep": (TypeError, "not DyadicStep", lambda: bessel_sum(STEP, 2)),
    "coefficient_table-DyadicStep": (TypeError, "not DyadicStep",
                                     lambda: coefficient_table(STEP, 2)),
}


@pytest.mark.parametrize("error, message, call", list(REFUSED.values()), ids=list(REFUSED))
def test_refused_arguments_raise_with_message(error, message, call):
    with pytest.raises(error, match=message):
        call()
