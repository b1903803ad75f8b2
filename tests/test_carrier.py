"""The step carrier: read-only integer numerators over one denominator in
lowest terms, int64 below 2**62 and numpy ``object`` past it, checked
against a reference that keeps every step as a tuple of Fractions."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuntz_bases.cantor import CantorStep
from cuntz_bases.dyadic import DyadicStep
from cuntz_bases.operators import s_adjoint, s_apply
from cuntz_bases.trig import (MODE_COS, MODE_SIN, HybridFunction, TrigAtom, make_atom, make_cos,
                              make_sine)

MAX_LEVEL = 8
WIDE = 1 << 62

SMALL = st.integers(-9, 9)
FRACTIONS = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12))
# integers on both sides of 2**62, where the numerators change dtype
NEAR_2_62 = st.builds(lambda m, sign: sign * m,
                      st.integers(WIDE - 8, WIDE + 8), st.sampled_from((1, -1)))
NEAR_2_70 = st.builds(lambda m, d: Fraction(m, d),
                      st.integers(-(1 << 70), 1 << 70), st.sampled_from((1, 3, 1 << 40)))
VALUES = st.one_of(SMALL, FRACTIONS, NEAR_2_62, NEAR_2_70)
FACTORS = st.one_of(SMALL, FRACTIONS, NEAR_2_62, st.just(Fraction(1, 1 << 63)))

PROPERTY = settings(max_examples=80, deadline=None)


@st.composite
def steps(draw, values=VALUES, max_level=MAX_LEVEL):
    """(level, reference values) with values drawn from a small pool, so
    that equal neighbours (and so coarser representations) come up."""
    level = draw(st.integers(0, max_level))
    pool = draw(st.lists(values, min_size=1, max_size=3))
    return level, tuple(Fraction(draw(st.sampled_from(pool))) for _ in range(1 << level))


# -- the reference: a step is (level, tuple of Fractions) ---------------------

def ref_refine(ref, level):
    k, values = ref
    return level, tuple(v for v in values for _ in range(1 << (level - k)))


def ref_apply(j, ref):
    k, values = ref
    return k + 1, values + (values if j == 0 else tuple(-v for v in values))


def ref_adjoint(j, ref):
    k, values = ref
    if k == 0:
        return 0, (values[0] if j == 0 else Fraction(0),)
    half = len(values) // 2
    lo, hi = values[:half], values[half:]
    return k - 1, tuple((x + y if j == 0 else x - y) / 2 for x, y in zip(lo, hi))


def ref_combine(a, b, sign):
    k = max(a[0], b[0])
    a, b = ref_refine(a, k)[1], ref_refine(b, k)[1]
    return k, tuple(x + sign * y for x, y in zip(a, b))


def ref_inner(a, b):
    k = max(a[0], b[0])
    a, b = ref_refine(a, k)[1], ref_refine(b, k)[1]
    return sum(x * y for x, y in zip(a, b)) / (1 << k)


def ref_normalize(ref):
    k, values = ref
    while k > 0 and values[0::2] == values[1::2]:
        k, values = k - 1, values[0::2]
    return k, values


def assert_carrier(f, ref):
    """f represents ref, in the stored form the carrier promises."""
    level, values = ref
    assert f.level == level
    num = f.num.tolist()
    assert [Fraction(u, f.den) for u in num] == list(values)
    assert f.den > 0 and math.gcd(f.den, *num) == 1
    assert f.num.dtype == (object if max(map(abs, num)) >= WIDE else np.int64)
    assert not f.num.flags.writeable
    with pytest.raises(ValueError):
        f.num[0] = 0
    assert f.coeffs == values
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in f.coeffs)


OPS = st.one_of(
    st.tuples(st.just("apply"), st.sampled_from((0, 1))),
    st.tuples(st.just("adjoint"), st.sampled_from((0, 1))),
    st.tuples(st.just("scale"), FACTORS),
    st.tuples(st.just("neg"), st.none()),
    st.tuples(st.just("refine"), st.integers(0, 2)),
    st.tuples(st.just("normalize"), st.none()),
)


@pytest.mark.parametrize("cls", [DyadicStep, CantorStep])
@PROPERTY
@given(start=steps(), ops=st.lists(OPS, max_size=12))
def test_operator_chains_match_fraction_reference(cls, start, ops):
    f, ref = cls(*start), start
    assert_carrier(f, ref)
    for op, arg in ops:
        if op == "apply" and ref[0] < MAX_LEVEL:
            f, ref = s_apply(arg, f), ref_apply(arg, ref)
        elif op == "adjoint":
            f, ref = s_adjoint(arg, f), ref_adjoint(arg, ref)
        elif op == "scale":
            f, ref = f.scale(arg), (ref[0], tuple(arg * v for v in ref[1]))
        elif op == "neg":
            f, ref = -f, (ref[0], tuple(-v for v in ref[1]))
        elif op == "refine" and ref[0] + arg <= MAX_LEVEL:
            f, ref = f.refine(ref[0] + arg), ref_refine(ref, ref[0] + arg)
        elif op == "normalize":
            f, ref = f.normalize(), ref_normalize(ref)
        assert type(f) is cls
        assert_carrier(f, ref)


@PROPERTY
@given(a=steps(), b=steps())
@example(a=(0, (Fraction(1, 2),)), b=(0, (Fraction(1, 3),)))  # same numerators
@example(a=(1, (Fraction(1), Fraction(1))), b=(0, (Fraction(1),)))
def test_arithmetic_inner_and_equality_match_fraction_reference(a, b):
    f, g = DyadicStep(*a), DyadicStep(*b)
    assert_carrier(f + g, ref_combine(a, b, 1))
    assert_carrier(f - g, ref_combine(a, b, -1))
    assert f.inner(g) == g.inner(f) == ref_inner(a, b)
    assert type(f.inner(g)) is (int if ref_inner(a, b).denominator == 1 else Fraction)
    assert f.norm_sq() == ref_inner(a, a)
    assert_carrier(f.normalize(), ref_normalize(a))
    same = ref_normalize(a) == ref_normalize(b)
    assert (f == g) == same and (f != g) == (not same)
    if same:
        assert hash(f) == hash(g)
    # one function, many representations: equal, with equal hashes
    for h in (f.refine(MAX_LEVEL), f.normalize(), (f + f).scale(Fraction(1, 2)),
              s_adjoint(0, s_apply(0, f)), DyadicStep(*ref_refine(a, MAX_LEVEL))):
        assert h == f and hash(h) == hash(f)
    assert CantorStep(*a) != f  # other cell geometry: not comparable


def test_int64_and_object_cross_at_2_62():
    below = DyadicStep(0, [WIDE - 1])
    assert below.num.dtype == np.int64
    assert DyadicStep(0, [WIDE]).num.dtype == object
    total = below + below  # the sum leaves int64 range
    assert total.num.dtype == object and total.coeffs == (2 * WIDE - 2,)
    assert s_adjoint(0, s_apply(0, total)) == total  # sums past 2**63 as Python ints
    # int64 adjoint sums up to 2**63 - 3, brought back below 2**62 or not
    assert s_adjoint(0, DyadicStep(1, [WIDE - 1, WIDE - 1])) == below
    odd = s_adjoint(0, DyadicStep(1, [WIDE - 1, WIDE - 2]))
    assert odd.coeffs == (Fraction(2 * WIDE - 3, 2),) and odd.num.dtype == object
    halved = total.scale(Fraction(1, 2))
    assert halved.num.dtype == np.int64 and halved == below
    # a Fraction over a denominator past 2**63 keeps int64 numerators
    tiny = DyadicStep(1, [Fraction(1, 1 << 70), Fraction(-3, 1 << 70)])
    assert tiny.num.dtype == np.int64 and tiny.den == 1 << 70


def test_mixed_int64_and_object_inner_product():
    small = DyadicStep(2, [1, -2, 3, Fraction(1, 3)])
    huge = DyadicStep(1, [1 << 70, -(1 << 65) - 1])
    assert (small.num.dtype, huge.num.dtype) == (np.int64, object)
    want = (Fraction(1 << 70) * (1 - 2) + Fraction(-(1 << 65) - 1) * (3 + Fraction(1, 3))) / 4
    assert small.inner(huge) == huge.inner(small) == want
    # int64 numerators whose dot product alone would overflow int64
    big = DyadicStep(3, [WIDE - 1] * 8)
    assert big.num.dtype == np.int64
    assert big.norm_sq() == (WIDE - 1) ** 2


def test_public_constructor_rejects_floats_and_bools():
    for bad in (1.0, True, np.int64(1)):
        with pytest.raises(TypeError):
            DyadicStep(0, [bad])
    assert DyadicStep(0, ["3/6"]).coeffs == (Fraction(1, 2),)



def _windows(value):
    """The steps a carrier is built from: itself, an atom's window, or the
    windows of a hybrid's atoms."""
    if isinstance(value, TrigAtom):
        return [value.window]
    if isinstance(value, HybridFunction):
        return [atom.window for atom in value.atoms]
    return [value]


WIDE_WINDOW = DyadicStep(2, [1 << 70, -3, Fraction(1, 3), 0])
PICKLED = {
    "dyadic-int64": DyadicStep(2, [1, -2, Fraction(3, 4), 0]),
    "dyadic-object": DyadicStep(1, [1 << 70, -(1 << 65) - 1]),
    "cantor-int64": CantorStep(1, [5, Fraction(-1, 6)]),
    "cantor-object": CantorStep(2, [WIDE, 1, 2, 3]),
    "atom-int64": make_atom(DyadicStep(1, [1, 2]), MODE_SIN, Fraction(3, 2), Fraction(1, 8)),
    "atom-object": make_atom(WIDE_WINDOW, MODE_COS, 5),
    "hybrid-int64": make_sine(3) + make_cos(1),
    "hybrid-object": make_sine(2) + HybridFunction([make_atom(WIDE_WINDOW, MODE_SIN, 1)]),
}


@pytest.mark.parametrize("name", list(PICKLED))
def test_pickle_and_deepcopy_rebuild_an_equal_carrier(name):
    # the slotted classes refuse __setattr__, which the default restore uses
    value = PICKLED[name]
    windows = [(w.num.dtype, w.num.tolist(), w.den) for w in _windows(value)]
    kinds = {str(dtype) for dtype, *_ in windows}
    assert kinds == {"int64"} if name.endswith("int64") else "object" in kinds
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert [(w.num.dtype, w.num.tolist(), w.den) for w in _windows(copied)] == windows
        assert not any(w.num.flags.writeable for w in _windows(copied))

