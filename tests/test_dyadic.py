"""Exact-core tests: inner products, refinement, normalization, word order."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cuntz_bases.basis import walsh_word
from cuntz_bases.dyadic import (
    DyadicStep,
    MultiIndex,
    as_rational,
    enumerate_words,
    rational_str,
)


def step(*coeffs):
    level = (len(coeffs) - 1).bit_length()
    return DyadicStep(level, coeffs)


class TestScalars:
    def test_coercion(self):
        assert as_rational(3) == 3
        assert as_rational(Fraction(4, 2)) == 2
        assert isinstance(as_rational(Fraction(4, 2)), int)
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("0.25") == Fraction(1, 4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_round_trip(self):
        for value in [Fraction(3, 4), Fraction(-1, 8), 5, 0]:
            assert as_rational(rational_str(value)) == value

    def test_rational_str_is_the_fraction_text(self):
        for value in [Fraction(3, 4), Fraction(-6, 8), 5, -7, 0, True, 10 ** 40,
                      "0.25", "-3/6", np.int64(-9)]:
            frac = Fraction(value)
            assert rational_str(value) == f"{frac.numerator}/{frac.denominator}", value


class TestConstruction:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            DyadicStep(2, [0.5] * 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DyadicStep(2, [1, 2, 3])

    def test_internal_results_are_canonical(self):
        # every internal constructor keeps integral values as ints, and an
        # integer step as int64 numerators over the denominator 1
        f = DyadicStep(2, [Fraction(1, 2), Fraction(3, 2), 2, Fraction(-1, 2)])
        g = DyadicStep(1, [Fraction(1, 2), Fraction(-1, 2)])
        results = [f + g, f - g, -f, f.scale(2), f.scale("1/3"), f.refine(4),
                   DyadicStep(2, [4, 4, 4, 4]).normalize()]
        for h in results:
            for c in h.coeffs:
                if c == int(c):
                    assert type(c) is int, (h, c)
        assert (f + g).coeffs == (1, 2, Fraction(3, 2), -1)
        doubled = f.scale(2)
        assert doubled.num.dtype == np.int64 and doubled.den == 1
        assert doubled.num.tolist() == [1, 3, 4, -1]
        assert type(doubled.inner(DyadicStep(0, [4]))) is int


class TestInner:
    def test_constant_one(self):
        one = DyadicStep.ones()
        assert one.inner(one) == 1

    def test_plus_minus_square(self):
        f = step(1, -1)
        assert f.inner(f) == 1

    def test_cross_level(self):
        # refine [1,-1] to level 2 = [1,1,-1,-1]; pointwise product with
        # [1,-1,1,-1] is [1,-1,-1,1], mean 0
        f = step(1, -1)
        g = step(1, -1, 1, -1)
        assert f.inner(g) == 0

    def test_symmetric_bilinear_positive(self):
        rng = random.Random(7)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(8)]
            other = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(8)]
            f, g = DyadicStep(3, coeffs), DyadicStep(3, other)
            assert f.inner(g) == g.inner(f)
            h = f + g
            assert h.inner(h) == f.inner(f) + 2 * f.inner(g) + g.inner(g)
            if not f.normalize().is_zero():
                assert f.inner(f) > 0

    def test_int_fast_path_matches_fraction_path(self):
        rng = random.Random(11)
        for _ in range(10):
            a = [rng.randint(-50, 50) for _ in range(16)]
            b = [rng.randint(-50, 50) for _ in range(8)]
            f, g = DyadicStep(4, a), DyadicStep(3, b)
            slow = sum(
                Fraction(x * y, 16)
                for x, y in zip(f.coeffs, g.refine(4).coeffs)
            )
            assert f.inner(g) == slow


class TestRefineNormalize:
    def test_refine_duplicates(self):
        assert step(1, -1).refine(2).coeffs == (1, 1, -1, -1)

    def test_refine_lossy_rejected(self):
        with pytest.raises(ValueError):
            step(1, -1, 1, -1).refine(1)

    def test_normalize_constant(self):
        f = DyadicStep(2, [3, 3, 3, 3])
        g = f.normalize()
        assert g.level == 0 and g.coeffs == (3,)

    def test_refine_then_normalize_is_identity(self):
        f = step(2, -1, 0, 5).normalize()
        assert f.refine(5).normalize() == f

    def test_inner_invariant_under_refine(self):
        f, g = step(1, 2, 3, 4), step(5, -1)
        assert f.refine(4).inner(g) == f.inner(g)
        assert f.inner(g.refine(6)) == f.inner(g)

    def test_equality_via_normal_form(self):
        assert DyadicStep(1, [2, 2]) == DyadicStep(0, [2])
        assert DyadicStep(1, [2, 2]) != DyadicStep(0, [3])


class TestEvaluate:
    def test_half_open_cells(self):
        f = step(1, -1)
        assert f.evaluate(Fraction(1, 2)) == -1
        assert f.evaluate(0) == 1
        assert f.evaluate(Fraction(499, 1000)) == 1

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            step(1, -1).evaluate(1)


class TestWords:
    def test_order_shorter_first(self):
        a = MultiIndex((1,))
        b = MultiIndex((0, 1))
        assert a < b and not b <= a
        assert b > a and not a >= b
        assert a <= MultiIndex((1,)) <= a

    def test_codes(self):
        assert MultiIndex((1, 1, 0)).code == 3
        assert MultiIndex((1, 0, 1)).code == 5

    def test_trailing_zeros_share_code(self):
        assert MultiIndex((1,)).code == MultiIndex((1, 0)).code == 1

    def test_enumeration_order(self):
        words = [w.digits for w in enumerate_words(2)]
        assert words == [(), (0,), (1,), (0, 0), (1, 0), (0, 1), (1, 1)]

    def test_enumeration_count(self):
        for max_len in range(6):
            assert sum(1 for _ in enumerate_words(max_len)) == 2 ** (max_len + 1) - 1

    def test_weight_and_digits_of(self):
        assert walsh_word(0).digits == ()
        assert walsh_word(6).digits == (0, 1, 1)
        assert walsh_word(6).code == 6
        assert MultiIndex((1, 0, 1)).weight == 2
