"""Cantor carrier: isometries on cylinder steps, the measure transform and
its exact zero set, the exponential spectrum, and the word identities."""

import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from cuntz_bases.cantor import (
    MU_HAT_CACHE_SIZE,
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
    orthogonality_report,
    verify_lambda_partition,
)
from cuntz_bases import verification
from cuntz_bases.dyadic import MultiIndex
from cuntz_bases.operators import (
    INTERVAL_REP,
    s_adjoint,
    s_apply,
    s_word,
    verify_cuntz,
    word_signs,
)


class TestCylinderSteps:
    def test_constant_fixed_by_first_isometry(self):
        chi = CantorStep.ones()
        assert s_apply(0, chi) == chi

    def test_adjoint_difference(self):
        assert s_adjoint(1, CantorStep(1, [1, -1])) == CantorStep(0, [1])

    def test_cell_left_endpoints(self):
        f = CantorStep(2, [1, 0, 0, 0])
        # cells in endpoint order: 00, 01, 10, 11
        assert [f.cell_left(i) for i in range(4)] == [
            Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(5, 8)]
        # only the low ``level`` bits of an index count
        assert f.cell_left(6) == f.cell_left(2) and f.cell_left(-1) == f.cell_left(3)

    def test_cuntz_relations_exact_on_indicators(self):
        vectors = [CantorStep.indicator_cell(MultiIndex(tuple((i >> (3 - m)) & 1 for m in range(4))))
                   for i in range(16)]
        report = verify_cuntz(INTERVAL_REP, vectors, tol=0.0)
        assert report.passed and report.max_violation == 0.0

    def test_mass_and_diameter_scaling(self):
        # each subdivision quarters the diameter and halves the mass,
        # matching the square-root scaling of the underlying measure
        for k in range(5):
            assert CantorStep.cell_mass(k + 1) / CantorStep.cell_mass(k) == Fraction(1, 2)
            assert CantorStep.cell_diameter(k + 1) / CantorStep.cell_diameter(k) == Fraction(1, 4)


class TestMuHat:
    def test_at_zero(self):
        assert mu_hat(0.0) == 1.0

    def test_first_zero(self):
        assert abs(mu_hat(1)) < 1e-12

    def test_value_at_two_against_riemann_sum(self):
        # independent oracle: level-8 Riemann sum over cylinder cells
        k = 8
        chi = CantorStep(k, [1] * (1 << k))
        total = 0.0 + 0.0j
        for i in range(1 << k):
            total += cmath.exp(2j * math.pi * 2 * float(chi.cell_left(i)))
        total /= 1 << k
        value = mu_hat(2)
        assert abs(value) == pytest.approx(abs(total), abs=1e-6)
        assert abs(value) == pytest.approx(
            math.prod(abs(math.cos(math.pi * 4.0 ** (-m))) for m in range(1, 30)),
            abs=1e-10)

    def test_functional_equation(self):
        rng = random.Random(83)
        for _ in range(200):
            lam = rng.uniform(-100, 100)
            lhs = mu_hat(lam)
            rhs = 0.5 * (1 + cmath.exp(1j * math.pi * lam)) * mu_hat(lam / 4)
            assert abs(lhs - rhs) < 1e-9

    def test_cache_returns_the_uncached_floats(self):
        # a repeated argument, and an equal one of another type, each give
        # the bits of the uncached product (pi * a numpy float32 is a float32)
        rng = random.Random(89)
        args = [rng.uniform(-1e4, 1e4) for _ in range(100)] + list(range(-20, 21))
        args += [np.float32(0.1), float(np.float32(0.1)), np.float64(2.5), Fraction(5, 2),
                 2.5, True, 1, 1.0]
        for lam in args + args[::-1]:
            got, want = mu_hat(lam), mu_hat.__wrapped__(lam)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert mu_hat.cache_info().maxsize == MU_HAT_CACHE_SIZE

    def test_bessel_sum_reuses_the_table_transforms(self):
        f = CantorStep(3, [1, 0, -2, 0, 0, 1, 0, 0])
        mu_hat.cache_clear()
        coefficient_table(f, 6)
        computed = mu_hat.cache_info().misses
        bessel_sum(f, 6)
        assert mu_hat.cache_info().misses == computed == 1 << 6

    def test_zero_predicate(self):
        assert mu_hat_is_zero(1)
        assert not mu_hat_is_zero(0)
        assert not mu_hat_is_zero(2)
        assert mu_hat_is_zero(-12)
        assert not mu_hat_is_zero(8)

    def test_predicate_rejects_non_integers(self):
        # int() truncation once answered True here while |mu_hat(1.5)| ~ 0.58
        assert abs(mu_hat(1.5)) > 0.5
        for bad in (1.5, Fraction(1, 3), float("nan"), float("inf"), "3"):
            with pytest.raises(ValueError):
                mu_hat_is_zero(bad)
        assert mu_hat_is_zero(3.0) and mu_hat_is_zero(Fraction(12, 1))

    def test_rejects_non_finite_arguments(self):
        # NaN once returned 1 (no factor taken) and inf nan+nanj after 538
        # factors; 1e308 is finite, but pi * 1e308 is not
        for bad in (float("nan"), float("inf"), float("-inf"), 1e308):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                mu_hat(bad)
        with pytest.raises(OverflowError):
            mu_hat(10 ** 400)

    def test_predicate_matches_numeric(self):
        # the registered check compares the two for every integer in [-1000, 1000]
        check = verification.check_mu_hat_zero_consistency
        assert check in [fn for _suite, fn in verification.CHECKS]
        report = check()
        assert report.passed and report.max_violation == 0.0 and report.checked == 2001


class TestSpectrum:
    def test_small_sets(self):
        assert [pt.value for pt in lambda_set(0)] == [0]
        assert [pt.value for pt in lambda_set(2)] == [0, 1, 4, 5]
        assert [pt.value for pt in lambda_set(3)] == [0, 1, 4, 5, 16, 17, 20, 21]

    def test_digits_reconstruct_value(self):
        for pt in lambda_set(4):
            assert sum(d * 4 ** i for i, d in enumerate(pt.digits)) == pt.value

    def test_bad_value_rejected(self):
        for bad in (2, 3, 6, 8, 18, 4 ** 20 * 2 + 1):
            with pytest.raises(ValueError, match="base-4 digit other than 0/1"):
                LambdaPoint.from_value(bad)
        with pytest.raises(ValueError, match="nonnegative"):
            LambdaPoint.from_value(-1)

    def test_from_value_is_the_set_point(self):
        # one digit rule: lowest first, no trailing zeros, so equal points
        # compare and hash equal whichever way they were made
        for p in range(11):
            for pt in lambda_set(p):
                again = LambdaPoint.from_value(pt.value)
                assert again == pt and hash(again) == hash(pt)
        assert LambdaPoint.from_value(5) == lambda_set(3)[3]
        assert lambda_set(3)[1].digits == (1,) and lambda_set(3)[0].digits == ()

    def test_constructor_accepts_only_spectrum_points(self):
        for pt in lambda_set(4):
            assert LambdaPoint(pt.value, pt.digits) == pt
        with pytest.raises(ValueError, match="digits"):
            LambdaPoint(5, (1,))  # the digits of 1, not of 5
        with pytest.raises(ValueError, match="base-4 digit other than 0/1"):
            LambdaPoint(2, (2,))

    def test_gram_small(self):
        for p in (0, 2, 4):
            assert gram_exponentials(p).passed

    def test_gram_pair_count(self):
        report = gram_exponentials(6)
        assert report.checked == (64 * 63) // 2

    def test_scan_witness_is_first_failing_pair_in_row_major_order(self):
        # 2 - 0 = 2 and 3 - 1 = 2 fail, 1 - 0 = 1 and 3 - 0 = 3 pass; the
        # first failure of row 0 comes before any failure of row 1
        report = orthogonality_report("r", [0, 1, 2, 3])
        assert not report.passed and report.max_violation == 1.0
        assert report.witness == "lambda pair (0, 2)" and report.checked == 6
        assert orthogonality_report("r", [0, 1, 4, 5]).passed
        assert orthogonality_report("r", [5, 5]).witness == "lambda pair (5, 5)"  # mu_hat(0) = 1
        assert orthogonality_report("r", [-3, 1]).passed  # 4 = 4 * 1
        for values in ([7], []):
            report = orthogonality_report("r", values)
            assert report.passed and report.checked == 0

    def test_scan_rejects_values_past_int64_differences(self):
        with pytest.raises(ValueError):
            orthogonality_report("r", [0, 1 << 62])
        # the widest accepted difference, 2**63 - 2 = 2 * odd, still fails
        assert not orthogonality_report("r", [-(1 << 62) + 1, (1 << 62) - 1]).passed


class TestExpCoefficients:
    def test_constant_at_zero(self):
        assert exp_coefficient(0, CantorStep.ones()) == pytest.approx(1.0)

    def test_constant_at_one_vanishes(self):
        assert abs(exp_coefficient(1, CantorStep.ones())) < 1e-12

    def test_against_direct_cell_formula(self):
        # independent oracle: expand the defining integral cell by cell at a
        # deeper level than the step itself
        f = CantorStep(1, [3, -2])
        lam = 5
        k = 6
        refined = f.refine(k)
        total = 0.0 + 0.0j
        for i, c in enumerate(refined.coeffs):
            t = refined.cell_left(i)
            total += float(c) * cmath.exp(-2j * math.pi * lam * float(t))
        total *= mu_hat(lam * 4.0 ** (-k)).conjugate() / (1 << k)
        assert exp_coefficient(lam, f) == pytest.approx(total, abs=1e-10)

    def test_scaling_relation(self):
        # composing with the first isometry multiplies the frequency by 4
        rng = random.Random(89)
        f = CantorStep(2, [rng.randint(-3, 3) for _ in range(4)])
        g = s_apply(0, f)
        for lam in (0, 1, 5, 17):
            assert exp_coefficient(4 * lam, g) == pytest.approx(
                exp_coefficient(lam, f), abs=1e-8)

    def test_bessel_sums_monotone_bounded(self):
        f = CantorStep(1, [1, 0])  # indicator of the first-level cell
        norm_sq = float(f.norm_sq())  # 1/2
        sums = [2 * bessel_sum(f, p) for p in range(2, 9)]
        for a, b in zip(sums, sums[1:]):
            assert b >= a - 1e-12
        assert all(s <= 2 * norm_sq + 1e-10 for s in sums)

    def test_coefficient_table_json_ready(self):
        import json

        rows = coefficient_table(CantorStep(1, [1, 0]), 2)
        assert [r["lambda"] for r in rows] == [0, 1, 4, 5]
        assert rows[0]["re"] == pytest.approx(0.5)
        json.dumps(rows)  # must be serializable as-is


class TestWordIdentities:
    def test_single_letter_expansions(self):
        assert indicator_relation_check(MultiIndex((0,))).passed
        assert indicator_relation_check(MultiIndex((1,))).passed

    def test_two_letter_expansion_by_hand(self):
        # 1/4 [S00 - S01 + S10 - S11] chi equals the (0,1) cell indicator
        report = indicator_relation_check(MultiIndex((0, 1)))
        assert report.passed and report.max_violation == 0.0

    def test_all_words_to_length_four(self):
        for length in range(5):
            for mask in range(1 << length):
                word = MultiIndex(tuple((mask >> m) & 1 for m in range(length)))
                assert indicator_relation_check(word).passed

    def test_failed_expansion_names_the_word(self, monkeypatch):
        # with the branches swapped the expansion gives another cell
        monkeypatch.setattr("cuntz_bases.cantor.s_word",
                            lambda length, code, f: s_word(length, code ^ ((1 << length) - 1), f))
        report = indicator_relation_check(MultiIndex((0, 1)))
        assert not report.passed and report.max_violation == 1.0
        assert (report.witness, report.checked, report.tol) == ("word (0, 1)", 4, 0.0)

    def test_wrong_sign_row_fails_both_word_checks(self, monkeypatch):
        # one flipped entry of the kernel's sign row: the word path of the
        # square waves and the cell-indicator expansions must both notice
        def flipped(length, code):
            row = word_signs(length, code).copy()
            row[-1] = -row[-1]
            return row

        monkeypatch.setattr("cuntz_bases.operators.word_signs", flipped)
        assert not verification.check_walsh_two_paths().passed
        assert not verification.check_indicator_expansions().passed

    def test_partition_small(self):
        assert verify_lambda_partition(2).passed
        assert verify_lambda_partition(3).passed

    def test_partition_p8(self):
        report = verify_lambda_partition(8)
        assert report.passed and report.checked == 255
