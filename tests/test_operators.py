"""Isometry pair on steps and hybrids, word composition, relation checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cuntz_bases.cantor import CantorStep
from cuntz_bases.dyadic import DyadicStep, MultiIndex, StepFunction
from cuntz_bases.operators import (
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
from cuntz_bases.reporting import VerificationReport
from cuntz_bases.trig import (
    MODE_COS,
    MODE_SIN,
    HybridFunction,
    hybrid_inner,
    make_atom,
    make_cos,
    make_sine,
)


def random_step(rng, level):
    return DyadicStep(level, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(1 << level)])


class TestStepOperators:
    def test_apply_constant_fixed(self):
        c = DyadicStep(0, [5])
        assert s_apply(0, c) == c

    def test_apply_flip(self):
        assert s_apply(1, DyadicStep(0, [1])).coeffs == (1, -1)
        assert s_apply(1, DyadicStep(1, [1, -1])).coeffs == (1, -1, -1, 1)

    def test_adjoint_kills_antisymmetric(self):
        assert s_adjoint(0, DyadicStep(1, [1, -1])).is_zero()

    def test_adjoint_difference(self):
        assert s_adjoint(1, DyadicStep(1, [1, -1])) == DyadicStep(0, [1])

    def test_adjoint_level_zero(self):
        c = DyadicStep(0, [7])
        assert s_adjoint(0, c) == c
        assert s_adjoint(1, c).is_zero()

    def test_isometry_exact(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_step(rng, 4)
            for j in (0, 1):
                assert s_apply(j, f).norm_sq() == f.norm_sq()

    def test_orthogonal_ranges_exact(self):
        rng = random.Random(6)
        for _ in range(10):
            f, g = random_step(rng, 3), random_step(rng, 4)
            assert s_apply(0, f).inner(s_apply(1, g)) == 0

    def test_kernel_is_reflection_condition(self):
        # level-4 basis split: antisymmetric pairs are killed, symmetric are not
        k = 4
        half = 1 << (k - 1)
        for i in range(half):
            anti = DyadicStep.indicator(k, i) - DyadicStep.indicator(k, i + half)
            sym = DyadicStep.indicator(k, i) + DyadicStep.indicator(k, i + half)
            assert s_adjoint(0, anti).is_zero()
            assert not s_adjoint(0, sym).is_zero()


class TestCanonicalResults:
    def test_adjoint_halves_to_ints(self):
        # (3 + 1) / 2 and (3 - 1) / 2 are integral: they must come back as ints
        f = DyadicStep(1, [3, 1])
        for j in (0, 1):
            (c,) = s_adjoint(j, f).coeffs
            assert type(c) is int
        g = DyadicStep(1, [Fraction(1, 2), Fraction(3, 2)])
        assert s_adjoint(0, g).coeffs == (1,) and type(s_adjoint(0, g).coeffs[0]) is int
        assert s_adjoint(1, DyadicStep(1, [1, 0])).coeffs == (Fraction(1, 2),)

    def test_operator_chains_stay_canonical(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_step(rng, 3)
            for word in ((0, 1, 1), (1, 0), (1, 1, 1, 1)):
                g = adjoint_word(MultiIndex(word), apply_word(MultiIndex(word), f))
                h = adjoint_word(MultiIndex(word), f)
                for c in g.coeffs + h.coeffs + s_apply(1, f).coeffs:
                    if c == int(c):
                        assert type(c) is int


class TestWords:
    def test_word_composition(self):
        phi0 = DyadicStep.ones()
        out = apply_word(MultiIndex((1, 1)), phi0)
        assert out.coeffs == (1, -1, -1, 1)

    def test_empty_word_identity(self):
        f = DyadicStep(2, [1, 2, 3, 4])
        assert apply_word(MultiIndex(()), f) == f

    def test_adjoint_inverts_apply(self):
        rng = random.Random(9)
        for _ in range(20):
            word = MultiIndex(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5))))
            f = random_step(rng, 3)
            assert adjoint_word(word, apply_word(word, f)) == f

    def test_rightmost_letter_acts_first(self):
        f = DyadicStep.ones()
        # S_0 S_1: first flip, then duplicate
        out = apply_word(MultiIndex((0, 1)), f)
        assert out == s_apply(0, s_apply(1, f))

    def test_words_are_binary(self):
        with pytest.raises(ValueError):
            MultiIndex((2,))
        with pytest.raises(ValueError):
            apply_word((0, 2), DyadicStep.ones())
        with pytest.raises(ValueError):
            adjoint_word((2,), make_sine(1))


class TestCuntzRelations:
    def test_interval_rep_exact_on_indicators(self):
        vectors = [DyadicStep.indicator(3, i) for i in range(8)]
        report = verify_cuntz(INTERVAL_REP, vectors, tol=0.0)
        assert report.passed and report.max_violation == 0.0

    def test_general_rep3_random(self):
        rep = GeneralRepN(3)
        rng = np.random.default_rng(42)
        vectors = [rep.random_step(2, rng) for _ in range(100)]
        report = verify_cuntz(rep, vectors, tol=1e-12)
        assert report.passed

    def test_partition_of_unity_on_hybrid(self):
        rep = IntervalRep2()
        f = make_sine(1) + HybridFunction.from_step(DyadicStep.ones())
        total = rep.apply(0, rep.adjoint(0, f)) + rep.apply(1, rep.adjoint(1, f))
        diff = total - f
        assert hybrid_inner(diff, diff) < 1e-20

    def test_hybrid_isometry(self):
        f = make_sine(3) + make_sine(1).scale(2)
        for j in (0, 1):
            g = INTERVAL_REP.apply(j, f)
            assert hybrid_inner(g, g) == pytest.approx(hybrid_inner(f, f), abs=1e-10)

    def test_failure_reported_not_raised(self):
        class Broken(IntervalRep2):
            def adjoint(self, j, f):
                return super().adjoint(0, f)

        report = verify_cuntz(Broken(), [DyadicStep.indicator(2, 1)], tol=0.0)
        assert not report.passed
        assert report.witness is not None

    def test_general_rep_matches_interval_on_reals(self):
        rep2 = GeneralRepN(2)
        rng = random.Random(12)
        f = random_step(rng, 3)
        nf = NAdicStep(2, 3, [float(c) for c in f.coeffs])
        for j in (0, 1):
            exact = s_apply(j, f)
            approx = rep2.apply(j, nf)
            gap = max(abs(complex(float(a)) - b) for a, b in zip(exact.coeffs, approx.coeffs))
            assert gap < 1e-14


class TestUnitaryMatrix:
    def test_n2_exact(self):
        report = verify_unitary_matrix(2, [0.3], tol=0.0)
        assert report.passed and report.max_violation == 0.0

    def test_n4_random_points(self):
        rng = np.random.default_rng(1)
        report = verify_unitary_matrix(4, rng.random(50), tol=1e-12)
        assert report.passed

    def test_n2_all_dyadic_level4(self):
        xs = [i / 16 for i in range(16)]
        assert verify_unitary_matrix(2, xs, tol=0.0).passed

    def test_n3_unimodular_filters(self):
        rep = GeneralRepN(3)
        for x in (0.1, 0.5, 0.9):
            for j in range(3):
                assert abs(abs(rep.filter_value(j, x)) - 1.0) < 1e-15


class TestGeneralProjections:
    def test_orthogonal_idempotents_sum_to_identity(self):
        rep = GeneralRepN(4)
        rng = np.random.default_rng(7)
        f = rep.random_step(1, rng)
        projections = [rep.apply(k, rep.adjoint(k, f)) for k in range(4)]
        total = projections[0]
        for p in projections[1:]:
            k = max(total.level, p.level)
            total = NAdicStep(4, k, total.refine(k).coeffs + p.refine(k).coeffs)
        assert (total - f).norm_sq() < 1e-24
        # mutual orthogonality of the projected pieces
        for a in range(4):
            for b in range(a + 1, 4):
                assert abs(projections[a].inner(projections[b])) < 1e-12


# ---------------------------------------------------------------------------
# Carrier protocol: verify_cuntz measures with the carrier's own norm_sq
# ---------------------------------------------------------------------------

def reference_residual_norm(f, g) -> float:
    """Norm of f - g by isinstance dispatch over the carriers, as
    verify_cuntz measured it before every carrier had ``norm_sq``."""
    if isinstance(f, HybridFunction) or isinstance(g, HybridFunction):
        if isinstance(f, StepFunction):
            f = HybridFunction.from_step(f)
        if isinstance(g, StepFunction):
            g = HybridFunction.from_step(g)
        diff = f - g
        return float(max(hybrid_inner(diff, diff), 0.0)) ** 0.5
    diff = f - g
    return float(diff.norm_sq()) ** 0.5


def reference_zero_like(f):
    if isinstance(f, HybridFunction):
        return HybridFunction.zero()
    if isinstance(f, NAdicStep):
        return NAdicStep(f.base, 0, [0.0])
    return type(f)(0, (0,))


def reference_verify_cuntz(rep, test_vectors, tol=0.0) -> VerificationReport:
    """verify_cuntz with the residual measured against an explicit zero vector."""
    worst = 0.0
    witness = None
    checked = 0
    n = rep.N
    for idx, f in enumerate(test_vectors):
        for k in range(n):
            sk = rep.apply(k, f)
            for j in range(n):
                got = rep.adjoint(j, sk)
                want = f if j == k else reference_zero_like(f)
                gap = reference_residual_norm(got, want)
                checked += 1
                if gap > worst:
                    worst, witness = gap, f"S_{j}* S_{k} on vector {idx}"
        total = None
        for k in range(n):
            piece = rep.apply(k, rep.adjoint(k, f))
            total = piece if total is None else total + piece
        gap = reference_residual_norm(total, f)
        checked += 1
        if gap > worst:
            worst, witness = gap, f"sum_k S_k S_k* on vector {idx}"
    passed = worst <= tol
    return VerificationReport("cuntz-relations", passed, worst, tol,
                              None if passed else witness, checked)


def random_hybrids(rng, count):
    """Sums of sine and cosine atoms on random step windows, plus pure modes."""
    vectors = [make_sine(n) for n in range(4)] + [make_cos(n) for n in range(3)]
    for _ in range(count):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            window = random_step(rng, rng.randint(0, 3))
            mode = rng.choice((MODE_SIN, MODE_COS))
            freq = Fraction(rng.randint(-6, 6), 1 << rng.randint(0, 2))
            phase = Fraction(rng.randint(-4, 4), 1 << rng.randint(0, 3))
            atoms.append(make_atom(window, mode, freq, phase))
        vectors.append(HybridFunction(atoms) + HybridFunction.from_step(random_step(rng, 2)))
    return vectors


class BrokenRep(IntervalRep2):
    def adjoint(self, j, f):
        return super().adjoint(0, f)


class TestCarrierProtocol:
    def assert_same_report(self, rep, vectors, tol):
        got = verify_cuntz(rep, vectors, tol=tol)
        want = reference_verify_cuntz(rep, vectors, tol=tol)
        assert got == want
        assert got.max_violation.hex() == want.max_violation.hex()
        return got

    def test_reports_match_reference_on_steps(self):
        rng = random.Random(41)
        dyadic = [random_step(rng, level) for level in range(5) for _ in range(3)]
        cantor = [CantorStep(s.level, s.coeffs) for s in dyadic]
        for vectors in (dyadic + [DyadicStep.zero()], cantor):
            assert self.assert_same_report(INTERVAL_REP, vectors, 0.0).passed

    def test_reports_match_reference_on_hybrids(self):
        vectors = random_hybrids(random.Random(43), 12)
        assert self.assert_same_report(INTERVAL_REP, vectors, 0.0).passed

    def test_reports_match_reference_on_general_rep(self):
        rep = GeneralRepN(3)
        rng = np.random.default_rng(47)
        vectors = [rep.random_step(level, rng) for level in (0, 1, 2) for _ in range(10)]
        report = self.assert_same_report(rep, vectors, 1e-12)
        assert report.passed and report.max_violation > 0.0

    def test_broken_rep_witness_matches_reference(self):
        rng = random.Random(53)
        for vectors in ([DyadicStep.indicator(2, 1), random_step(rng, 3)],
                        [CantorStep.indicator_cell(MultiIndex((1, 0)))],
                        random_hybrids(rng, 3)):
            report = self.assert_same_report(BrokenRep(), vectors, 0.0)
            assert not report.passed and report.witness is not None

    def test_hybrid_measures_itself_like_hybrid_inner(self):
        rng = random.Random(59)
        vectors = random_hybrids(rng, 8)
        for f in vectors:
            assert f.norm_sq().hex() == hybrid_inner(f, f).hex()
            for g in vectors + [random_step(rng, 2)]:
                assert f.inner(g).hex() == hybrid_inner(f, g).hex()
