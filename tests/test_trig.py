"""Hybrid function space: closed-form inner products against quadrature,
Fourier coefficients, and the half-shift reflection classifier."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from scipy.integrate import quad

from cuntz_bases import trig, verification
from cuntz_bases.basis import build_frame
from cuntz_bases.cantor import CantorStep
from cuntz_bases.dyadic import DyadicStep
from cuntz_bases.operators import s_adjoint, s_apply
from cuntz_bases.trig import (
    ANTIPERIODIC_HALF,
    NEITHER,
    PERIODIC_HALF,
    HybridFunction,
    TrigAtom,
    classify_reflection,
    fourier_coeffs,
    hybrid_inner,
    make_atom,
    make_cos,
    make_sine,
)

S1 = make_sine(1)
ONE = HybridFunction.from_step(DyadicStep.ones())


def random_trig_poly(rng, max_n=6):
    """Small random trig polynomial with integer weights."""
    f = HybridFunction.zero()
    for n in range(1, max_n + 1):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a:
            f = f + make_cos(n).scale(a)
        if b:
            f = f + make_sine(n).scale(b)
    if rng.random() < 0.5:
        f = f + ONE.scale(rng.randint(-2, 2))
    return f


class TestInner:
    def test_sine_norm(self):
        # int_0^1 sin^2(2 pi x) dx = 1/2 in closed form
        assert hybrid_inner(S1, S1) == pytest.approx(0.5, abs=1e-14)

    def test_sine_cos_orthogonal(self):
        assert abs(hybrid_inner(S1, make_cos(1))) < 1e-14

    def test_sine_vs_shifted_generators(self):
        # the second isometry never creates overlap with any plain sine
        for m in range(1, 21):
            sm = make_sine(m)
            for n in range(1, 21):
                value = hybrid_inner(sm, s_apply(1, make_sine(n)))
                assert abs(value) < 1e-12, (m, n)

    def test_const_agrees_with_exact_inner(self):
        rng = random.Random(3)
        for _ in range(10):
            f = DyadicStep(3, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)])
            g = DyadicStep(2, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])
            assert hybrid_inner(f, g) == float(f.inner(g))

    def test_quadrature_cross_check(self):
        # independent oracle: adaptive quadrature of the pointwise product
        window = DyadicStep(2, [1, -2, 0, 3])
        f = HybridFunction((make_atom(window, "sin", Fraction(3), Fraction(1, 4)),))
        g = HybridFunction((make_atom(DyadicStep(1, [2, -1]), "cos", Fraction(5, 2)),))
        for u, v in [(f, g), (f, f), (g, g), (f + g, g)]:
            expected = 0.0
            for i in range(8):  # integrate cell by cell: integrand is smooth inside
                lo, hi = i / 8, (i + 1) / 8
                expected += quad(lambda x: u.evaluate(Fraction(x)) * v.evaluate(Fraction(x)),
                                 lo, hi, epsabs=1e-13)[0]
            assert hybrid_inner(u, v) == pytest.approx(expected, abs=1e-10)

    def test_cantor_step_against_a_hybrid_is_a_type_error(self):
        # a cylinder step lives on the Cantor measure, a hybrid on [0, 1)
        cantor = CantorStep(2, [1, -2, 0, 3])
        for call in (lambda: cantor.inner(S1), lambda: S1.inner(cantor),
                     lambda: hybrid_inner(cantor, S1), lambda: fourier_coeffs(cantor, 2),
                     lambda: classify_reflection(cantor)):
            with pytest.raises(TypeError, match="CantorStep"):
                call()


class TestAdjointAtoms:
    def test_even_sine_halves_exactly(self):
        # atom-level identity, no floats involved
        assert s_adjoint(0, make_sine(4)) == make_sine(2)
        assert s_adjoint(0, make_sine(10)) == make_sine(5)

    def test_odd_sine_annihilated_exactly(self):
        for n in (1, 3, 5, 99):
            assert s_adjoint(0, make_sine(n)).is_zero()

    def test_frequency_doubling(self):
        for m in (1, 2):
            f = make_sine(3)
            for _ in range(m):
                f = s_apply(0, f)
            assert f == make_sine(3 * 2 ** m)

    def test_deep_adjoint_words_stay_symbolic(self):
        # three adjoints on an odd sine produce eighth-integer frequencies;
        # the representation must stay exact (phases fold, never floats)
        f = make_sine(1)
        for j in (1, 0, 0):
            f = s_adjoint(j, f)
        assert all(a.freq.denominator in (1, 2, 4, 8) for a in f.atoms)
        assert f.norm_sq() >= 0


class TestFourier:
    def test_pure_sine(self):
        c, s = fourier_coeffs(make_sine(3), 5)
        for n in range(6):
            assert abs(c[n]) < 1e-12
            assert abs(s[n] - (0.5 if n == 3 else 0.0)) < 1e-12

    def test_constant(self):
        c, s = fourier_coeffs(DyadicStep.ones(), 3)
        assert c[0] == pytest.approx(1.0, abs=1e-14)
        assert all(abs(v) < 1e-12 for v in c[1:] + s)

    def test_adjoint_decimates_coefficients(self):
        rng = random.Random(17)
        for _ in range(5):
            f = random_trig_poly(rng)
            g = s_adjoint(0, f)
            c_f, s_f = fourier_coeffs(f, 12)
            c_g, s_g = fourier_coeffs(g, 6)
            for n in range(7):
                assert c_g[n] == pytest.approx(c_f[2 * n], abs=1e-10)
                assert s_g[n] == pytest.approx(s_f[2 * n], abs=1e-10)

    def test_parseval(self):
        rng = random.Random(23)
        for _ in range(5):
            f = random_trig_poly(rng)
            c, s = fourier_coeffs(f, 8)
            energy = c[0] ** 2 + 2 * sum(c[n] ** 2 + s[n] ** 2 for n in range(1, 9))
            assert energy == pytest.approx(f.norm_sq(), abs=1e-10)


class TestReflection:
    def test_odd_sine_antiperiodic(self):
        assert classify_reflection(make_sine(3)) == ANTIPERIODIC_HALF

    def test_even_sine_periodic(self):
        assert classify_reflection(make_sine(2)) == PERIODIC_HALF

    def test_mixture_neither(self):
        assert classify_reflection(make_sine(1) + make_sine(2)) == NEITHER

    def test_adjoint_norms_direct(self):
        f = make_sine(1) + make_sine(2)
        assert s_adjoint(0, f).norm_sq() > 0.01
        assert s_adjoint(1, f).norm_sq() > 0.01


class TestRepresentation:
    def test_merge_and_zero(self):
        f = make_sine(2) + make_sine(2).scale(-1)
        assert f.is_zero()

    def test_zero_frequency_and_zero_factor(self):
        # the sine of frequency 0 vanishes, the cosine is the const mode,
        # and a zero factor leaves no window
        assert make_sine(0) == HybridFunction.zero()
        assert make_cos(0).atoms == HybridFunction.from_step(DyadicStep.ones()).atoms
        assert (make_sine(3) + ONE).scale(0).is_zero()

    def test_const_mode_invariants(self):
        atom = make_atom(DyadicStep.ones(), "cos", 0, 0)
        assert atom.mode == "const"
        # make_atom is the one constructor: the class itself takes no arguments
        with pytest.raises(TypeError):
            TrigAtom(DyadicStep.ones(), "sin", 1, Fraction(1, 2))

    def test_dyadic_frequency_enforced(self):
        with pytest.raises(ValueError):
            make_atom(DyadicStep.ones(), "sin", Fraction(1, 3))

    @pytest.mark.parametrize("freq, phase", [(0.1, 0), (0.5, 0), (True, 0), (False, 0),
                                             (1, 0.25), (1, True)])
    def test_float_and_bool_rejected(self, freq, phase):
        # a float frequency 0.1 would be 3602879701896397/2**55, True would be 1
        with pytest.raises(TypeError):
            make_atom(DyadicStep.ones(), "sin", freq, phase)

    def test_quarter_turn_folding(self):
        # sin(2 pi x + pi/2) is cos(2 pi x)
        folded = make_atom(DyadicStep.ones(), "sin", Fraction(1), Fraction(1, 2))
        assert folded.mode == "cos" and folded.phase == 0


class TestIntegralMemo:
    """The bounded LRU cache of cell-integral blocks."""

    def test_memo_stays_within_its_bound(self):
        trig._cell_integrals.cache_clear()
        for n in range(1, 400):
            for k in range(7):
                trig._cell_integrals("sin", (2 * n + 1, 3), (1, 2), k, 0)
        info = trig._cell_integrals.cache_info()
        assert info.misses == 399 * 7 > trig.CACHE_BLOCKS
        assert info.currsize == info.maxsize == trig.CACHE_BLOCKS

    def test_deep_sparse_window_computes_only_its_block(self):
        # one cell of level 16: the whole level would be 65,536 integrals a term
        window = DyadicStep.indicator(16, 1000)
        f = HybridFunction((make_atom(window, "sin", 3), make_atom(window, "cos", 5)))
        g = HybridFunction((make_atom(window, "cos", 7),))
        trig._cell_integrals.cache_clear()
        hybrid_inner(f, g)
        assert trig._cell_integrals.cache_info().misses == 4
        # cos 5 * cos 7 and sin 3 * cos 7 at the difference and the sum
        # each block is 32 cells, not the level's 65,536
        block = 1000 >> trig.BLOCK_BITS
        for kind, freq in [("cos", -2), ("cos", 12), ("sin", -4), ("sin", 10)]:
            cells = trig._cell_integrals(kind, (freq, 0), (0, 0), 16, block)
            assert len(cells) == 1 << trig.BLOCK_BITS
        info = trig._cell_integrals.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 4, 4)

    def test_cold_and_warm_calls_agree_on_frame_vectors(self):
        frames = [build_frame(make_sine(2 * n + 1), None, 4) for n in range(3)]
        vectors = [v for fr in frames for v in fr.vectors]
        for i, u in enumerate(vectors):
            for v in vectors[i:]:
                trig._cell_integrals.cache_clear()
                cold = hybrid_inner(u, v)
                misses = trig._cell_integrals.cache_info().misses
                assert misses
                assert hybrid_inner(u, v).hex() == cold.hex()
                assert trig._cell_integrals.cache_info().misses == misses

    def test_threads_share_the_cache(self):
        # 2 * 24 * 24 distinct blocks a call, more than the cache holds, so
        # four threads evict each other's blocks on every call; a switch
        # interval of 1e-6 s interleaves them between bytecodes
        window = DyadicStep(5, range(1, 33))
        f = HybridFunction(tuple(make_atom(window, "sin", n) for n in range(1, 25)))
        g = HybridFunction(tuple(make_atom(window, "cos", Fraction(200 * m + 1, 2))
                                 for m in range(1, 25)))
        trig._cell_integrals.cache_clear()
        expected = hybrid_inner(f, g).hex()
        assert trig._cell_integrals.cache_info().misses == 2 * 24 * 24 > trig.CACHE_BLOCKS
        results, errors = [], []

        def work():
            try:
                for _ in range(3):
                    results.append(hybrid_inner(f, g).hex())
            except Exception as exc:  # any raise fails the test
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [expected] * 12

    def test_sine_cross_inners_build_no_fractions(self, monkeypatch):
        # the Fraction implementation of this layer built 14,138 here
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        assert Fraction(1, 3) and len(made) == 1  # the counter sees every Fraction
        made.clear()
        report = verification.check_sine_cross_inners()
        monkeypatch.undo()
        assert report.passed
        assert len(made) == 0
