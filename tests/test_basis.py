"""Square-wave system, exact transform, generator cover, seed frames."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import cuntz_bases
from cuntz_bases import basis
from cuntz_bases.basis import (
    CoverCollisionError,
    WalshSystem,
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
from cuntz_bases import verification
from cuntz_bases.dyadic import DyadicStep, MultiIndex, enumerate_words
from cuntz_bases.operators import apply_word, s_apply, word_signs
from cuntz_bases.trig import hybrid_inner, make_sine


def eval_walsh_pointwise(n, x):
    """Independent oracle: evaluate the defining recursion pointwise.

    Doubling either lands in [0,1) through 2x or through 2x-1, never both,
    so the two-term recursion collapses to one branch per point.
    """
    if n == 0:
        return 1
    half, bit = divmod(n, 2)
    if x < Fraction(1, 2):
        return eval_walsh_pointwise(half, 2 * x)
    value = eval_walsh_pointwise(half, 2 * x - 1)
    return value if bit == 0 else -value


class TestWalsh:
    def test_first_values(self):
        assert walsh(0) == DyadicStep(0, [1])
        assert walsh(1) == DyadicStep(1, [1, -1])
        assert walsh(3) == DyadicStep(2, [1, -1, -1, 1])

    def test_level_is_bit_length(self):
        for n in range(64):
            w = walsh(n)
            assert w.level == n.bit_length()
            assert w.normalize().level == w.level
            assert all(c in (1, -1) for c in w.coeffs)

    def test_matches_word_path(self):
        for n in range(256):
            assert walsh(n) == apply_word(walsh_word(n), DyadicStep.ones())

    def test_negative_word_index_rejected(self):
        # a negative index has no bits to read (divmod by 2 never reaches 0)
        with pytest.raises(ValueError):
            walsh_word(-1)

    def test_recursion_operator_form(self):
        for n in range(32):
            assert s_apply(0, walsh(n)) == walsh(2 * n)
            assert s_apply(1, walsh(n)) == walsh(2 * n + 1)

    def test_pointwise_oracle(self):
        for n in range(32):
            w = walsh(n)
            for i in range(1 << w.level):
                x = Fraction(i, 1 << w.level)
                assert w.evaluate(x) == eval_walsh_pointwise(n, x)

    def test_gram_identity_small(self):
        vectors = [walsh(n) for n in range(16)]
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                assert u.inner(v) == (1 if i == j else 0)

    def test_local_system_isolated(self):
        system = WalshSystem()
        assert system.walsh(5) == walsh(5)
        system = WalshSystem()
        assert system.walsh(5) == walsh(5)


PROCFS = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                            reason="reads the peak resident size from procfs")


def check_peak_kb(check: str) -> int:
    """How far one verification check raises the peak resident size, in kB.

    The check runs in a fresh interpreter and the delta leaves out the
    imports.  The peak is VmHWM, the high-water mark of this program image:
    ru_maxrss would start from the size of the forking process."""
    code = ("from cuntz_bases import verification\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "before = peak()\n"
            f"assert verification.{check}().passed\n"
            "print(peak() - before)\n")
    src = os.path.dirname(os.path.dirname(cuntz_bases.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return int(out)


class TestWalshMemo:
    def test_deep_steps_rebuilt_not_stored(self):
        system = WalshSystem()
        one = DyadicStep.ones()
        for n in range(4096):
            assert system.walsh(n) == apply_word(walsh_word(n), one)
        assert max(step.level for step in system._cache.values()) <= 10
        assert len(system._cache) == 1024
        for n in range(1024, 4096):
            assert system.walsh(n) == s_apply(n % 2, system.walsh(n // 2))

    def test_module_memo_does_not_grow(self):
        for n in range(1024):
            walsh(n)
        assert len(basis._SYSTEM._cache) == 1024
        for n in range(65280, 65536):
            assert walsh(n).level == 16
        assert len(basis._SYSTEM._cache) == 1024
        assert walsh(65535) == apply_word(walsh_word(65535), DyadicStep.ones())

    @PROCFS
    def test_two_path_check_memory(self):
        assert check_peak_kb("check_walsh_two_paths") < 32 * 1024

    @PROCFS
    @pytest.mark.parametrize("check", ["check_walsh_gram", "check_decomposition_levels"])
    def test_gram_check_memory(self, check):
        # the 1,024 x 1,024 float64 row matrix is 8 MB; a list of the steps
        # or the whole Gram next to it would add 8 MB each
        assert check_peak_kb(check) < 16 * 1024


class TestTransform:
    def test_trivial(self):
        assert walsh_expand(DyadicStep(0, [1])) == [1]

    def test_single_flip(self):
        assert walsh_expand(DyadicStep(1, [1, -1])) == [0, 1]

    def test_matches_gram_definition(self):
        rng = random.Random(31)
        for _ in range(10):
            f = DyadicStep(4, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(16)])
            coeffs = walsh_expand(f)
            for n, c in enumerate(coeffs):
                assert c == walsh(n).inner(f)

    def test_round_trip_exact(self):
        rng = random.Random(33)
        for _ in range(100):
            f = DyadicStep(6, [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                               for _ in range(64)])
            assert walsh_synthesize(walsh_expand(f)) == f

    def test_parseval_exact(self):
        rng = random.Random(37)
        f = DyadicStep(5, [Fraction(rng.randint(-9, 9)) for _ in range(32)])
        coeffs = walsh_expand(f)
        assert sum(c * c for c in coeffs) == f.norm_sq()

    def test_requested_level_pads(self):
        coeffs = walsh_expand(DyadicStep(1, [1, -1]), level=3)
        assert len(coeffs) == 8
        assert coeffs[1] == 1 and all(c == 0 for i, c in enumerate(coeffs) if i != 1)


class TestIngest:
    def test_flip_signal(self):
        assert ingest_signal(["1.0", "-1.0"], 1) == walsh(1)

    def test_decimal_verbatim(self):
        f = ingest_signal([0.1, "0.3"], 1)
        assert f.coeffs == (Fraction(1, 10), Fraction(3, 10))

    def test_round_trip_64(self):
        rng = random.Random(41)
        samples = [str(rng.randint(-50, 50)) for _ in range(64)]
        f = ingest_signal(samples, 6)
        assert walsh_synthesize(walsh_expand(f)) == f

    def test_bad_length(self):
        with pytest.raises(ValueError):
            ingest_signal([1, 2, 3], 2)


class TestGeneratorCover:
    def test_first_four_generators(self):
        cover = greedy_generators(4)
        first = [g.digits for g in cover.generators[:4]]
        assert first == [(), (1, 1), (1, 1, 0), (1, 0, 1)]

    def test_generator_basis_indices(self):
        cover = greedy_generators(4)
        indices = [cover.generator_basis_index(g) for g in cover.generators[:4]]
        assert indices == [1, 7, 11, 13]

    def test_depth_zero(self):
        cover = greedy_generators(0)
        assert [g.digits for g in cover.generators] == [()]

    def test_bijection_all_lengths(self):
        cover = greedy_generators(8)
        by_len = {}
        for digits, (k, j) in cover.coverage.items():
            assert k.digits + j.digits == digits
            assert k.weight <= 1
            by_len[len(digits)] = by_len.get(len(digits), 0) + 1
        for length in range(9):
            assert by_len[length] == 1 << length

    def test_generator_weights_even(self):
        cover = greedy_generators(8)
        assert all(g.weight % 2 == 0 for g in cover.generators)

    def test_collision_error_has_witness(self):
        with pytest.raises(CoverCollisionError):
            raise CoverCollisionError("word (0, 1) covered twice")


class TestComputeK:
    def test_square_wave_seed_never_collides(self):
        assert compute_K(walsh(1), max_depth=8, tol=0.0) is None

    def test_sine_seed_first_collision(self):
        assert compute_K(make_sine(1), max_depth=4, tol=1e-10) == MultiIndex((1, 1))

    def test_seed_outside_kernel_rejected(self):
        with pytest.raises(ValueError):
            compute_K(make_sine(2), max_depth=2, tol=1e-10)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            compute_K(DyadicStep.zero(), max_depth=2)


class TestFrames:
    def test_sine_frame_orthonormal(self):
        frame = build_frame(make_sine(1), MultiIndex((1, 1)), 3)
        assert frame.max_pairwise_inner() < 1e-10
        # and every vector keeps the seed's norm
        for v in frame.vectors:
            assert v.norm_sq() == pytest.approx(0.5, abs=1e-10)

    def test_sine_frames_mutually_orthogonal(self):
        f1 = build_frame(make_sine(1), compute_K(make_sine(1), tol=1e-10), 3)
        f3 = build_frame(make_sine(3), compute_K(make_sine(3), tol=1e-10), 3)
        assert frames_orthogonal(f1, f3, 1e-10)

    def test_square_wave_frame_reproduces_basis(self):
        frame = build_frame(walsh(1), None, 3)
        produced = {v.normalize().coeffs for v in frame.vectors}
        expected_indices = [w.code + (1 << len(w.digits))
                            for w in frame.words]
        expected = {walsh(n).coeffs for n in expected_indices}
        assert produced == expected

    def test_step_and_sine_frames_compare_in_either_order(self):
        steps = build_frame(walsh(1), None, 2)
        sines = build_frame(make_sine(1), None, 2)
        for u in steps.vectors:
            for v in sines.vectors:
                assert u.inner(v).hex() == v.inner(u).hex() == hybrid_inner(u, v).hex()
        assert frames_orthogonal(steps, sines) == frames_orthogonal(sines, steps)

    def test_frame_words_deduplicated(self):
        frame = build_frame(make_sine(1), MultiIndex((1, 1)), 3)
        assert len(set(frame.words)) == len(frame.words)

    @pytest.mark.parametrize("k_digits", [None, (1, 1), (1, 0, 1), (0, 1, 1, 0)])
    def test_frame_words_are_zero_prefixed_words_below_K(self, k_digits):
        # the words 0^m J, J before K (or of weight <= 1 without K), as digit
        # tuples from validated words, sorted by the validated sort key
        depth = 3
        K = None if k_digits is None else MultiIndex(k_digits)
        if K is None:
            digits = {w.digits for w in enumerate_words(depth) if w.weight <= 1}
        else:
            digits = {(0,) * m + j.digits for m in range(depth + 1)
                      for j in enumerate_words(depth) if j < K}
        want = sorted((MultiIndex(d) for d in digits), key=lambda w: w.sort_key)
        for seed in (walsh(1), make_sine(1)):
            frame = build_frame(seed, K, depth)
            assert list(frame.words) == want and frame.K == K
            for word, vector in zip(frame.words, frame.vectors):
                assert vector == apply_word(MultiIndex(word.digits), seed)

    def test_weight_bounded_family_orthogonal_across_seeds(self):
        seeds = [make_sine(2 * n + 1) for n in range(4)]
        frames = [build_frame(s, None, 3) for s in seeds]
        for i in range(len(frames)):
            assert frames[i].max_pairwise_inner() < 1e-10
            for j in range(i + 1, len(frames)):
                assert frames_orthogonal(frames[i], frames[j], 1e-10)


class TestDecomposition:
    def test_level_one(self):
        report = verify_decomposition(greedy_generators(2), 1)
        assert report.passed

    def test_level_three_exact(self):
        report = verify_decomposition(greedy_generators(4), 3)
        assert report.passed and report.max_violation == 0.0

    def test_missing_words_fail_with_the_count(self):
        cover = greedy_generators(2)
        thin = dataclasses.replace(cover, coverage=dict(list(cover.coverage.items())[:2]))
        report = verify_decomposition(thin, 2)
        assert not report.passed and report.max_violation == math.inf
        assert (report.witness, report.checked) == ("expected 4 vectors, got 3", 3)

    def test_shallow_cover_rejected(self):
        with pytest.raises(ValueError):
            verify_decomposition(greedy_generators(2), 6)

    def test_gram_gap_rejects_non_integer_vectors(self):
        # the float64 Gram is exact only on integer steps; 1/3-valued input
        # once came back as the float 0.888...
        third = DyadicStep(1, [Fraction(1, 3), Fraction(-1, 3)])
        with pytest.raises(ValueError):
            gram_identity_gap([walsh(0), third])
        with pytest.raises(ValueError):
            gram_identity_gap([DyadicStep(0, [1 << 30])])
        assert gram_identity_gap([walsh(0), walsh(3)]) == (0.0, None)


def decomposition_oracle(cover, level):
    """One level judged on its own: its vectors, an int64 Gram at that
    level, and the first pair with the largest gap in row-major order."""
    words = sorted((MultiIndex(d) for d in cover.coverage if len(d) < level),
                   key=lambda w: w.sort_key)
    vectors = [DyadicStep.ones()] + [apply_word(w, walsh(1)) for w in words]
    n = len(vectors)
    if n != 1 << level:
        return False, math.inf, f"expected {1 << level} vectors, got {n}", n
    mat = np.array([v.refine(level).num for v in vectors], dtype=np.int64)
    gaps = np.abs(mat @ mat.T - (1 << level) * np.eye(n, dtype=np.int64))
    i, j = divmod(int(gaps.argmax()), n)
    worst = int(gaps[i, j]) / (1 << level)
    witness = f"vectors {i} and {j}" if worst else None
    return worst == 0, worst, witness, n * (n + 1) // 2


def thinned(cover, length):
    """The cover without its first word of the given length."""
    drop = next(d for d in cover.coverage if len(d) == length)
    return dataclasses.replace(
        cover, coverage={d: f for d, f in cover.coverage.items() if d != drop})


def flipped_signs(length, code):
    # flipping one entry of every row keeps the rows orthogonal; flipping
    # it in the rows of odd codes only does not (from length 3 on)
    row = word_signs(length, code).copy()
    if length >= 3 and code & 1:
        row[-1] = -row[-1]
    return row


class TestDecompositionLevels:
    LEVELS = range(9)

    def judged(self, cover):
        reports = verify_decomposition_levels(cover, self.LEVELS)
        got = [(r.passed, r.max_violation, r.witness, r.checked) for r in reports]
        assert got == [decomposition_oracle(cover, level) for level in self.LEVELS]
        assert [r.relation for r in reports] == [
            f"square-wave-decomposition-level-{level}" for level in self.LEVELS]
        return reports

    def test_greedy_cover(self):
        cover = greedy_generators(7)
        reports = self.judged(cover)
        assert all(r.passed for r in reports)
        assert verify_decomposition(cover, 0) == reports[0]

    def test_thinned_cover_fails_only_the_levels_it_short_counts(self):
        reports = self.judged(thinned(greedy_generators(7), 3))
        assert [r.passed for r in reports] == [True] * 4 + [False] * 5
        assert reports[4].witness == "expected 16 vectors, got 15"

    def test_mutant_sign_row_witness_is_a_pair(self, monkeypatch):
        monkeypatch.setattr("cuntz_bases.operators.word_signs", flipped_signs)
        reports = self.judged(greedy_generators(7))
        assert [r.passed for r in reports] == [True] * 4 + [False] * 5
        for r in reports[4:]:
            assert r.max_violation < math.inf
            i, j = r.witness.removeprefix("vectors ").split(" and ")
            assert i != j

    def test_each_level_alone_matches(self):
        cover = thinned(greedy_generators(7), 5)
        reports = verify_decomposition_levels(cover, self.LEVELS)
        assert [verify_decomposition(cover, level) for level in self.LEVELS] == reports

    def test_gram_gap_failing_inputs(self):
        assert gram_identity_gap([walsh(1), walsh(1)]) == (1.0, "vectors 0 and 1")
        assert gram_identity_gap([walsh(0), DyadicStep(2, [1, 1, 1, -1])]) == \
            (0.5, "vectors 0 and 1")
        assert gram_identity_gap([DyadicStep(1, [2, 0]), walsh(2)]) == (1.0, "vectors 0 and 0")


# walsh-suite checks that no suite run or acceptance test pins: each must
# report the number of cases its loop ran, so a shortened loop fails here
WALSH_CHECK_COUNTS = [
    (verification.check_walsh_gram, 1024 * 1025 // 2),
    (verification.check_walsh_shift_identities, 2 * 256),
    (verification.check_walsh_transform, 50),
    (verification.check_walsh_fast_vs_gram, 10 * 32),
    (verification.check_generator_weights, 512),
]


@pytest.mark.parametrize("check, checked", WALSH_CHECK_COUNTS,
                         ids=[fn.__name__ for fn, _ in WALSH_CHECK_COUNTS])
def test_walsh_check_counts_its_cases(check, checked):
    assert check in [fn for _suite, fn in verification.CHECKS]
    report = check()
    assert report.passed and report.max_violation == 0.0 and report.checked == checked
