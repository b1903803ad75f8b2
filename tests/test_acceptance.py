"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a verbose run reads as a checklist.
Tolerances are pinned here and nowhere else; "exact" means equality of
exact arithmetic, not a small float.  Where a criterion is the same
computation as a check registered in ``verification.CHECKS``, the test runs
that check and judges its report by this file's tolerances and counts; the
parts with their own seeds or conditions are computed here.
"""

import math
from fractions import Fraction

from cuntz_bases import verification
from cuntz_bases.cli import main
from cuntz_bases.dyadic import DyadicStep, as_rational
from cuntz_bases.entropy import entropy


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number}: {description}")
    return ok


def registered(check):
    """The report of a check from ``verification.CHECKS``."""
    assert check in [fn for _suite, fn in verification.CHECKS]
    return check()


def exact(r, checked):
    return r.passed and r.max_violation == 0.0 and r.checked == checked


class TestCriterion1Relations:
    def test_relation_algebra(self):
        interval = registered(verification.check_interval_relations_level6)
        cantor = registered(verification.check_cantor_relations_level6)
        # 64 vectors, 4 adjoint-of-apply pairs and 1 projection sum each
        ok = exact(interval, 320) and exact(cantor, 320)
        # 100 vectors, n * n adjoint-of-apply pairs and 1 projection sum each
        general = [registered(verification.check_general_relations3),
                   registered(verification.check_general_relations4)]
        ok = ok and all(r.passed and r.max_violation <= 1e-12 for r in general)
        ok = ok and [r.checked for r in general] == [1000, 1700]
        assert report(1, "relation algebra: exact on level-6 indicators "
                         "(interval and Cantor), 1e-12 for 3 and 4 branches", ok)


class TestCriterion2WalshBasis:
    def test_gram_and_two_paths(self):
        # the Gram of the level-10 cover vectors, walsh(0..1023) in index order
        gram = registered(verification.check_walsh_gram)
        two_paths = registered(verification.check_walsh_two_paths)
        ok = exact(gram, 1024 * 1025 // 2) and exact(two_paths, 4096)
        assert report(2, "square-wave system: 1024-vector Gram is the identity "
                         "exactly; recursion equals word path for n < 4096", ok)


class TestCriterion3EmittedWaveforms:
    @staticmethod
    def eval_recursive(n, x):
        # independent pointwise oracle for the defining two-term recursion
        if n == 0:
            return 1
        half, bit = divmod(n, 2)
        if x < Fraction(1, 2):
            return TestCriterion3EmittedWaveforms.eval_recursive(half, 2 * x)
        value = TestCriterion3EmittedWaveforms.eval_recursive(half, 2 * x - 1)
        return -value if bit else value

    def test_emitted_files_match_oracle(self, tmp_path):
        out = tmp_path / "waves"
        assert main(["walsh", "--range", "0..31", "--output", str(out)]) == 0
        ok = True
        for n in range(32):
            rows = (out / f"walsh_{n:04d}.csv").read_text().strip().splitlines()[1:]
            for row in rows:
                x_text, v_text = row.split(",")
                x = Fraction(as_rational(x_text))
                value = as_rational(v_text)
                if value != self.eval_recursive(n, x):
                    ok = False
        assert report(3, "emitted waveform files for n < 32 match the "
                         "pointwise recursion oracle exactly", ok)


class TestCriterion4SineGenerators:
    def test_kernel_and_cross_terms(self):
        # odd sines 1..99 are killed exactly; each even sine 2m (m < 50) goes
        # exactly to sin(2 pi m x), of norm sqrt(1/2) > 0.1
        odd = registered(verification.check_odd_sine_kernel)
        even = registered(verification.check_even_sine_halving)
        cross = registered(verification.check_sine_cross_inners)
        ok = (exact(odd, 50) and exact(even, 49)
              and cross.max_violation < 1e-10 and cross.checked == 2000)
        assert report(4, "sine family: odd sines exactly in the adjoint kernel, "
                         "even ones exactly halved (norm > 0.1), cross terms <1e-10", ok)


class TestCriterion5GeneratorCover:
    def test_first_generators_and_bijection(self):
        # checked counts the covered words: all 2^13 - 1 of length <= 12
        ok = exact(registered(verification.check_generator_cover), (1 << 13) - 1)
        assert report(5, "greedy cover: first generators (), (1,1), (1,1,0), "
                         "(1,0,1); bijection on all words of length <= 12", ok)


class TestCriterion6Decomposition:
    def test_every_level_to_ten(self):
        # levels 1..10, each a Gram triangle of n(n+1)/2 pairs for n = 2^level
        pairs = sum((1 << level) * ((1 << level) + 1) // 2 for level in range(1, 11))
        ok = exact(registered(verification.check_decomposition_levels), pairs)
        assert report(6, "depth-bounded completeness: 2^k orthonormal vectors "
                         "with exact identity Gram for every k <= 10", ok)


class TestCriterion7EntropyRecursion:
    def test_chain_rule_and_even_pair(self):
        # 100 random level-6 steps, k = 1..4 each
        chain = registered(verification.check_entropy_recursion)
        pair = DyadicStep(1, [2, 0])  # walsh(0) + walsh(1), normalized internally
        pair_gap = abs(entropy(pair, 1) - math.log(2))
        ok = chain.passed and chain.max_violation < 1e-12 and chain.checked == 400
        ok = ok and pair_gap < 1e-12
        assert report(7, "entropy chain rule holds to 1e-12 on 100 random "
                         "level-6 steps (k <= 4); even pair gives ln 2", ok)


class TestCriterion8CantorSpectrum:
    def test_orthogonality_transform_bessel(self):
        ok = exact(registered(verification.check_cantor_spectrum_gram), (256 * 255) // 2)
        transform = registered(verification.check_mu_hat_functional_equation)
        ok = ok and transform.passed and transform.max_violation < 1e-9
        ok = ok and transform.checked == 1000
        # the sums for p = 2..8: each at least the one before and at most 1
        ok = ok and exact(registered(verification.check_bessel_monotone), 7)
        assert report(8, "spectrum: 32640 exact orthogonality pairs at p=8; "
                         "transform functional equation to 1e-9; Bessel sums "
                         "nondecreasing and bounded by the norm", ok)


class TestCriterion9IndicatorExpansion:
    def test_all_words_to_six(self):
        ok = exact(registered(verification.check_indicator_expansions), 126)
        assert report(9, "cylinder indicator expansion with constant 2^-|J| "
                         "exact for all 126 words of length <= 6", ok)


class TestCriterion10SpectrumPartition:
    def test_odd_orbits(self):
        ok = exact(registered(verification.check_lambda_partitions), 8)
        assert report(10, "nonzero spectrum points split exactly into odd-times-"
                          "powers-of-four orbits for every p <= 8", ok)
