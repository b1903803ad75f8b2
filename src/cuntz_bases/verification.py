"""Named property checks grouped into suites, one line of output each.

Every invariant promised by the library has a check here: the relation
algebra of the isometry pair, the square-wave system, the sine family,
the entropy calculus, and the Cantor spectrum.  All randomness is seeded,
so a run is deterministic.  The command line's ``verify`` subcommand runs
these and fails (exit 1) if any line fails.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from fractions import Fraction
from typing import Callable

import numpy as np

from .basis import (
    WalshSystem,
    build_frame,
    greedy_generators,
    verify_decomposition,
    walsh,
    walsh_expand,
    walsh_synthesize,
    walsh_word,
)
from .cantor import (
    CantorStep,
    bessel_sum,
    exp_coefficient,
    gram_exponentials,
    indicator_relation_check,
    mu_hat,
    mu_hat_is_zero,
    verify_lambda_partition,
)
from .dyadic import DyadicStep, MultiIndex
from .entropy import best_basis, build_entropy_tree, entropy, verify_entropy_recursion
from .operators import (
    GeneralRepN,
    INTERVAL_REP,
    apply_word,
    s_adjoint,
    s_adjoint_hybrid,
    s_apply,
    s_apply_hybrid,
    verify_cuntz,
    verify_unitary_matrix,
)
from .reporting import VerificationReport
from .trig import (
    ANTIPERIODIC_HALF,
    NEITHER,
    PERIODIC_HALF,
    HybridFunction,
    classify_reflection,
    fourier_coeffs,
    hybrid_inner,
    hybrid_norm_sq,
    make_cos,
    make_sine,
)

SUITES = ("cuntz", "walsh", "sine", "entropy", "cantor")


def _report(name, worst, tol, witness=None, checked=0) -> VerificationReport:
    return VerificationReport(name, worst <= tol, float(worst), tol,
                              None if worst <= tol else witness, checked)


def _random_step(rng, level, span=9) -> DyadicStep:
    return DyadicStep(level, [rng.randint(-span, span) for _ in range(1 << level)])


def _nonzero_step(rng, level) -> DyadicStep:
    while True:
        f = _random_step(rng, level)
        if not f.normalize().is_zero():
            return f


# ---------------------------------------------------------------------------
# cuntz suite
# ---------------------------------------------------------------------------

def check_interval_relations_level6():
    vectors = [DyadicStep.indicator(6, i) for i in range(64)]
    report = verify_cuntz(INTERVAL_REP, vectors, tol=0.0)
    return _report("interval-relations-exact-level6-indicators",
                   report.max_violation, 0.0, report.witness, report.checked)


def check_cantor_relations_level6():
    vectors = [CantorStep.indicator_cell(MultiIndex(tuple((i >> m) & 1 for m in range(6))))
               for i in range(64)]
    report = verify_cuntz(INTERVAL_REP, vectors, tol=0.0)
    return _report("cantor-relations-exact-level6-indicators",
                   report.max_violation, 0.0, report.witness, report.checked)


def _check_general_relations(n):
    rep = GeneralRepN(n)
    rng = np.random.default_rng(1000 + n)
    vectors = [rep.random_step(2, rng) for _ in range(100)]
    report = verify_cuntz(rep, vectors, tol=1e-12)
    return _report(f"general-branch{n}-relations", report.max_violation, 1e-12,
                   report.witness, report.checked)


def check_unitary_filters():
    rng = np.random.default_rng(17)
    reports = [
        verify_unitary_matrix(2, [i / 16 for i in range(16)], tol=0.0),
        verify_unitary_matrix(3, rng.random(50), tol=1e-12),
        verify_unitary_matrix(4, rng.random(50), tol=0.0),
    ]
    worst = max(r.max_violation for r in reports)
    witness = next((r.witness for r in reports if not r.passed), None)
    return _report("unitary-filter-matrices-n2-n3-n4", worst, 1e-12, witness,
                   sum(r.checked for r in reports))


def check_isometry_exact():
    rng = random.Random(101)
    worst = Fraction(0)
    for _ in range(25):
        f = _random_step(rng, 5)
        for j in (0, 1):
            worst = max(worst, abs(s_apply(j, f).norm_sq() - f.norm_sq()))
    return _report("interval-isometry-exact", worst, 0.0, "norm mismatch", 50)


def check_orthogonal_ranges():
    rng = random.Random(103)
    worst = Fraction(0)
    for _ in range(25):
        f, g = _random_step(rng, 4), _random_step(rng, 5)
        worst = max(worst, abs(s_apply(0, f).inner(s_apply(1, g))))
    return _report("interval-range-orthogonality-exact", worst, 0.0, "overlap", 25)


def check_adjoint_kernel_reflection():
    # the kernel of the first adjoint at level k is exactly the span of the
    # antisymmetric pair differences; check both directions on a basis
    k = 6
    half = 1 << (k - 1)
    bad = 0
    for i in range(half):
        anti = DyadicStep.indicator(k, i) - DyadicStep.indicator(k, i + half)
        sym = DyadicStep.indicator(k, i) + DyadicStep.indicator(k, i + half)
        if not s_adjoint(0, anti).is_zero():
            bad += 1
        if s_adjoint(0, sym).is_zero():
            bad += 1
    return _report("adjoint-kernel-is-half-shift-reflection-level6", bad, 0,
                   f"{bad} basis vectors misclassified", 2 * half)


def check_hybrid_partition_of_unity():
    f = make_sine(1) + HybridFunction.from_step(DyadicStep.ones())
    total = s_apply_hybrid(0, s_adjoint_hybrid(0, f)) + s_apply_hybrid(1, s_adjoint_hybrid(1, f))
    diff = total - f
    gap = math.sqrt(max(hybrid_inner(diff, diff), 0.0))
    return _report("hybrid-partition-of-unity", gap, 1e-10, "projection sum", 1)


def check_general_projections():
    rep = GeneralRepN(3)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        f = rep.random_step(1, rng)
        pieces = [rep.apply(k, rep.adjoint(k, f)) for k in range(3)]
        total = pieces[0] + pieces[1] + pieces[2]
        worst = max(worst, math.sqrt((total - f).norm_sq()))
        for a in range(3):
            for b in range(a + 1, 3):
                worst = max(worst, abs(pieces[a].inner(pieces[b])))
    return _report("general-branch3-orthogonal-idempotents", worst, 1e-12,
                   "projection algebra", 20)


# ---------------------------------------------------------------------------
# walsh suite
# ---------------------------------------------------------------------------

def check_walsh_two_paths():
    system = WalshSystem()
    one = DyadicStep.ones()
    bad = 0
    for n in range(4096):
        if system.walsh(n) != apply_word(walsh_word(n), one):
            bad += 1
    return _report("square-wave-recursion-vs-word-path-4096", bad, 0,
                   f"{bad} mismatches", 4096)


def check_walsh_gram():
    report = verify_decomposition(greedy_generators(9), 10)
    return _report("square-wave-gram-identity-1024", report.max_violation, 0.0,
                   report.witness, report.checked)


def check_walsh_shift_identities():
    bad = 0
    for n in range(256):
        if s_apply(0, walsh(n)) != walsh(2 * n):
            bad += 1
        if s_apply(1, walsh(n)) != walsh(2 * n + 1):
            bad += 1
    return _report("square-wave-shift-identities", bad, 0, f"{bad} mismatches", 512)


def check_walsh_transform():
    rng = random.Random(107)
    bad = 0
    for _ in range(50):
        f = DyadicStep(6, [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                           for _ in range(64)])
        if walsh_synthesize(walsh_expand(f)) != f:
            bad += 1
    return _report("square-wave-transform-roundtrip-exact", bad, 0, f"{bad} failures", 50)


def check_walsh_fast_vs_gram():
    rng = random.Random(109)
    bad = 0
    for _ in range(10):
        f = _random_step(rng, 5)
        coeffs = walsh_expand(f)
        for n, c in enumerate(coeffs):
            if c != walsh(n).inner(f):
                bad += 1
    return _report("fast-transform-matches-gram-definition", bad, 0, f"{bad} coeffs", 320)


def check_generator_cover():
    cover = greedy_generators(12)
    first = [g.digits for g in cover.generators[:4]]
    ok_first = first == [(), (1, 1), (1, 1, 0), (1, 0, 1)]
    counts = {}
    ok_factorization = True
    for digits, (k, j) in cover.coverage.items():
        counts[len(digits)] = counts.get(len(digits), 0) + 1
        if k.digits + j.digits != digits or k.weight > 1:
            ok_factorization = False
    ok_counts = all(counts.get(length, 0) == 1 << length for length in range(13))
    bad = (not ok_first) + (not ok_counts) + (not ok_factorization)
    return _report("generator-cover-bijection-len12", bad, 0,
                   f"first={first}", len(cover.coverage))


def check_generator_weights():
    cover = greedy_generators(10)
    bad = sum(1 for g in cover.generators if g.weight % 2)
    return _report("generator-words-have-even-weight", bad, 0,
                   f"{bad} odd-weight generators", len(cover.generators))


def check_decomposition_levels():
    cover = greedy_generators(9)
    worst = 0.0
    witness = None
    checked = 0
    for level in range(1, 11):
        report = verify_decomposition(cover, level)
        checked += report.checked
        if report.max_violation > worst:
            worst, witness = report.max_violation, f"level {level}: {report.witness}"
    return _report("square-wave-decomposition-levels-1-10", worst, 0.0, witness, checked)


# ---------------------------------------------------------------------------
# sine suite
# ---------------------------------------------------------------------------

def check_odd_sine_kernel():
    bad = 0
    for n in range(1, 100, 2):
        if not s_adjoint_hybrid(0, make_sine(n)).is_zero():
            bad += 1
    return _report("odd-sine-adjoint-kernel-exact", bad, 0, f"{bad} odd sines survive", 50)


def check_even_sine_halving():
    bad = 0
    worst = 0.0
    for m in range(1, 50):
        if s_adjoint_hybrid(0, make_sine(2 * m)) != make_sine(m):
            bad += 1
        norm = math.sqrt(hybrid_norm_sq(s_adjoint_hybrid(0, make_sine(2 * m))))
        worst = max(worst, abs(norm - math.sqrt(0.5)))
    return _report("even-sine-adjoint-halving-exact", bad + (worst > 1e-10), 0,
                   f"{bad} atom mismatches, norm gap {worst:.2e}", 49)


def check_sine_cross_inners():
    worst = 0.0
    for n in range(1, 21):
        shifted = s_apply_hybrid(1, make_sine(n))
        for k in range(5):
            for m in range(1, 21):
                worst = max(worst, abs(hybrid_inner(make_sine(m), shifted)))
            shifted = s_apply_hybrid(0, shifted) if k < 4 else shifted
    return _report("sine-vs-shifted-sine-inners", worst, 1e-10, "cross term", 2000)


def check_sine_frame_family():
    frames = [build_frame(make_sine(2 * n + 1), None, 4) for n in range(6)]
    worst = 0.0
    pairs = 0
    vectors = [v for fr in frames for v in fr.vectors]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            worst = max(worst, abs(hybrid_inner(vectors[i], vectors[j])))
            pairs += 1
    return _report("sine-family-frame-orthogonality", worst, 1e-10, "frame pair", pairs)


def check_parseval():
    rng = random.Random(113)
    worst = 0.0
    for _ in range(5):
        f = HybridFunction.zero()
        for n in range(1, 7):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if a:
                f = f + make_cos(n).scale(a)
            if b:
                f = f + make_sine(n).scale(b)
        if f.is_zero():
            continue
        c, s = fourier_coeffs(f, 8)
        energy = c[0] ** 2 + 2 * sum(c[n] ** 2 + s[n] ** 2 for n in range(1, 9))
        worst = max(worst, abs(energy - hybrid_norm_sq(f)))
    return _report("trig-parseval", worst, 1e-10, "energy mismatch", 5)


def check_hybrid_exact_consistency():
    rng = random.Random(127)
    bad = 0
    for _ in range(10):
        f = DyadicStep(3, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)])
        g = DyadicStep(2, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])
        if hybrid_inner(f, g) != float(f.inner(g)):
            bad += 1
    return _report("hybrid-inner-matches-exact-on-steps", bad, 0, f"{bad} mismatches", 10)


def check_reflection_classifier():
    cases = [
        (make_sine(3), ANTIPERIODIC_HALF),
        (make_sine(2), PERIODIC_HALF),
        (make_sine(1) + make_sine(2), NEITHER),
        (HybridFunction.from_step(walsh(1)), ANTIPERIODIC_HALF),
        (HybridFunction.from_step(walsh(2)), PERIODIC_HALF),
    ]
    bad = sum(1 for f, want in cases if classify_reflection(f, 1e-10) != want)
    return _report("reflection-classifier-cases", bad, 0, f"{bad} misclassified", len(cases))


def check_fourier_decimation():
    rng = random.Random(131)
    worst = 0.0
    for _ in range(3):
        f = HybridFunction.zero()
        for n in range(1, 7):
            f = f + make_cos(n).scale(rng.randint(-2, 2)) + make_sine(n).scale(rng.randint(-2, 2))
        g = s_adjoint_hybrid(0, f)
        c_f, s_f = fourier_coeffs(f, 12)
        c_g, s_g = fourier_coeffs(g, 6)
        for n in range(7):
            worst = max(worst, abs(c_g[n] - c_f[2 * n]), abs(s_g[n] - s_f[2 * n]))
    return _report("adjoint-decimates-fourier-coefficients", worst, 1e-10, "coefficient", 42)


# ---------------------------------------------------------------------------
# entropy suite
# ---------------------------------------------------------------------------

def check_mass_partition():
    rng = random.Random(137)
    bad = 0
    for _ in range(20):
        f = _nonzero_step(rng, 5)
        for k in (1, 2, 3):
            tree = build_entropy_tree(f, k)
            if sum(m for w, m in tree.masses.items() if len(w) == k) != 1:
                bad += 1
    return _report("projection-masses-partition-unity-exact", bad, 0, f"{bad} levels", 60)


def check_mass_refinement():
    rng = random.Random(139)
    bad = 0
    for _ in range(20):
        tree = build_entropy_tree(_nonzero_step(rng, 5), 4)
        for word, mass in tree.masses.items():
            if len(word) < 4 and mass != tree.masses[word + (0,)] + tree.masses[word + (1,)]:
                bad += 1
    return _report("child-masses-refine-parent-exact", bad, 0, f"{bad} nodes", 20 * 15)


def check_entropy_recursion():
    rng = random.Random(149)
    worst = 0.0
    for _ in range(100):
        f = _nonzero_step(rng, 6)
        for k in (1, 2, 3, 4):
            report = verify_entropy_recursion(f, k, tol=1e-12)
            worst = max(worst, report.max_violation)
    return _report("entropy-chain-rule-random-level6", worst, 1e-12, "identity gap", 400)


def check_entropy_single_branch():
    rng = random.Random(151)
    worst = 0.0
    for _ in range(10):
        g = _nonzero_step(rng, 4)
        f = s_apply(0, g)
        for k in (1, 2, 3):
            worst = max(worst, abs(entropy(f, k + 1) - entropy(g, k)))
    return _report("single-branch-support-shifts-depth", worst, 1e-12, "entropy gap", 30)


def check_entropy_bounds():
    rng = random.Random(157)
    bad = 0
    for _ in range(20):
        f = _nonzero_step(rng, 4)
        for k in (1, 2, 3):
            e = entropy(f, k)
            if not -1e-12 <= e <= k * math.log(2) + 1e-12:
                bad += 1
    return _report("entropy-number-range", bad, 0, f"{bad} out of range", 60)


def check_best_basis_exhaustive():
    def antichains(word, depth):
        yield [word]
        if depth > 0:
            for left in antichains(word + (0,), depth - 1):
                for right in antichains(word + (1,), depth - 1):
                    yield left + right

    rng = random.Random(163)
    worst = 0.0
    for _ in range(10):
        f = _nonzero_step(rng, 4)
        tree = build_entropy_tree(f, 3)

        def cost(chain):
            total = 0.0
            for w in chain:
                m = tree.masses[w]
                if m > 1e-15:
                    total -= float(m) * math.log(m)
            return total

        exhaustive = min(cost(chain) for chain in antichains((), 3))
        _, dp_cost = best_basis(f, 3)
        worst = max(worst, abs(dp_cost - exhaustive))
    return _report("best-basis-matches-exhaustive-depth3", worst, 1e-12, "cost gap", 10)


def check_best_basis_uniform_bound():
    rng = random.Random(167)
    worst = 0.0
    for _ in range(10):
        f = _nonzero_step(rng, 5)
        _, cost = best_basis(f, 5)
        for k in (1, 2, 3, 4, 5):
            worst = max(worst, cost - entropy(f, k))
    return _report("best-basis-beats-uniform-partitions", max(worst, 0.0), 1e-12,
                   "cost above uniform", 50)


def check_branch_permutation():
    rng = random.Random(173)
    worst = 0.0
    for _ in range(10):
        f = _nonzero_step(rng, 4)
        half = len(f.coeffs) // 2
        swapped = DyadicStep(f.level, f.coeffs[half:] + f.coeffs[:half])
        for k in (1, 2, 3):
            worst = max(worst, abs(entropy(f, k) - entropy(swapped, k)))
    return _report("entropy-invariant-under-branch-swap", worst, 1e-12, "entropy gap", 30)


# ---------------------------------------------------------------------------
# cantor suite
# ---------------------------------------------------------------------------

def check_cantor_spectrum_gram():
    report = gram_exponentials(8)
    return _report("spectrum-orthogonality-p8", 0.0 if report.passed else 1.0, 0.0,
                   report.witness, report.checked)


def check_mu_hat_functional_equation():
    rng = random.Random(179)
    worst = 0.0
    for _ in range(1000):
        lam = rng.uniform(-100, 100)
        lhs = mu_hat(lam)
        rhs = 0.5 * (1 + complex(math.cos(math.pi * lam), math.sin(math.pi * lam))) * mu_hat(lam / 4)
        worst = max(worst, abs(lhs - rhs))
    return _report("measure-transform-functional-equation", worst, 1e-9, "equation gap", 1000)


def check_mu_hat_zero_consistency():
    bad = 0
    for delta in range(-1000, 1001):
        if (abs(mu_hat(delta)) < 1e-8) != mu_hat_is_zero(delta):
            bad += 1
    return _report("transform-zero-predicate-vs-numeric", bad, 0, f"{bad} integers", 2001)


def check_indicator_expansions():
    worst = 0.0
    checked = 0
    for length in range(1, 7):
        for mask in range(1 << length):
            word = MultiIndex(tuple((mask >> m) & 1 for m in range(length)))
            report = indicator_relation_check(word)
            worst = max(worst, report.max_violation)
            checked += 1
    return _report("cell-indicator-expansion-words-to-len6", worst, 0.0,
                   "expansion mismatch", checked)


def check_lambda_partitions():
    bad = 0
    for p in range(1, 9):
        if not verify_lambda_partition(p).passed:
            bad += 1
    return _report("spectrum-odd-orbit-partition-p1-8", bad, 0, f"{bad} depths", 8)


def check_bessel_monotone():
    f = CantorStep(1, [1, 0])
    sums = [2 * bessel_sum(f, p) for p in range(2, 9)]
    worst_drop = max(max(a - b for a, b in zip(sums, sums[1:])), 0.0)
    overshoot = max(max(sums) - 1.0, 0.0)
    return _report("bessel-sums-monotone-and-bounded", max(worst_drop, overshoot),
                   1e-10, f"sums={sums}", len(sums))


def check_exp_coefficient_scaling():
    rng = random.Random(181)
    worst = 0.0
    for _ in range(5):
        f = CantorStep(2, [rng.randint(-3, 3) for _ in range(4)])
        g = s_apply(0, f)
        for lam in (0, 1, 5, 17, 21):
            worst = max(worst, abs(exp_coefficient(4 * lam, g) - exp_coefficient(lam, f)))
    return _report("exponential-frequency-scaling-under-isometry", worst, 1e-8,
                   "coefficient gap", 25)


def check_cell_scaling():
    bad = 0
    for k in range(6):
        if CantorStep.cell_mass(k + 1) * 2 != CantorStep.cell_mass(k):
            bad += 1
        if CantorStep.cell_diameter(k + 1) * 4 != CantorStep.cell_diameter(k):
            bad += 1
    return _report("cell-mass-diameter-square-root-scaling", bad, 0, f"{bad} levels", 12)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECKS: list[tuple[str, Callable[[], VerificationReport]]] = [
    ("cuntz", check_interval_relations_level6),
    ("cuntz", check_cantor_relations_level6),
    ("cuntz", lambda: _check_general_relations(3)),
    ("cuntz", lambda: _check_general_relations(4)),
    ("cuntz", check_unitary_filters),
    ("cuntz", check_isometry_exact),
    ("cuntz", check_orthogonal_ranges),
    ("cuntz", check_adjoint_kernel_reflection),
    ("cuntz", check_hybrid_partition_of_unity),
    ("cuntz", check_general_projections),
    ("walsh", check_walsh_two_paths),
    ("walsh", check_walsh_gram),
    ("walsh", check_walsh_shift_identities),
    ("walsh", check_walsh_transform),
    ("walsh", check_walsh_fast_vs_gram),
    ("walsh", check_generator_cover),
    ("walsh", check_generator_weights),
    ("walsh", check_decomposition_levels),
    ("sine", check_odd_sine_kernel),
    ("sine", check_even_sine_halving),
    ("sine", check_sine_cross_inners),
    ("sine", check_sine_frame_family),
    ("sine", check_parseval),
    ("sine", check_hybrid_exact_consistency),
    ("sine", check_reflection_classifier),
    ("sine", check_fourier_decimation),
    ("entropy", check_mass_partition),
    ("entropy", check_mass_refinement),
    ("entropy", check_entropy_recursion),
    ("entropy", check_entropy_single_branch),
    ("entropy", check_entropy_bounds),
    ("entropy", check_best_basis_exhaustive),
    ("entropy", check_best_basis_uniform_bound),
    ("entropy", check_branch_permutation),
    ("cantor", check_cantor_spectrum_gram),
    ("cantor", check_mu_hat_functional_equation),
    ("cantor", check_mu_hat_zero_consistency),
    ("cantor", check_indicator_expansions),
    ("cantor", check_lambda_partitions),
    ("cantor", check_bessel_monotone),
    ("cantor", check_exp_coefficient_scaling),
    ("cantor", check_cell_scaling),
]


def run_suite(suite: str = "all", tol_override: float | None = None) -> list[VerificationReport]:
    """Run one suite (or all) and return the reports in registry order.

    ``tol_override`` replaces the tolerance of the float-based checks only;
    exact checks (tol 0) always demand exact equality.  Each report carries
    its check's wall time as ``elapsed_s``.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    reports = []
    for name, fn in CHECKS:
        if suite != "all" and name != suite:
            continue
        start = time.perf_counter()
        report = fn()
        report = dataclasses.replace(report, elapsed_s=time.perf_counter() - start)
        if tol_override is not None and report.tol > 0:
            report = dataclasses.replace(report, passed=report.max_violation <= tol_override,
                                         tol=tol_override)
        reports.append(report)
    return reports
