"""Named property checks grouped into suites, one line of output each.

Every invariant promised by the library has a check here: the relation
algebra of the isometry pair, the square-wave system, the sine family,
the entropy calculus, and the Cantor spectrum.  All randomness is seeded,
so a run is deterministic.  Each check records its cases in a ``Tally``,
so the count it reports is the number of cases it ran.  A check is declared
once, by ``@_check(suite, relation, tol)`` on its body: that registers it in
``CHECKS``, so adding or retiring a check is one edit.  The command line's
``verify`` subcommand runs these and fails (exit 1) if any line fails.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import operator
import os
import pickle
import random
import signal
import threading
import time
import traceback
from fractions import Fraction
from typing import Callable, NoReturn

import numpy as np

from .basis import (
    build_frame,
    greedy_generators,
    verify_decomposition_levels,
    walsh,
    walsh_expand,
    walsh_synthesize,
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
from .dyadic import DyadicStep, MultiIndex, enumerate_words, word_keys
from .entropy import best_basis, build_entropy_tree, entropy, verify_entropy_recursion
from .operators import (
    GeneralRepN,
    INTERVAL_REP,
    s_adjoint,
    s_apply,
    verify_cuntz,
    verify_unitary_matrix,
)
from .reporting import SUITES, Tally, VerificationReport
from .trig import (
    ANTIPERIODIC_HALF,
    NEITHER,
    PERIODIC_HALF,
    HybridFunction,
    classify_reflection,
    fourier_coeffs,
    hybrid_inner,
    make_cos,
    make_sine,
)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# every check as (suite, check), in the order the checks are defined below
CHECKS: list[tuple[str, Callable[[], VerificationReport]]] = []


def _check(suite: str, relation: str, tol: float = 0):
    """Register the decorated ``body(tally)`` as a check of ``suite``: a
    function of no arguments, bound to the body's name, that runs the body
    on a new ``Tally`` and returns the tally judged as ``relation`` at ``tol``."""
    def register(body: Callable[[Tally], None]) -> Callable[[], VerificationReport]:
        def check() -> VerificationReport:
            tally = Tally()
            body(tally)
            return tally.report(relation, tol)
        check.__name__ = check.__qualname__ = body.__name__
        CHECKS.append((suite, check))
        return check
    return register


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

@_check("cuntz", "interval-relations-exact-level6-indicators", 0.0)
def check_interval_relations_level6(tally):
    vectors = [DyadicStep.indicator(6, i) for i in range(64)]
    r = verify_cuntz(INTERVAL_REP, vectors, tol=0.0)
    tally.record(r.max_violation, r.witness, cases=r.checked)


@_check("cuntz", "cantor-relations-exact-level6-indicators", 0.0)
def check_cantor_relations_level6(tally):
    vectors = [CantorStep.indicator_cell(MultiIndex._from_code(6, i)) for i in range(64)]
    r = verify_cuntz(INTERVAL_REP, vectors, tol=0.0)
    tally.record(r.max_violation, r.witness, cases=r.checked)


def _general_relations(tally, n):
    rep = GeneralRepN(n)
    rng = np.random.default_rng(1000 + n)
    vectors = [rep.random_step(2, rng) for _ in range(100)]
    r = verify_cuntz(rep, vectors, tol=1e-12)
    tally.record(r.max_violation, r.witness, cases=r.checked)


@_check("cuntz", "general-branch3-relations", 1e-12)
def check_general_relations3(tally):
    _general_relations(tally, 3)


@_check("cuntz", "general-branch4-relations", 1e-12)
def check_general_relations4(tally):
    _general_relations(tally, 4)


@_check("cuntz", "unitary-filter-matrices-n2-n3-n4", 1e-12)
def check_unitary_filters(tally):
    rng = np.random.default_rng(17)
    tally.absorb(verify_unitary_matrix(2, [i / 16 for i in range(16)], tol=0.0), "N2")
    tally.absorb(verify_unitary_matrix(3, rng.random(50), tol=1e-12), "N3")
    tally.absorb(verify_unitary_matrix(4, rng.random(50), tol=0.0), "N4")


@_check("cuntz", "interval-isometry-exact", 0.0)
def check_isometry_exact(tally):
    rng = random.Random(101)
    for i in range(25):
        f = _random_step(rng, 5)
        for j in (0, 1):
            tally.record(abs(s_apply(j, f).norm_sq() - f.norm_sq()), f"S_{j} on vector {i}")


@_check("cuntz", "interval-range-orthogonality-exact", 0.0)
def check_orthogonal_ranges(tally):
    rng = random.Random(103)
    for i in range(25):
        f, g = _random_step(rng, 4), _random_step(rng, 5)
        tally.record(abs(s_apply(0, f).inner(s_apply(1, g))), f"pair {i}")


@_check("cuntz", "adjoint-kernel-is-half-shift-reflection-level6")
def check_adjoint_kernel_reflection(tally):
    # the kernel of the first adjoint at level k is exactly the span of the
    # antisymmetric pair differences; check both directions on a basis
    k = 6
    half = 1 << (k - 1)
    for i in range(half):
        anti = DyadicStep.indicator(k, i) - DyadicStep.indicator(k, i + half)
        sym = DyadicStep.indicator(k, i) + DyadicStep.indicator(k, i + half)
        tally.record(not s_adjoint(0, anti).is_zero(), f"difference at cell {i}")
        tally.record(s_adjoint(0, sym).is_zero(), f"sum at cell {i}")


@_check("cuntz", "hybrid-partition-of-unity", 1e-10)
def check_hybrid_partition_of_unity(tally):
    f = make_sine(1) + HybridFunction.from_step(DyadicStep.ones())
    total = s_apply(0, s_adjoint(0, f)) + s_apply(1, s_adjoint(1, f))
    diff = total - f
    tally.record(math.sqrt(max(hybrid_inner(diff, diff), 0.0)), "projection sum")


@_check("cuntz", "general-branch3-orthogonal-idempotents", 1e-12)
def check_general_projections(tally):
    rep = GeneralRepN(3)
    rng = np.random.default_rng(11)
    for i in range(20):
        f = rep.random_step(1, rng)
        pieces = [rep.apply(k, rep.adjoint(k, f)) for k in range(3)]
        total = pieces[0] + pieces[1] + pieces[2]
        overlaps = [abs(pieces[a].inner(pieces[b])) for a in range(3) for b in range(a + 1, 3)]
        tally.record(max(math.sqrt((total - f).norm_sq()), *overlaps), f"vector {i}")


# ---------------------------------------------------------------------------
# walsh suite
# ---------------------------------------------------------------------------

@_check("walsh", "square-wave-recursion-vs-word-path-4096")
def check_walsh_two_paths(tally):
    # the recursion one step at a time against the sign rows: walsh(0) is
    # the constant and walsh(n) is S_{n mod 2} walsh(n // 2), so by induction
    # the recursion from the constant builds every word path walsh(n)
    tally.record(walsh(0) != DyadicStep.ones(), "n = 0")
    for n in range(1, 4096):
        tally.record(s_apply(n % 2, walsh(n // 2)) != walsh(n), f"n = {n}")


@functools.cache
def _square_wave_levels() -> tuple[VerificationReport, ...]:
    """The decomposition reports at levels 1-10 of the greedy cover of the
    words up to length 9, from one 1,024-vector Gram shared by the two
    checks below."""
    return tuple(verify_decomposition_levels(greedy_generators(9), range(1, 11)))


@_check("walsh", "square-wave-gram-identity-1024", 0.0)
def check_walsh_gram(tally):
    r = _square_wave_levels()[-1]
    tally.record(r.max_violation, r.witness, cases=r.checked)


@_check("walsh", "square-wave-shift-identities")
def check_walsh_shift_identities(tally):
    for n in range(256):
        tally.record(s_apply(0, walsh(n)) != walsh(2 * n), f"S_0 walsh({n})")
        tally.record(s_apply(1, walsh(n)) != walsh(2 * n + 1), f"S_1 walsh({n})")


@_check("walsh", "square-wave-transform-roundtrip-exact")
def check_walsh_transform(tally):
    rng = random.Random(107)
    for i in range(50):
        f = DyadicStep(6, [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                           for _ in range(64)])
        tally.record(walsh_synthesize(walsh_expand(f)) != f, f"step {i}")


@_check("walsh", "fast-transform-matches-gram-definition")
def check_walsh_fast_vs_gram(tally):
    rng = random.Random(109)
    for i in range(10):
        f = _random_step(rng, 5)
        for n, c in enumerate(walsh_expand(f)):
            tally.record(c != walsh(n).inner(f), f"step {i}, coefficient {n}")


@_check("walsh", "generator-cover-bijection-len12")
def check_generator_cover(tally):
    # every word of length <= 12 is covered once, as a weight <= 1 word
    # followed by a generator; the first generators are the greedy ones
    cover = greedy_generators(12)
    rank = {g.sort_key: i for i, g in enumerate(cover.generators)}
    first = {(0, 0): 0, (2, 3): 1, (3, 3): 2, (3, 5): 3}  # (), 11, 110, 101
    for key in word_keys(12):
        k, j = cover.coverage.get(key, (None, None))
        bad = (k is None or (len(k) + len(j), k.code | j.code << len(k)) != key
               or k.weight > 1 or (key in first and rank.get(key) != first[key]))
        tally.record(bad, f"word {MultiIndex._from_code(*key).digits}" if bad else None)


@_check("walsh", "generator-words-have-even-weight")
def check_generator_weights(tally):
    for g in greedy_generators(10).generators:
        tally.record(g.weight % 2, f"generator {g.digits}")


@_check("walsh", "square-wave-decomposition-levels-1-10", 0.0)
def check_decomposition_levels(tally):
    for level, report in enumerate(_square_wave_levels(), start=1):
        tally.absorb(report, f"level {level}")


# ---------------------------------------------------------------------------
# sine suite
# ---------------------------------------------------------------------------

@_check("sine", "odd-sine-adjoint-kernel-exact")
def check_odd_sine_kernel(tally):
    for n in range(1, 100, 2):
        tally.record(not s_adjoint(0, make_sine(n)).is_zero(), f"sine {n}")


@_check("sine", "even-sine-adjoint-halving-exact")
def check_even_sine_halving(tally):
    for m in range(1, 50):
        half = s_adjoint(0, make_sine(2 * m))
        norm_gap = abs(math.sqrt(half.norm_sq()) - math.sqrt(0.5))
        tally.record(half != make_sine(m) or norm_gap > 1e-10,
                     f"sine {2 * m}, norm gap {norm_gap:.2e}")


@_check("sine", "sine-vs-shifted-sine-inners", 1e-10)
def check_sine_cross_inners(tally):
    sines = [make_sine(m) for m in range(1, 21)]
    for n in range(1, 21):
        shifted = s_apply(1, sines[n - 1])
        for k in range(5):
            for m, sine in enumerate(sines, 1):
                tally.record(abs(hybrid_inner(sine, shifted)), f"sine {m} vs S_0^{k} S_1 sine {n}")
            shifted = s_apply(0, shifted) if k < 4 else shifted


@_check("sine", "sine-family-frame-orthogonality", 1e-10)
def check_sine_frame_family(tally):
    frames = [build_frame(make_sine(2 * n + 1), None, 4) for n in range(6)]
    vectors = [v for fr in frames for v in fr.vectors]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            tally.record(abs(hybrid_inner(vectors[i], vectors[j])), f"frame vectors {i} and {j}")


@_check("sine", "trig-parseval", 1e-10)
def check_parseval(tally):
    rng = random.Random(113)
    for i in range(5):
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
        tally.record(abs(energy - f.norm_sq()), f"signal {i}")


@_check("sine", "hybrid-inner-matches-exact-on-steps")
def check_hybrid_exact_consistency(tally):
    rng = random.Random(127)
    for i in range(10):
        f = DyadicStep(3, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)])
        g = DyadicStep(2, [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])
        tally.record(hybrid_inner(f, g) != float(f.inner(g)), f"pair {i}")


@_check("sine", "reflection-classifier-cases")
def check_reflection_classifier(tally):
    cases = [
        (make_sine(3), ANTIPERIODIC_HALF),
        (make_sine(2), PERIODIC_HALF),
        (make_sine(1) + make_sine(2), NEITHER),
        (HybridFunction.from_step(walsh(1)), ANTIPERIODIC_HALF),
        (HybridFunction.from_step(walsh(2)), PERIODIC_HALF),
    ]
    for i, (f, want) in enumerate(cases):
        tally.record(classify_reflection(f, 1e-10) != want, f"case {i}")


@_check("sine", "adjoint-decimates-fourier-coefficients", 1e-10)
def check_fourier_decimation(tally):
    rng = random.Random(131)
    for i in range(3):
        f = HybridFunction.zero()
        for n in range(1, 7):
            f = f + make_cos(n).scale(rng.randint(-2, 2)) + make_sine(n).scale(rng.randint(-2, 2))
        g = s_adjoint(0, f)
        c_f, s_f = fourier_coeffs(f, 12)
        c_g, s_g = fourier_coeffs(g, 6)
        for n in range(7):
            tally.record(abs(c_g[n] - c_f[2 * n]), f"signal {i}, cosine {n}")
            tally.record(abs(s_g[n] - s_f[2 * n]), f"signal {i}, sine {n}")


# ---------------------------------------------------------------------------
# entropy suite
# ---------------------------------------------------------------------------

@_check("entropy", "projection-masses-partition-unity-exact")
def check_mass_partition(tally):
    rng = random.Random(137)
    for i in range(20):
        f = _nonzero_step(rng, 5)
        for k in (1, 2, 3):
            tree = build_entropy_tree(f, k)
            tally.record(sum(m for w, m in tree.masses.items() if len(w) == k) != 1,
                         f"step {i}, level {k}")


@_check("entropy", "child-masses-refine-parent-exact")
def check_mass_refinement(tally):
    rng = random.Random(139)
    for i in range(20):
        tree = build_entropy_tree(_nonzero_step(rng, 5), 4)
        for word, mass in tree.masses.items():
            if len(word) < 4:
                tally.record(mass != tree.masses[word + (0,)] + tree.masses[word + (1,)],
                             f"step {i}, node {word}")


@_check("entropy", "entropy-chain-rule-random-level6", 1e-12)
def check_entropy_recursion(tally):
    rng = random.Random(149)
    for i in range(100):
        f = _nonzero_step(rng, 6)
        for k in (1, 2, 3, 4):
            tally.absorb(verify_entropy_recursion(f, k, tol=1e-12), f"step {i}, k {k}")


@_check("entropy", "single-branch-support-shifts-depth", 1e-12)
def check_entropy_single_branch(tally):
    rng = random.Random(151)
    for i in range(10):
        g = _nonzero_step(rng, 4)
        f = s_apply(0, g)
        for k in (1, 2, 3):
            tally.record(abs(entropy(f, k + 1) - entropy(g, k)), f"step {i}, depth {k}")


@_check("entropy", "entropy-number-range")
def check_entropy_bounds(tally):
    rng = random.Random(157)
    for i in range(20):
        f = _nonzero_step(rng, 4)
        for k in (1, 2, 3):
            e = entropy(f, k)
            tally.record(not -1e-12 <= e <= k * math.log(2) + 1e-12,
                         f"step {i}, depth {k}: {e!r}")


@_check("entropy", "best-basis-matches-exhaustive-depth3", 1e-12)
def check_best_basis_exhaustive(tally):
    def antichains(word, depth):
        yield [word]
        if depth > 0:
            for left in antichains(word + (0,), depth - 1):
                for right in antichains(word + (1,), depth - 1):
                    yield left + right

    rng = random.Random(163)
    for i in range(10):
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
        tally.record(abs(dp_cost - exhaustive), f"step {i}")


@_check("entropy", "best-basis-beats-uniform-partitions", 1e-12)
def check_best_basis_uniform_bound(tally):
    rng = random.Random(167)
    for i in range(10):
        f = _nonzero_step(rng, 5)
        _, cost = best_basis(f, 5)
        for k in (1, 2, 3, 4, 5):
            tally.record(cost - entropy(f, k), f"step {i}, depth {k}")


@_check("entropy", "entropy-invariant-under-branch-swap", 1e-12)
def check_branch_permutation(tally):
    rng = random.Random(173)
    for i in range(10):
        f = _nonzero_step(rng, 4)
        values = f.coeffs
        half = len(values) // 2
        swapped = DyadicStep(f.level, values[half:] + values[:half])
        for k in (1, 2, 3):
            tally.record(abs(entropy(f, k) - entropy(swapped, k)), f"step {i}, depth {k}")


# ---------------------------------------------------------------------------
# cantor suite
# ---------------------------------------------------------------------------

@_check("cantor", "spectrum-orthogonality-p8", 0.0)
def check_cantor_spectrum_gram(tally):
    r = gram_exponentials(8)
    tally.record(r.max_violation, r.witness, cases=r.checked)


@_check("cantor", "measure-transform-functional-equation", 1e-9)
def check_mu_hat_functional_equation(tally):
    rng = random.Random(179)
    for _ in range(1000):
        lam = rng.uniform(-100, 100)
        lhs = mu_hat(lam)
        rhs = 0.5 * (1 + complex(math.cos(math.pi * lam), math.sin(math.pi * lam))) * mu_hat(lam / 4)
        tally.record(abs(lhs - rhs), f"lambda = {lam!r}")


@_check("cantor", "transform-zero-predicate-vs-numeric")
def check_mu_hat_zero_consistency(tally):
    for delta in range(-1000, 1001):
        tally.record((abs(mu_hat(delta)) < 1e-8) != mu_hat_is_zero(delta), f"delta = {delta}")


@_check("cantor", "cell-indicator-expansion-words-to-len6", 0.0)
def check_indicator_expansions(tally):
    for word in enumerate_words(6):
        if len(word):
            tally.record(indicator_relation_check(word).max_violation, f"word {word.digits}")


@_check("cantor", "spectrum-odd-orbit-partition-p1-8")
def check_lambda_partitions(tally):
    for p in range(1, 9):
        report = verify_lambda_partition(p)
        tally.record(report.max_violation, f"p{p}: {report.witness}")


@_check("cantor", "bessel-sums-monotone-and-bounded", 1e-10)
def check_bessel_monotone(tally):
    f = CantorStep(1, [1, 0])
    sums = [2 * bessel_sum(f, p) for p in range(2, 9)]
    for p, (before, s) in enumerate(zip([-math.inf] + sums, sums), 2):
        tally.record(max(before - s, s - 1.0), f"p{p}: sums={sums}")


@_check("cantor", "exponential-frequency-scaling-under-isometry", 1e-8)
def check_exp_coefficient_scaling(tally):
    rng = random.Random(181)
    for i in range(5):
        f = CantorStep(2, [rng.randint(-3, 3) for _ in range(4)])
        g = s_apply(0, f)
        for lam in (0, 1, 5, 17, 21):
            tally.record(abs(exp_coefficient(4 * lam, g) - exp_coefficient(lam, f)),
                         f"step {i}, lambda {lam}")


@_check("cantor", "cell-mass-diameter-square-root-scaling")
def check_cell_scaling(tally):
    for k in range(6):
        tally.record(CantorStep.cell_mass(k + 1) * 2 != CantorStep.cell_mass(k), f"mass {k}")
        tally.record(CantorStep.cell_diameter(k + 1) * 4 != CantorStep.cell_diameter(k),
                     f"diameter {k}")


# the suites that one forked child runs while this process runs the rest:
# the two groups take about the same time, and each cache stays with the
# checks that use it (``_square_wave_levels`` serves walsh checks only,
# ``trig._cell_integrals`` cuntz and sine checks)
_CHILD_SUITES = ("walsh", "cantor")


def run_suite(suite: str = "all") -> list[VerificationReport]:
    """Run one suite (or all) and return the reports in registry order,
    each judged at its check's own tolerance and carrying the check's wall
    time as ``elapsed_s``.

    When the selection holds checks of both the walsh/cantor group and the
    cuntz/sine/entropy group, the first group runs in one forked child
    while this process runs the second, so the run's wall time is below
    the sum of the check times.  A single suite, a platform without
    ``os.fork`` and a process with more than one thread run every check
    here, in registry order.  A check that raises in the child raises the
    same exception here, after the child has been reaped.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    selected = [(i, name, fn) for i, (name, fn) in enumerate(CHECKS)
                if suite in ("all", name)]
    child = [(i, fn) for i, name, fn in selected if name in _CHILD_SUITES]
    here = [(i, fn) for i, name, fn in selected if name not in _CHILD_SUITES]
    if child and here and hasattr(os, "fork") and threading.active_count() == 1:
        pairs = _run_forked(child, here)
    else:
        pairs = _run([(i, fn) for i, _name, fn in selected])
    return [report for _i, report in sorted(pairs, key=operator.itemgetter(0))]


def _run(checks) -> list[tuple[int, VerificationReport]]:
    """(registry index, report) for each (registry index, check), timed in
    the process that runs it."""
    pairs = []
    for index, fn in checks:
        start = time.perf_counter()
        report = fn()
        pairs.append((index, dataclasses.replace(report, elapsed_s=time.perf_counter() - start)))
    return pairs


def _run_forked(child, here) -> list[tuple[int, VerificationReport]]:
    """``_run(child)`` in a forked child and ``_run(here)`` in this process.

    The child sends its pairs back pickled through a pipe.  This process
    always reaps the child; if one of its own checks raises, it kills the
    child first.
    """
    read_fd, write_fd = os.pipe()
    gc.freeze()  # the child's collections then leave the inherited heap unwritten
    try:
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _child_main(child, read_fd, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                try:
                    pairs = _run(here)
                except BaseException:
                    os.kill(pid, signal.SIGKILL)
                    raise
                payload = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
    finally:
        gc.unfreeze()
    if not payload:
        raise RuntimeError("the forked verify process ended without its reports "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    theirs, error = pickle.loads(payload)
    if error is not None:
        raise error
    return pairs + theirs


def _child_main(checks, read_fd: int, write_fd: int) -> NoReturn:
    """The forked child: write ``_run(checks)``, or the exception a check
    raised, pickled to ``write_fd``.  It leaves only through ``os._exit``,
    so inherited stdio buffers and ``atexit`` handlers run in the parent
    alone."""
    code = 1
    try:
        os.close(read_fd)
        try:
            payload = pickle.dumps((_run(checks), None))
        except BaseException as exc:  # the parent re-raises it
            payload = _pickled_error(exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    """``exc``, pickled with the child's traceback as a note; its repr in a
    RuntimeError when it does not survive pickling."""
    note = "raised in the forked verify process:\n" + "".join(
        traceback.format_exception(exc)).rstrip()
    try:
        exc.add_note(note)
        payload = pickle.dumps((None, exc))
        pickle.loads(payload)  # an exception whose args cannot rebuild it fails here
        return payload
    except Exception:
        fallback = RuntimeError(repr(exc))
        fallback.add_note(note)
        return pickle.dumps((None, fallback))
