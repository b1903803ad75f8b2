"""Property tests of the exact fast paths: the lifted Walsh butterfly, the
packet mass tree, the integer-phase ``hybrid_inner`` and the integer Cantor
layer (vectorised spectrum certificate, integer-phase ``exp_coefficient``),
each against its definition; plus the isometry relations, canonical atom
folding, the tally that every verification report comes from, the
row-block Gram judge against the whole Gram, and the lifted parse of
sample tokens against ``Fraction(token)``."""

import bisect
import cmath
import dataclasses
import fractions
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuntz_bases import verification
from cuntz_bases.basis import (
    gram_identity_gap,
    greedy_generators,
    verify_decomposition_levels,
    walsh,
    walsh_butterfly,
    walsh_expand,
    walsh_synthesize,
)
from cuntz_bases.cantor import (
    CantorStep,
    LambdaPoint,
    bessel_sum,
    coefficient_table,
    exp_coefficient,
    lambda_set,
    mu_hat,
    mu_hat_is_zero,
    orthogonality_report,
    transform_vanishes,
)
from cuntz_bases.dyadic import (
    MAX_EXPONENT,
    DyadicStep,
    MultiIndex,
    SampleError,
    _parse_token,
    as_rational,
    join_lifts,
    lift,
    word_code,
)
from cuntz_bases.entropy import ZERO_MASS, _nlogn, build_entropy_tree, entropy, projection_masses
from cuntz_bases.operators import INTERVAL_REP, apply_word, s_adjoint, s_apply, s_word, word_signs
from cuntz_bases.reporting import Tally, VerificationReport
from cuntz_bases.trig import (
    MODE_CONST,
    MODE_COS,
    MODE_SIN,
    HybridFunction,
    _product_terms,
    hybrid_inner,
    make_atom,
    make_cos,
    make_sine,
)

INTS = st.integers(-50, 50)
FRACTIONS = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12))
# magnitudes near 2**70 overflow int64 and force the object fallback
NEAR_2_70 = st.builds(lambda m, sign: sign * m,
                      st.integers((1 << 70) - (1 << 10), 1 << 70), st.sampled_from((1, -1)))
VALUES = {"int": INTS, "fraction": FRACTIONS, "near-2^70": NEAR_2_70}

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def steps(draw, values, cls=DyadicStep, max_level=6):
    level = draw(st.integers(0, max_level))
    return cls(level, draw(st.lists(values, min_size=1 << level, max_size=1 << level)))


def reference_masses(f, depth):
    """The definition: ||S_J* f||^2 / ||f||^2 by adjoint chains, inserted
    level by level in the parent's order, digit 0 before 1; exact
    Fractions on steps, floats on hybrids."""
    norm = float if isinstance(f, HybridFunction) else Fraction
    total = norm(f.norm_sq())
    masses = {(): norm(1)}
    frontier = {(): f}
    for _ in range(depth):
        deeper = {}
        for word, g in frontier.items():
            for digit in (0, 1):
                child = INTERVAL_REP.adjoint(digit, g)
                masses[word + (digit,)] = norm(child.norm_sq()) / total
                deeper[word + (digit,)] = child
        frontier = deeper
    return masses


def reference_term(mass):
    """-m ln m of float(m), and 0 for a mass at most ZERO_MASS (compared
    exactly: a Fraction compares with a float exactly)."""
    if mass <= ZERO_MASS:
        return 0.0
    m = float(mass)
    return -m * math.log(m) + 0.0


@st.composite
def hybrids(draw):
    """Sums of small integer multiples of sin(2 pi n x) and cos(2 pi n x)."""
    f = HybridFunction.zero()
    for make, n, c in draw(st.lists(st.tuples(st.sampled_from((make_sine, make_cos)),
                                              st.integers(0, 4), st.integers(-3, 3)),
                                    min_size=1, max_size=3)):
        f = f + make(n).scale(c)
    return f


@pytest.mark.parametrize("kind", sorted(VALUES))
@PROPERTY
@given(data=st.data())
def test_round_trip_and_parseval_exact(kind, data):
    f = data.draw(steps(VALUES[kind]))
    coeffs = walsh_expand(f)
    synthesized = walsh_synthesize(coeffs)
    assert synthesized == f
    assert sum(c * c for c in coeffs) == f.norm_sq()
    assert all(type(c) is int for c in coeffs + list(synthesized.coeffs) if c == int(c))
    if f.normalize().level <= 4:
        assert coeffs == [walsh(n).inner(f) for n in range(len(coeffs))]
    rows, _den = walsh_butterfly(f.coeffs, f.level)
    assert (rows.dtype == object) == (kind == "near-2^70")


MASS_TREE_INPUTS = [(cls, kind) for cls in (DyadicStep, CantorStep)
                    for kind in sorted(VALUES)] + [(HybridFunction, "trig")]


@pytest.mark.parametrize("cls, kind", MASS_TREE_INPUTS,
                         ids=[f"{kind}-{cls.__name__}" for cls, kind in MASS_TREE_INPUTS])
@PROPERTY
@given(data=st.data(), depth=st.integers(1, 8))
def test_packet_mass_tree_matches_adjoint_chains(cls, kind, data, depth):
    # masses, terms, level entropies and the best antichain of the tree's
    # integer (or float) levels against the same computed from the
    # definition's Fraction (or float) masses, word by word
    if cls is HybridFunction:
        f, depth = data.draw(hybrids()), min(depth, 5)  # 2**depth adjoint chains each
    else:
        f = data.draw(steps(VALUES[kind], cls, max_level=5))
    if f.is_zero():
        with pytest.raises(ValueError):
            build_entropy_tree(f, depth)
        with pytest.raises(ValueError):
            entropy(f, depth)
        return
    tree = build_entropy_tree(f, depth)
    masses = reference_masses(f, depth)
    # entropy() reads its level's integers; the same sum over the public
    # mass dict, each mass taken back to an integer ratio, has the same bits
    for k in range(depth + 1):
        via_dict = sum(_nlogn(*m.as_integer_ratio()) for m in projection_masses(f, k).values())
        assert entropy(f, k).hex() == via_dict.hex(), k
    assert list(tree.masses.items()) == list(masses.items())
    if cls is not HybridFunction:
        for word, mass in masses.items():
            if len(word) < depth:
                assert mass == masses[word + (0,)] + masses[word + (1,)]
    terms = {word: reference_term(mass) for word, mass in masses.items()}
    for word, term in terms.items():
        assert tree.terms[len(word)][word_code(word)].hex() == term.hex(), word
    assert [e.hex() for e in tree.level_entropy] == [
        sum(t for w, t in terms.items() if len(w) == k).hex() for k in range(1, depth + 1)]

    def antichain(word, depth_left):
        keep = terms[word]
        if depth_left == 0 or masses[word] <= ZERO_MASS:
            return [word], keep
        left, cl = antichain(word + (0,), depth_left - 1)
        right, cr = antichain(word + (1,), depth_left - 1)
        return ([word], keep) if keep <= cl + cr else (left + right, cl + cr)

    leaves, cost = antichain((), depth)
    assert [w.digits for w in tree.best_leaves] == leaves
    assert tree.best_cost.hex() == cost.hex()


@pytest.mark.parametrize("cls", [DyadicStep, CantorStep])
@PROPERTY
@given(data=st.data())
def test_isometry_relations_exact(cls, data):
    f = data.draw(steps(st.one_of(INTS, FRACTIONS), cls))
    zero = cls(0, [0])
    for i in (0, 1):
        for j in (0, 1):
            assert s_adjoint(i, s_apply(j, f)) == (f if i == j else zero)
    assert s_apply(0, s_adjoint(0, f)) + s_apply(1, s_adjoint(1, f)) == f


# magnitudes on both sides of 2**62: int64 below it, object numerators past it
NEAR_2_62 = st.builds(lambda m, sign: sign * m,
                      st.integers((1 << 62) - (1 << 10), (1 << 62) + (1 << 10)),
                      st.sampled_from((1, -1)))
WORD_VALUES = {"int64": INTS, "near-2^62": NEAR_2_62}


def letter_chain(length, code, f):
    """S_J f one letter at a time: the last letter (top bit of the code) first."""
    for b in reversed(range(length)):
        f = s_apply(code >> b & 1, f)
    return f


@pytest.mark.parametrize("cls", [DyadicStep, CantorStep])
@pytest.mark.parametrize("kind", sorted(WORD_VALUES))
@PROPERTY
@given(data=st.data(), length=st.integers(0, 10))
def test_word_kernel_matches_letter_chain(cls, kind, data, length):
    f = data.draw(steps(WORD_VALUES[kind], cls, max_level=4))
    code = data.draw(st.integers(0, (1 << length) - 1))
    got, want = s_word(length, code, f), letter_chain(length, code, f)
    assert type(got) is cls and got.level == want.level == f.level + length
    assert got.num.dtype == want.num.dtype == f.num.dtype
    assert got.den == want.den == f.den
    assert got == want and hash(got) == hash(want)
    assert not got.num.flags.writeable
    assert apply_word(MultiIndex._from_code(length, code), f) == want


@pytest.mark.parametrize("length", [16, 17, 18])
def test_word_signs_of_long_words(length):
    # past 8 letters the row is a product of several 8-bit table rows
    one = DyadicStep.ones()
    for code in (0, 1, (1 << length) - 1, 0b10110011100011110 % (1 << length)):
        assert (word_signs(length, code) == letter_chain(length, code, one).num).all()


@PROPERTY
@given(length=st.integers(0, 40), data=st.data())
def test_edge_word_matches_validated(length, data):
    code = data.draw(st.integers(0, (1 << length) - 1))
    edge = MultiIndex._from_code(length, code)
    checked = MultiIndex(tuple((code >> i) & 1 for i in range(length)))
    assert edge == checked and hash(edge) == hash(checked)
    assert edge.code == checked.code == code
    assert edge.sort_key == checked.sort_key == (length, code)
    assert str(edge) == str(checked)


# ---------------------------------------------------------------------------
# trig hybrids
# ---------------------------------------------------------------------------

MODES = (MODE_CONST, MODE_COS, MODE_SIN)
DYADICS = st.builds(lambda n, e: Fraction(n, 1 << e), st.integers(-24, 24), st.integers(0, 3))
WINDOWS = steps(st.one_of(st.integers(-5, 5), FRACTIONS), max_level=3)
# frequency zero often, so that constant sine and cosine atoms come up
FREQS = st.one_of(st.just(Fraction(0)), DYADICS)
ATOMS = st.builds(make_atom, WINDOWS, st.sampled_from(MODES), FREQS, DYADICS)
HYBRIDS = st.builds(HybridFunction, st.lists(ATOMS, max_size=4))


def reference_inner(f, g):
    """The closed form cell by cell in exact Fractions, each endpoint's
    argument reduced mod 2 as a Fraction and then converted to float."""
    def trig(kind, t):
        return (math.cos if kind == MODE_COS else math.sin)(math.pi * float(t % 2))

    def integral(kind, freq, phase, lo, hi):
        if freq == 0:
            return trig(kind, phase) * float(hi - lo)
        scale = 1.0 / (2.0 * math.pi * float(freq))
        t_hi, t_lo = 2 * freq * hi + phase, 2 * freq * lo + phase
        if kind == MODE_COS:
            return scale * (trig(MODE_SIN, t_hi) - trig(MODE_SIN, t_lo))
        return -scale * (trig(MODE_COS, t_hi) - trig(MODE_COS, t_lo))

    exact, approx = Fraction(0), 0.0
    for a in f.atoms:
        for b in g.atoms:
            k = max(a.window.level, b.window.level)
            wa, wb = a.window.refine(k).coeffs, b.window.refine(k).coeffs
            terms = _product_terms(a, b)
            cells = 1 << k
            if terms is None:
                exact += Fraction(sum(x * y for x, y in zip(wa, wb)), cells)
                continue
            for i in range(cells):
                w = wa[i] * wb[i]
                if w == 0:
                    continue
                lo, hi = Fraction(i, cells), Fraction(i + 1, cells)
                for coef, kind, freq, phase in terms:
                    approx += float(w * coef) * integral(kind, freq, phase, lo, hi)
    return float(exact) + approx


def _hybrid(*atoms):
    return HybridFunction([make_atom(*atom) for atom in atoms])


HALF_WINDOW = DyadicStep(1, [Fraction(3, 7), -2])
FINE_WINDOW = DyadicStep(3, [0, 1, Fraction(-5, 3), 0, 2, 0, Fraction(1, 6), 4])


@PROPERTY
@given(f=HYBRIDS, g=HYBRIDS)
# frequency-zero sine and cosine atoms with non-zero phases
@example(f=_hybrid((HALF_WINDOW, MODE_SIN, 0, Fraction(1, 4))),
         g=_hybrid((FINE_WINDOW, MODE_COS, 0, Fraction(3, 8)), (HALF_WINDOW, MODE_CONST)))
# cos * cos and cos * sin with a lower first frequency: negative differences
@example(f=_hybrid((FINE_WINDOW, MODE_COS, Fraction(3, 2), Fraction(1, 8))),
         g=_hybrid((HALF_WINDOW, MODE_COS, Fraction(7, 4), Fraction(3, 8)),
                   (DyadicStep.ones(), MODE_SIN, 5, Fraction(1, 4))))
def test_hybrid_inner_matches_fraction_closed_form(f, g):
    got, want = hybrid_inner(f, g), reference_inner(f, g)
    assert got.hex() == want.hex()  # bit for bit, not within a tolerance
    assert hybrid_inner(g, f).hex() == reference_inner(g, f).hex()


@PROPERTY
@given(window=WINDOWS, mode=st.sampled_from(MODES), freq=DYADICS, phase=DYADICS)
def test_make_atom_folding_is_idempotent(window, mode, freq, phase):
    atom = make_atom(window, mode, freq, phase)
    if atom is None:
        return
    assert atom.freq >= 0 and 0 <= atom.phase < Fraction(1, 2)
    assert make_atom(atom.window, atom.mode, atom.freq, atom.phase) == atom


# ---------------------------------------------------------------------------
# the Cantor spectrum
# ---------------------------------------------------------------------------

INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
# 4^a times an odd number, signed: zeros of the transform, and twice those
ZEROS = st.builds(lambda a, m, s: s * (4 ** a) * (2 * m + 1),
                  st.integers(0, 20), st.integers(0, 1 << 20), st.sampled_from((1, -1)))
DELTAS = st.one_of(INT64, ZEROS, st.builds(lambda d: 2 * d, ZEROS), st.just(0))


@PROPERTY
@given(deltas=st.lists(DELTAS, max_size=40))
@example(deltas=[-(1 << 63), (1 << 63) - 1, -(1 << 62), 1 << 62, -1, 1, 0])
def test_vectorised_zero_test_matches_mu_hat_is_zero(deltas):
    got = transform_vanishes(np.array(deltas, dtype=np.int64)).tolist()
    assert got == [mu_hat_is_zero(d) for d in deltas]


def reference_gram(relation, values):
    """The certificate pair by pair, as a list of pairs in row-major order."""
    pairs = [(a, b) for i, a in enumerate(values) for b in values[i + 1:]]
    failures = [(a, b) for a, b in pairs if not mu_hat_is_zero(b - a)]
    passed = not failures
    return (relation, passed, 0.0 if passed else 1.0,
            None if passed else f"lambda pair {failures[0]}", len(pairs))


# mostly spectrum points, so that a failing pair is not always the first
SCAN_VALUES = st.one_of(st.sampled_from([pt.value for pt in lambda_set(6)]),
                        st.integers(-(1 << 40), 1 << 40))


@PROPERTY
@given(values=st.lists(SCAN_VALUES, max_size=40))
def test_gram_scan_matches_pair_by_pair_reference(values):
    report = orthogonality_report("r", values)
    assert (report.relation, report.passed, report.max_violation, report.witness,
            report.checked) == reference_gram("r", values)


def reference_exp_coefficient(lam, f):
    """The closed form with Fraction cell endpoints and Fraction phases."""
    if isinstance(lam, LambdaPoint):
        lam = lam.value
    k = f.level
    tail = mu_hat(lam * 4.0 ** (-k)).conjugate()
    total = complex(0.0)
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        t = Fraction(0)
        for m in range(k):
            t += Fraction(2 * ((i >> (k - 1 - m)) & 1), 4 ** (m + 1))
        assert f.cell_left(i) == t and type(f.cell_left(i)) is Fraction
        if isinstance(lam, int):
            angle = Fraction(-2 * lam) * t % 2
            phase = cmath.exp(1j * math.pi * float(angle))
        else:
            phase = cmath.exp(-2j * math.pi * lam * float(t))
        total += float(c) * phase
    return total * tail / (1 << k)


def _hex(z):
    return z.real.hex(), z.imag.hex()


LAMBDAS = st.one_of(
    st.integers(-(4 ** 12), 4 ** 12),
    st.builds(LambdaPoint.from_value, st.sampled_from([pt.value for pt in lambda_set(8)])),
    st.floats(-1000, 1000, allow_nan=False),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 50)))
# sparse steps, as in the benchmark, and dense ones
CANTOR_STEPS = st.one_of(
    steps(st.one_of(INTS, FRACTIONS), CantorStep),
    steps(st.one_of(st.just(0), st.just(0), st.just(0), INTS, FRACTIONS), CantorStep))


@PROPERTY
@given(lam=LAMBDAS, f=CANTOR_STEPS)
def test_exp_coefficient_matches_fraction_closed_form(lam, f):
    assert _hex(exp_coefficient(lam, f)) == _hex(reference_exp_coefficient(lam, f))


@settings(max_examples=15, deadline=None)
@given(f=CANTOR_STEPS, p=st.integers(0, 5))
def test_table_and_bessel_sum_match_fraction_closed_form(f, p):
    want = [reference_exp_coefficient(pt, f) for pt in lambda_set(p)]
    rows = coefficient_table(f, p)
    assert [(r["re"].hex(), r["im"].hex()) for r in rows] == [_hex(c) for c in want]
    assert bessel_sum(f, p).hex() == sum(abs(c) ** 2 for c in want).hex()


# gaps of both kinds the checks record: small pools so that maxima tie
GAPS = st.one_of(st.sampled_from([0, 0.0, 1e-13, Fraction(1, 3), 0.5, Fraction(1, 2), 1]),
                 st.floats(0, 2), FRACTIONS.map(abs))
SUB_REPORTS = st.builds(
    lambda checked, gap, witness: VerificationReport("sub", gap == 0, float(gap), 0.0,
                                                     witness, checked),
    st.integers(0, 5), GAPS, st.sampled_from([None, "", "x = 0.25"]))
TOLS = st.sampled_from([0, 0.0, 1e-12, 0.4, 0.5, 1.0])


def reference_identity_gaps(vectors):
    """The whole Gram at once: 2**k |<v_i, v_j> - delta_ij| for every pair,
    from the cells of integer steps at their top level k."""
    k = max(v.level for v in vectors)
    mat = np.empty((len(vectors), 1 << k), dtype=np.float64)
    for i, v in enumerate(vectors):
        mat[i] = v._cells(k)
    gaps = mat @ mat.T
    gaps.flat[::len(vectors) + 1] -= 1 << k
    np.abs(gaps, out=gaps)
    return gaps, k


def reference_leading_gap(gaps, k, n):
    """Largest gap among the first n vectors, with the first pair reaching it."""
    block = gaps[:n, :n]
    i, j = divmod(int(block.argmax()), n)
    worst = float(block[i, j]) / (1 << k)
    if worst == 0.0:
        return 0.0, None
    return worst, f"vectors {i} and {j}"


GRAM_STEPS = st.one_of(steps(st.integers(-3, 3), max_level=7),
                       st.builds(walsh, st.integers(0, 127)))


@PROPERTY
@given(count=st.integers(1, 200), data=st.data())
def test_block_gram_judge_matches_whole_gram(count, data):
    # up to 128 orthonormal square waves first, so the worst pair may lie
    # past the first 64-row block; then a few steps, each repeated, so their
    # gaps tie; 1-200 rows leave part of a block at the end
    head = data.draw(st.permutations(range(128)))[:data.draw(st.integers(0, count))]
    pool = data.draw(st.lists(GRAM_STEPS, min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=count - len(head), max_size=count - len(head)))
    vectors = [walsh(n) for n in head] + [pool[i] for i in picks]
    worst, witness = gram_identity_gap(vectors)
    ref_worst, ref_witness = reference_leading_gap(*reference_identity_gaps(vectors),
                                                   len(vectors))
    assert (worst.hex(), witness) == (ref_worst.hex(), ref_witness)


def flipped_words(shortest, residue, width):
    """``s_word`` with ``width`` neighbouring cells negated in the steps of
    words of at least the given length whose codes have the given residue
    mod 4.  Width 2 negates one sign of the word: the step stays orthogonal
    to the steps of shorter words, as in a broken sign row.  Width 1 does
    not keep even that."""
    def word(length, code, f):
        step = s_word(length, code, f)
        if length >= shortest and code % 4 == residue:
            num = step.num.copy()
            start = code * width % len(num)
            num[start:start + width] *= -1
            step = step._trusted(step.level, num, step.den)
        return step
    return word


@settings(max_examples=150, deadline=None)
@given(max_len=st.integers(0, 7), thin=st.none() | st.integers(0, 7),
       levels=st.lists(st.integers(0, 8), max_size=3), top_first=st.booleans(),
       flip=st.tuples(st.integers(0, 8), st.integers(0, 3), st.sampled_from((1, 2))))
# level 7 is the leading 128 rows of a 256-row Gram whose other rows, the
# words of length 7, are not orthogonal to any row
@example(max_len=7, thin=None, levels=[7], top_first=False, flip=(7, 1, 1))
def test_decomposition_levels_match_leading_blocks_of_whole_gram(max_len, thin, levels,
                                                                 top_first, flip):
    cover = greedy_generators(max_len)
    if thin is not None:  # drop the first word of that length
        drop = next(d for d in cover.coverage if len(d) == min(thin, max_len))
        cover = dataclasses.replace(
            cover, coverage={d: f for d, f in cover.coverage.items() if d != drop})
    # the deepest level always, so that covers of words up to length 6 and 7
    # fill 2 and 4 row blocks
    levels = [min(level, max_len + 1) for level in levels]
    levels = [max_len + 1] + levels if top_first else levels + [max_len + 1]
    # steps of words of length 8 and more are never built: no flip then
    word = flipped_words(*flip)
    with mock.patch("cuntz_bases.basis.s_word", word):
        reports = verify_decomposition_levels(cover, levels)
    words = sorted((MultiIndex(d) for d in cover.coverage), key=lambda w: w.sort_key)
    vectors = [DyadicStep.ones()] + [word(len(w), w.code, walsh(1)) for w in words]
    keys = [w.sort_key for w in words]
    expected = []
    for level in levels:
        n = 1 + bisect.bisect_left(keys, (level, 0))
        if n != 1 << level:
            expected.append((False, math.inf, f"expected {1 << level} vectors, got {n}", n))
            continue
        gaps, k = reference_identity_gaps(vectors[:n])
        worst, witness = reference_leading_gap(gaps, k, n)
        expected.append((worst == 0.0, worst, witness, n * (n + 1) // 2))
    assert [(r.passed, r.max_violation, r.witness, r.checked) for r in reports] == expected


def reference_tally(relation, events, tol):
    """The bookkeeping each check once kept by hand: count, keep the first
    case to reach the largest gap, judge once at the end."""
    worst = 0.0
    witness = None
    checked = 0
    for i, event in enumerate(events):
        if isinstance(event, VerificationReport):
            checked += event.checked
            gap = event.max_violation
            case = f"case {i}: {event.witness}" if event.witness else f"case {i}"
        else:
            checked += 1
            gap, case = event, f"case {i}"
        if gap > worst:
            worst, witness = gap, case
    passed = worst <= tol
    return VerificationReport(relation, passed, float(worst), tol,
                              None if passed else witness, checked)


def tallied(events, tol):
    tally = Tally()
    for i, event in enumerate(events):
        if isinstance(event, VerificationReport):
            tally.absorb(event, f"case {i}")
        else:
            tally.record(event, f"case {i}")
    return tally.report("r", tol)


@PROPERTY
@given(events=st.lists(st.one_of(GAPS, SUB_REPORTS), max_size=30), tol=TOLS)
@example(events=[0.5, Fraction(1, 2), 0.25, 0.5], tol=0.4)
def test_tally_matches_hand_kept_bookkeeping(events, tol):
    report = tallied(events, tol)
    assert report == reference_tally("r", events, tol)
    gaps = [e.max_violation if isinstance(e, VerificationReport) else e for e in events]
    assert report.checked == sum(e.checked if isinstance(e, VerificationReport) else 1
                                 for e in events)
    worst = max(gaps + [0])
    assert report.max_violation == float(worst)
    assert report.passed == (worst <= tol)
    if report.passed:
        assert report.witness is None
    else:
        first = gaps.index(worst)  # the first of the tied maxima
        assert report.witness.split(":")[0] == f"case {first}"


@PROPERTY
@given(checks=st.lists(st.tuples(GAPS, st.sampled_from([0, 0.0, 1e-12, 0.5])),
                       min_size=1, max_size=8),
       override=st.sampled_from([1e-13, 0.25, 0.5, 2.0]))
def test_run_suite_tol_override_rejudges_float_checks(checks, override):
    registry = [("cuntz", lambda i=i, gap=gap, tol=tol: tallied([gap] * i + [gap], tol))
                for i, (gap, tol) in enumerate(checks)]
    with mock.patch.object(verification, "CHECKS", registry):
        reports = verification.run_suite("cuntz", tol_override=override)
    assert len(reports) == len(checks)
    for i, ((gap, tol), report) in enumerate(zip(checks, reports)):
        own = tallied([gap] * (i + 1), tol)
        if tol == 0:  # exact checks keep their own verdict
            assert report == own
            continue
        assert report.tol == override and report.checked == i + 1
        assert report.passed == (float(gap) <= override)
        # a pass shows no witness; a failure names the worst case, also when
        # the check passed at its own tol
        assert report.witness == (None if report.passed else own.worst_case)
        assert report.worst_case == own.worst_case == ("case 0" if gap else None)


# ---------------------------------------------------------------------------
# sample tokens: the lifted parse against Fraction(token)
# ---------------------------------------------------------------------------

# non-ASCII decimal digits read as digits; superscript two does not
DIGIT_CHARS = "0123456789" + "٣߁५" + "²_"
DIGIT_RUNS = st.one_of(st.text("0123456789", min_size=1, max_size=5),
                       st.text(DIGIT_CHARS, max_size=5))
SPACES = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003"])
TAILS = st.one_of(
    st.just(""),
    st.builds("{}.{}".format, SPACES, DIGIT_RUNS),
    st.builds(".{}".format, DIGIT_RUNS),
    st.builds("/{}{}{}".format, SPACES, st.sampled_from(["", "-", "+"]), DIGIT_RUNS),
    st.builds("{}/{}".format, SPACES, DIGIT_RUNS),
    st.builds("/{}".format, DIGIT_RUNS),
)
# at most three exponent digits here; the free-text strategies below also
# draw exponents beyond MAX_EXPONENT
EXPONENTS = st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from(["e", "E", " e"]),
                                             st.sampled_from(["", "-", "+", "_"]),
                                             st.text(DIGIT_CHARS, max_size=3)))
TOKENS = st.one_of(
    st.builds("{}{}{}{}{}{}".format, SPACES, st.sampled_from(["", "-", "+", "+-", "- "]),
              DIGIT_RUNS, TAILS, EXPONENTS, SPACES),
    st.text(DIGIT_CHARS + " .-+/eE", max_size=8),
    st.text(max_size=6),
)


def parsed(parse, token):
    """The value a parse returns, or the type and message of what it raises."""
    try:
        return parse(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1500, deadline=None)
@given(token=TOKENS)
@example(token=" 1_000 ")
@example(token=".5")
@example(token="5.")
@example(token="-.5")
@example(token="+5.25 ")
@example(token="1_.5")
@example(token="5 .")
@example(token="1 /2")
@example(token="1/ 2")
@example(token="1/-2")
@example(token="1/+2")
@example(token="-3/4")
@example(token="1/0")
@example(token="1/2/3")
@example(token="٣.٥")
@example(token="²")
@example(token="1e3")
@example(token="-1.5E-2")
@example(token="1e 3")
@example(token="5.d")
@example(token="")
@example(token="nan")
@example(token="0x10")
@example(token="E100001")
@example(token="1/2e100001")
@example(token="1.5.e200000")
@example(token="0E100001")
def test_token_parse_matches_fraction(token):
    # the documented contract: a well-formed token (Fraction's own grammar)
    # whose exponent is beyond MAX_EXPONENT raises OverflowError; every
    # other token parses, or raises, exactly as Fraction(token) does
    form = fractions._RATIONAL_FORMAT.match(token)
    if form and form["exp"] and abs(int(form["exp"])) > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            _parse_token(token)
        return
    want = parsed(Fraction, token)
    got = parsed(lambda t: Fraction(*_parse_token(t)), token)
    assert got == want
    if not isinstance(want, tuple):
        assert as_rational(token) == want
        assert type(as_rational(token)) is (int if want.denominator == 1 else Fraction)


VALID_TOKENS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.builds(lambda m, places: f"{m / 10 ** places:.{places}f}", st.integers(-10**6, 10**6),
              st.integers(0, 6)),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-20, 20)),
)


@PROPERTY
@given(tokens=st.lists(VALID_TOKENS, min_size=1, max_size=16),
       exact=st.lists(st.one_of(INTS, FRACTIONS), max_size=4))
def test_lift_is_exact_over_the_least_common_denominator(tokens, exact):
    values = [Fraction(t) for t in tokens] + list(exact)
    ints, den = lift(tokens + exact)
    assert den == math.lcm(*(v.denominator for v in values))
    assert [Fraction(u, den) for u in ints] == values
    assert all(type(u) is int for u in ints)



@PROPERTY
@given(values=st.lists(st.one_of(VALID_TOKENS, st.just("0"), INTS, FRACTIONS), max_size=24),
       data=st.data())
def test_join_of_block_lifts_is_the_lift(values, data):
    # any split, empty runs included, as the CLI reads a file in blocks
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=5)))
    bounds = [0, *cuts, len(values)]
    runs = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    assert join_lifts(lift(run) for run in runs) == lift(values)


def test_lift_names_the_bad_sample():
    for values, index, reason in (
            (["1", "0.5", "oops", "2"], 2, "malformed sample"),
            (["1/0", "1"], 0, "malformed sample"),
            ([Fraction(1, 3), "2", f"1e{MAX_EXPONENT + 1}"], 2,
             f"sample exponent beyond {MAX_EXPONENT}"),
            (["7", "-2.5E-999999"], 1, f"sample exponent beyond {MAX_EXPONENT}")):
        with pytest.raises(SampleError) as exc:
            lift(values)
        assert (exc.value.index, exc.value.value, exc.value.reason) == (
            index, values[index], reason)
    with pytest.raises(TypeError):
        lift(["1", 0.5])  # floats are not exact scalars


def test_exponent_bound_before_any_power():
    # the bound itself is accepted; one past it raises before 10**exponent
    for token in (f"1e{MAX_EXPONENT}", f"-2.5E-{MAX_EXPONENT}", "3e+10"):
        assert Fraction(*_parse_token(token)) == Fraction(token)
    for token in ("1e10000000", "1E-10000000", "-0.5e+99_999_999"):
        with pytest.raises(OverflowError, match=f"exceeds {MAX_EXPONENT}"):
            _parse_token(token)
    # a malformed token keeps Fraction's own error, however large its exponent
    for token in ("1.2.3e99999999", "xe10000000", "1/2e10000000"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            _parse_token(token)
