"""Property tests of the exact fast paths: the lifted Walsh butterfly, the
packet mass tree and the integer-phase ``hybrid_inner``, each against its
definition; plus the isometry relations and canonical atom folding."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuntz_bases.basis import walsh, walsh_butterfly, walsh_expand, walsh_synthesize
from cuntz_bases.cantor import CantorStep
from cuntz_bases.dyadic import DyadicStep
from cuntz_bases.entropy import build_entropy_tree
from cuntz_bases.operators import s_adjoint, s_apply
from cuntz_bases.trig import (
    MODE_CONST,
    MODE_COS,
    MODE_SIN,
    HybridFunction,
    _product_terms,
    hybrid_inner,
    make_atom,
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
    level by level in the parent's order, digit 0 before 1."""
    total = Fraction(f.norm_sq())
    masses = {(): Fraction(1)}
    frontier = {(): f}
    for _ in range(depth):
        deeper = {}
        for word, g in frontier.items():
            for digit in (0, 1):
                child = s_adjoint(digit, g)
                masses[word + (digit,)] = Fraction(child.norm_sq()) / total
                deeper[word + (digit,)] = child
        frontier = deeper
    return masses


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


@pytest.mark.parametrize("cls", [DyadicStep, CantorStep])
@pytest.mark.parametrize("kind", sorted(VALUES))
@PROPERTY
@given(data=st.data(), depth=st.integers(1, 8))
def test_packet_mass_tree_matches_adjoint_chains(cls, kind, data, depth):
    f = data.draw(steps(VALUES[kind], cls, max_level=5))
    if f.is_zero():
        with pytest.raises(ValueError):
            build_entropy_tree(f, depth)
        return
    masses = build_entropy_tree(f, depth).masses
    assert list(masses.items()) == list(reference_masses(f, depth).items())
    for word, mass in masses.items():
        if len(word) < depth:
            assert mass == masses[word + (0,)] + masses[word + (1,)]


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
