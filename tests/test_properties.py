"""Property tests of the exact fast path: the lifted Walsh butterfly and the
packet mass tree, each against its definition through the operators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntz_bases.basis import walsh, walsh_butterfly, walsh_expand, walsh_synthesize
from cuntz_bases.cantor import CantorStep
from cuntz_bases.dyadic import DyadicStep
from cuntz_bases.entropy import build_entropy_tree
from cuntz_bases.operators import s_adjoint

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
