"""Projection masses, entropy numbers, and best-basis selection.

Each word J of branch digits carries the projection P_J = S_J S_J*, and
since S_J is an isometry the mass ||P_J f||^2 equals ||S_J* f||^2, which is
what the implementation computes: walking the binary tree of adjoint states
g_(J.i) = S_i* g_J.  Appending a digit on the right splits a node's mass
between its two children:

    word ()        g = f                 mass 1
    word (0)       g = S_0* f            mass p0
    word (0,1)     g = S_1* S_0* f       one of the two children of (0)

so mass(J) = mass(J+(0,)) + mass(J+(1,)) at every node, and each level's
masses form a probability distribution whose Shannon entropy is the level's
entropy number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .basis import butterfly
from .dyadic import MultiIndex, StepFunction, _index
from .operators import s_adjoint
from .reporting import Tally, VerificationReport

# below this, a mass is an exact zero for the 0*ln(0) = 0 convention
ZERO_MASS = 1e-15
# the same threshold as an integer ratio; its denominator is a power of two,
# so num * _ZERO_DEN is exact for int and float numerators alike
_ZERO_NUM, _ZERO_DEN = ZERO_MASS.as_integer_ratio()


def _is_zero_mass(num, den) -> bool:
    """Whether the mass ``num / den`` is at most ZERO_MASS, exactly."""
    return num * _ZERO_DEN <= _ZERO_NUM * den


def _nlogn(num, den) -> float:
    """The entropy term -m ln m of the mass m = num / den, 0 for a zero mass
    (an int quotient rounds correctly, as float(Fraction) does)."""
    if _is_zero_mass(num, den):
        return 0.0
    mass = num / den
    return -mass * math.log(mass) + 0.0  # + 0.0 normalizes -0.0 away


def _mass(num, den):
    """One mass as the public API gives it: an exact Fraction on exact
    carriers, the float itself on hybrids."""
    return num if isinstance(num, float) else Fraction(num, den)


def _mass_levels(f, depth: int) -> list[tuple[object, object]]:
    """Normalized masses ||S_J* f||^2 / ||f||^2 for all |J| <= depth.

    ``levels[k]`` is ``(nums, den)``: the length-k word with code ``c``
    (first letter = lowest bit, the butterfly's row index) has the mass
    ``nums[c] / den``, so the children of ``(k, c)`` are ``(k + 1, c)`` and
    ``(k + 1, c | 1 << k)``.  A step has exact masses, an ``object`` array
    of Python ints over one int per level; a hybrid is measured adjoint by
    adjoint, a list of its float masses over 1.
    """
    if isinstance(f, StepFunction):
        return _packet_mass_levels(f, depth)
    total = float(f.norm_sq())
    if total <= 0.0:
        raise ValueError("cannot analyze the zero function")
    frontier = [f]
    levels = [([1.0], 1)]
    for _ in range(depth):
        frontier = [s_adjoint(digit, g) for digit in (0, 1) for g in frontier]
        levels.append(([float(g.norm_sq()) / total for g in frontier], 1))
    return levels


def _packet_mass_levels(f: StepFunction, depth: int) -> list[tuple[np.ndarray, int]]:
    """The mass levels of a step as sums of squared Walsh-packet coefficients,
    each level's numerators an ``object`` array of Python ints.

    Row J of the butterfly on the step's numerators after |J| stages is
    den * 2**|J| * S_J* f, so mass(J) = (sum of its squares) / (total << |J|),
    where total is the root's sum of squares.  The squares are summed at the
    deepest stage only: a parent's sum is half the sum of its two children's.
    Past the step's level the adjoints act on constants: child 0 keeps the
    parent's mass and child 1 gets none.
    """
    stages = min(depth, f.level)
    rows = butterfly(f.num, stages)
    sums = [(rows.astype(object) ** 2).sum(axis=1)]
    while len(sums[-1]) > 1:
        deeper = sums[-1]
        half = len(deeper) // 2
        sums.append((deeper[:half] + deeper[half:]) >> 1)
    sums.reverse()
    total = sums[0][0]
    if total == 0:
        raise ValueError("cannot analyze the zero function")
    levels = [(sums[k], total << k) for k in range(stages + 1)]
    for _ in range(stages, depth):
        nums, den = levels[-1]
        levels.append((np.concatenate((nums, np.zeros_like(nums))), den))
    return levels


def _lex_codes(depth: int):
    """For k = 0 .. depth, the codes of the length-k words in lexicographic
    order (first letter most significant): the order of the public mass
    dicts and of every float sum over a level."""
    codes = [0]
    yield codes
    for k in range(depth):
        codes = [code | d << k for code in codes for d in (0, 1)]
        yield codes


def projection_masses(f, k: int) -> dict[MultiIndex, object]:
    """Masses ||P_J f||^2 for all words of length k (normalizing f first).

    Values are exact rationals for steps, floats for hybrids.
    """
    k = _index(k, "k")
    nums, den = _mass_levels(f, k)[k]
    *_, codes = _lex_codes(k)
    return {MultiIndex._from_code(k, code): _mass(nums[code], den) for code in codes}


def entropy(f, k: int) -> float:
    """Entropy number of the depth-k projection masses (natural log), summed
    in lexicographic word order straight from the level's integers."""
    k = _index(k, "k")
    nums, den = _mass_levels(f, k)[k]
    *_, codes = _lex_codes(k)
    return sum(_nlogn(nums[code], den) for code in codes)


def onb_entropy(coefficients: Sequence, tol: float = 1e-10) -> float:
    """Entropy of expansion coefficients against an orthonormal basis.

    The squared moduli must sum to one (within tol): entropy measures how
    spread the expansion is, so it is only meaningful for a unit vector.
    """
    weights = [abs(complex(c)) ** 2 for c in coefficients]
    total = sum(weights)
    if abs(total - 1.0) > tol:
        raise ValueError(f"coefficients not normalized: sum of squares = {total}")
    return sum(_nlogn(w, 1) for w in weights)


def verify_entropy_recursion(f, k: int, tol: float = 1e-12) -> VerificationReport:
    """Check the chain rule for entropy numbers:

        eps_{k+1}(f) = eps_1(f) + sum_i ||S_i* f||^2 eps_k(S_i* f / ||S_i* f||)

    Branches of zero mass contribute zero.  (The conditional entropy on
    branch i is that of the adjoint state S_i* f; projecting back up with
    S_i only pads the mass tree with zeros one level down.)
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lhs = entropy(f, k + 1)
    rhs = entropy(f, 1)
    total = float(f.norm_sq())
    for digit in (0, 1):
        g = s_adjoint(digit, f)
        mass = float(g.norm_sq()) / total
        if mass > ZERO_MASS:
            rhs += mass * entropy(g, k)
    tally = Tally()
    tally.record(abs(lhs - rhs), f"lhs={lhs!r} rhs={rhs!r}")
    return tally.report(f"entropy-chain-rule-k{k}", tol)


# ---------------------------------------------------------------------------
# The subdivision tree and best-basis search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyTree:
    """All masses of the subdivision tree to a fixed depth, plus the
    per-level entropy numbers and the minimizing leaf antichain.

    ``levels[k]`` is ``(nums, den)`` and ``terms[k]`` holds the entropy
    terms -m ln m, each computed once per node: the length-k word with code
    ``c`` has the mass ``nums[c] / den`` and the term ``terms[k][c]``.
    ``nums`` is an ``object`` array of Python ints on a step, a list of floats
    on a hybrid; Fractions and words are built only by ``masses`` and ``rows``.
    """

    depth: int
    levels: tuple[tuple[object, object], ...]
    terms: tuple[list[float], ...]
    level_entropy: tuple[float, ...]
    best_leaves: tuple[MultiIndex, ...]
    best_cost: float

    @cached_property
    def masses(self) -> dict[tuple[int, ...], object]:
        """Every mass by digit tuple, level by level in lexicographic order
        (built on first use)."""
        return {MultiIndex._from_code(k, code).digits: _mass(nums[code], den)
                for k, (codes, (nums, den)) in enumerate(zip(_lex_codes(self.depth), self.levels))
                for code in codes}

    def rows(self):
        """(word, mass, entropy term, best leaf) rows in (length, code) order,
        one for every word of length <= depth (the tree holds them all)."""
        best = {(len(w), w.code) for w in self.best_leaves}
        for k, ((nums, den), terms) in enumerate(zip(self.levels, self.terms)):
            for code, (num, term) in enumerate(zip(nums, terms)):
                yield MultiIndex._from_code(k, code), _mass(num, den), term, (k, code) in best


def build_entropy_tree(f, depth: int) -> EntropyTree:
    depth = _index(depth, "depth", 1)
    levels = _mass_levels(f, depth)
    terms = tuple([_nlogn(num, den) for num in nums] for nums, den in levels)
    # each level summed in lexicographic word order, the order of the float sums
    level_sums = [sum([level_terms[code] for code in codes])
                  for level_terms, codes in zip(terms, _lex_codes(depth))]
    leaves, cost = _best_antichain(levels, terms, 0, 0, depth)
    return EntropyTree(depth, tuple(levels), terms, tuple(level_sums[1:]),
                       tuple(MultiIndex._from_code(k, code) for k, code in leaves), cost)


def _best_antichain(levels, terms, k, code, depth_left) -> tuple[list[tuple[int, int]], float]:
    keep_cost = terms[k][code]
    nums, den = levels[k]
    # a zero mass has a zero term, so the mass is compared only then
    if depth_left == 0 or keep_cost == 0.0 and _is_zero_mass(nums[code], den):
        return [(k, code)], keep_cost
    left, cl = _best_antichain(levels, terms, k + 1, code, depth_left - 1)
    right, cr = _best_antichain(levels, terms, k + 1, code | 1 << k, depth_left - 1)
    if keep_cost <= cl + cr:
        return [(k, code)], keep_cost
    return left + right, cl + cr


def best_basis(f, max_depth: int) -> tuple[tuple[MultiIndex, ...], float]:
    """Leaf antichain of the subdivision tree minimizing total entropy.

    The cost of an antichain is the entropy of its mass distribution; the
    split-vs-keep dynamic program is optimal because the cost is additive
    over leaves.  Ties prefer the shallower node.  With this cost the
    search is trivial: the root's mass is 1, so its term is 0.0 and no split
    beats it.  So each nonnegative ``max_depth`` gives ``((),)`` at cost 0.0
    (0 without building a tree), and the verify checks
    ``best-basis-matches-exhaustive-depth3`` and
    ``best-basis-beats-uniform-partitions`` pass for that reason alone; a
    negative ``max_depth`` raises ValueError.
    """
    if _index(max_depth, "max_depth") == 0:
        return (MultiIndex(()),), 0.0
    tree = build_entropy_tree(f, max_depth)
    return tree.best_leaves, tree.best_cost
