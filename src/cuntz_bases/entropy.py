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
from typing import Sequence

from .basis import butterfly
from .dyadic import MultiIndex, StepFunction, binary_words
from .operators import INTERVAL_REP, IntervalRep2
from .reporting import Tally, VerificationReport

# below this, a mass is an exact zero for the 0*ln(0) = 0 convention
ZERO_MASS = 1e-15
# the same threshold as an exact rational: comparing a Fraction with the float
# would convert the float again on every call
_ZERO_MASS_EXACT = Fraction(ZERO_MASS)


def _is_zero_mass(mass) -> bool:
    return mass <= (_ZERO_MASS_EXACT if type(mass) is Fraction else ZERO_MASS)


def _nlogn(mass) -> float:
    if _is_zero_mass(mass):
        return 0.0
    mass = float(mass)
    return -mass * math.log(mass) + 0.0  # + 0.0 normalizes -0.0 away


def _mass_levels(f, depth: int, rep) -> list[list]:
    """Normalized masses ||S_J* f||^2 / ||f||^2 for all |J| <= depth.

    ``levels[k][code]`` is the mass of the length-k word with that code
    (first letter = lowest bit, the butterfly's row index), so the children
    of ``(k, code)`` are ``(k + 1, code)`` and ``(k + 1, code | 1 << k)``.
    Masses stay exact rationals on exact carriers (the adjoints and norms
    are exact there) and are floats on trig hybrids.
    """
    if type(rep) is IntervalRep2 and isinstance(f, StepFunction):
        return _packet_mass_levels(f, depth)
    total = f.norm_sq()
    if total <= 0.0:
        raise ValueError("cannot analyze the zero function")
    if isinstance(total, int):
        total = Fraction(total)

    def mass_of(g):
        value = g.norm_sq()
        if isinstance(value, int):
            value = Fraction(value)
        return value / total

    frontier = [f]
    levels = [[mass_of(f)]]
    for _ in range(depth):
        frontier = [rep.adjoint(digit, g) for digit in (0, 1) for g in frontier]
        levels.append([mass_of(g) for g in frontier])
    return levels


def _packet_mass_levels(f: StepFunction, depth: int) -> list[list[Fraction]]:
    """The mass levels of a step as sums of squared Walsh-packet coefficients.

    Row J of the butterfly on the step's numerators after |J| stages is
    den * 2**|J| * S_J* f, so mass(J) = (sum of its squares) / (total << |J|),
    where total is the root's sum of squares.  The squares are summed at the deepest stage only:
    a parent's sum is half the sum of its two children's.  Past the step's
    level the adjoints act on constants: child 0 keeps the parent's mass and
    child 1 gets none.
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
    levels = [[Fraction(s, total << k) for s in sums[k].tolist()] for k in range(stages + 1)]
    zero = Fraction(0)
    for _ in range(stages, depth):
        levels.append(levels[-1] + [zero] * len(levels[-1]))
    return levels


def _lex_keys(depth: int):
    """For k = 0 .. depth, the length-k words as (digits, code) pairs in
    lexicographic order (first letter most significant): the order of the
    public mass dicts and of every float sum over a level."""
    frontier = [((), 0)]
    yield frontier
    for k in range(depth):
        frontier = [(word + (d,), code | d << k) for word, code in frontier for d in (0, 1)]
        yield frontier


def projection_masses(f, k: int, rep=INTERVAL_REP) -> dict[MultiIndex, object]:
    """Masses ||P_J f||^2 for all words of length k (normalizing f first).

    Values are exact rationals for step inputs, floats for hybrids.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    level = _mass_levels(f, k, rep)[k]
    *_, frontier = _lex_keys(k)
    return {MultiIndex._trusted(word): level[code] for word, code in frontier}


def entropy(f, k: int, rep=INTERVAL_REP) -> float:
    """Entropy number of the depth-k projection masses (natural log)."""
    return sum(_nlogn(m) for m in projection_masses(f, k, rep).values())


def onb_entropy(coefficients: Sequence, tol: float = 1e-10) -> float:
    """Entropy of expansion coefficients against an orthonormal basis.

    The squared moduli must sum to one (within tol): entropy measures how
    spread the expansion is, so it is only meaningful for a unit vector.
    """
    weights = [abs(complex(c)) ** 2 for c in coefficients]
    total = sum(weights)
    if abs(total - 1.0) > tol:
        raise ValueError(f"coefficients not normalized: sum of squares = {total}")
    return sum(_nlogn(w) for w in weights)


def verify_entropy_recursion(f, k: int, rep=INTERVAL_REP,
                             tol: float = 1e-12) -> VerificationReport:
    """Check the chain rule for entropy numbers:

        eps_{k+1}(f) = eps_1(f) + sum_i ||S_i* f||^2 eps_k(S_i* f / ||S_i* f||)

    Branches of zero mass contribute zero.  (The conditional entropy on
    branch i is that of the adjoint state S_i* f; projecting back up with
    S_i only pads the mass tree with zeros one level down.)
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lhs = entropy(f, k + 1, rep)
    rhs = entropy(f, 1, rep)
    total = float(f.norm_sq())
    for digit in (0, 1):
        g = rep.adjoint(digit, f)
        mass = float(g.norm_sq()) / total
        if mass > ZERO_MASS:
            rhs += mass * entropy(g, k, rep)
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

    ``terms[k][code]`` is the entropy term -m ln m of the length-k word with
    that code, computed once per node.
    """

    depth: int
    masses: dict[tuple[int, ...], float]
    terms: tuple[list[float], ...]
    level_entropy: tuple[float, ...]
    best_leaves: tuple[MultiIndex, ...]
    best_cost: float

    def mass(self, word) -> float:
        word = tuple(word.digits) if isinstance(word, MultiIndex) else tuple(word)
        return self.masses[word]

    def rows(self):
        """(word, mass, entropy term, best leaf) rows in (length, code) order,
        one for every word of length <= depth (the tree holds them all)."""
        best = {w.digits for w in self.best_leaves}
        for words, terms in zip(binary_words(self.depth), self.terms):
            for digits, term in zip(words, terms):
                yield MultiIndex._trusted(digits), self.masses[digits], term, digits in best

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "nodes": [{"word": str(w), "mass": float(m), "entropy": e, "bestLeaf": b}
                      for w, m, e, b in self.rows()],
            "levelEntropy": list(self.level_entropy),
            "bestCost": self.best_cost,
        }


def build_entropy_tree(f, depth: int, rep=INTERVAL_REP) -> EntropyTree:
    if depth < 1:
        raise ValueError("depth must be at least one")
    levels = _mass_levels(f, depth, rep)
    terms = tuple([_nlogn(m) for m in level] for level in levels)
    masses: dict[tuple[int, ...], object] = {}
    level_entropy = []
    # one pass in lexicographic order per level, the order of the float sums
    for k, frontier in enumerate(_lex_keys(depth)):
        level, level_terms = levels[k], terms[k]
        for word, code in frontier:
            masses[word] = level[code]
        if k:
            level_entropy.append(sum(level_terms[code] for _word, code in frontier))
    leaves, cost = _best_antichain(levels, terms, 0, 0, depth)
    return EntropyTree(depth, masses, terms, tuple(level_entropy),
                       tuple(MultiIndex._from_code(k, code) for k, code in leaves), cost)


def _best_antichain(levels, terms, k, code, depth_left) -> tuple[list[tuple[int, int]], float]:
    keep_cost = terms[k][code]
    # a zero mass has a zero term, so the mass is compared only then
    if depth_left == 0 or keep_cost == 0.0 and _is_zero_mass(levels[k][code]):
        return [(k, code)], keep_cost
    left, cl = _best_antichain(levels, terms, k + 1, code, depth_left - 1)
    right, cr = _best_antichain(levels, terms, k + 1, code | 1 << k, depth_left - 1)
    if keep_cost <= cl + cr:
        return [(k, code)], keep_cost
    return left + right, cl + cr


def best_basis(f, max_depth: int, rep=INTERVAL_REP) -> tuple[tuple[MultiIndex, ...], float]:
    """Leaf antichain of the subdivision tree minimizing total entropy.

    The cost of an antichain is the entropy of its mass distribution; the
    split-vs-keep dynamic program is optimal because the cost is additive
    over leaves.  Ties prefer the shallower node.  Entropy is subadditive
    under merging cells, so a merge never costs more than its parts: on
    exact inputs the search certifies the returned cost against every
    refinement (in particular cost <= every uniform-depth entropy number),
    with coarse antichains favored.
    """
    if max_depth < 1:
        return (MultiIndex(()),), 0.0
    tree = build_entropy_tree(f, max_depth, rep)
    return tree.best_leaves, tree.best_cost
