"""The scale-4 Cantor system: cylinder steps, the two isometries, the
transform of the self-similar measure, and its exponential spectrum.

The carrier set lives inside [0,1] as the points whose base-4 digits are
all 0 or 2; it splits into the images of the two contractions

    tau_0(x) = x / 4        tau_1(x) = (x + 2) / 4

each carrying half the measure.  Level-k cylinder cells are indexed by
binary words exactly like dyadic subintervals, so the coefficient rules of
the isometries are the same as on the interval; only the cell geometry
(left endpoints t_J = sum 2 j_i 4^-i) differs, and it matters only when
exponentials enter.

The transform of the measure factors as an infinite product

    mu_hat(lam) = prod_{m >= 0} (1 + exp(i pi lam 4^-m)) / 2

which vanishes at an integer exactly when the integer is 4^a times an odd
number; that integer-arithmetic criterion drives all orthogonality checks
for the exponential spectrum {sum j_i 4^i : j_i in {0, 1}}.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dyadic import StepFunction, _index, as_word, word_cell
from .operators import s_word
from .reporting import Tally, VerificationReport


class CantorStep(StepFunction):
    """Exact step function on the level-k cylinder cells of the Cantor set.

    Cell i (binary word read most-significant-first, ``dyadic.word_cell``)
    has measure 2**-level and left endpoint sum of 2*j_m/4^m; the inner
    product weights are the same as for dyadic steps, so all operator
    combinatorics are shared.
    """

    __slots__ = ()

    @classmethod
    def indicator_cell(cls, word) -> "CantorStep":
        """The indicator of the cylinder cell of ``word``."""
        word = as_word(word)
        return cls.indicator(len(word), word_cell(len(word), word.code))

    def cell_left(self, cell: int) -> Fraction:
        """Left endpoint of cell ``cell`` at this level; any int is read
        modulo ``2**level`` (only its low ``level`` bits count)."""
        cell = _index(cell, "cell index", -math.inf)
        return Fraction(_cell_left_numerator(self.level, cell), 1 << (2 * self.level))

    @staticmethod
    def cell_mass(level: int) -> Fraction:
        return Fraction(1, 1 << _index(level, "level"))

    @staticmethod
    def cell_diameter(level: int) -> Fraction:
        # the carrier set spans [0, 2/3]; each contraction shrinks by 4
        return Fraction(2, 3) / 4 ** _index(level, "level")


def _cell_left_numerator(level: int, cell: int) -> int:
    """T with cell_left(cell) = T / 4**level: bit b of the cell index is the
    base-4 digit 2 at position b, so T is twice its binary digits read in
    base 4 (only the low ``level`` bits of the index count)."""
    return 2 * int(format(cell & ((1 << level) - 1), "b"), 4)


def _lowest_bit(value: int) -> int:
    """The position of the lowest set bit of an int (-1 for 0): ``value``
    is 4**j times an odd number exactly when this position is 2j."""
    return (value & -value).bit_length() - 1


# ---------------------------------------------------------------------------
# The measure transform
# ---------------------------------------------------------------------------

MU_HAT_REL_TOL = 1e-10
# arguments whose transform is kept: one depth-11 spectrum at one level, so
# that ``coefficient_table`` and ``bessel_sum`` of the same step share it
MU_HAT_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=MU_HAT_CACHE_SIZE, typed=True)
def mu_hat(lam: float) -> complex:
    """Transform of the self-similar measure via its infinite product.

    Factors are multiplied while pi*|lam|*4^-m exceeds ``MU_HAT_REL_TOL``;
    each omitted factor differs from 1 by at most its angle, and the angles
    decay geometrically, so the dropped tail contributes a relative error
    below (4/3) * pi * |lam| * 4^-M.  An argument whose pi*|lam| is not a
    finite float (NaN, an infinity, a float near the top of the range)
    raises ValueError; an int beyond float range raises OverflowError.
    The last ``MU_HAT_CACHE_SIZE`` results are kept, per argument value and
    type, so a repeated argument returns the same float; an argument must
    therefore be hashable, a scalar and not an array.
    """
    bound = math.pi * abs(lam)
    if not math.isfinite(bound):
        raise ValueError(f"mu_hat needs a finite pi * |lam|, got lam = {lam!r}")
    angle = math.pi * lam
    product = complex(1.0)
    while bound > MU_HAT_REL_TOL:
        product *= 0.5 * (1.0 + cmath.exp(1j * angle))
        # a quarter is exact while the bound stays above the tolerance, so
        # each angle and bound is the float pi * lam * 4^-m
        angle *= 0.25
        bound *= 0.25
    return product


def mu_hat_is_zero(delta: int) -> bool:
    """Exact vanishing test for integer arguments: 4^a times an odd number.

    Pure integer arithmetic: the lowest set bit of delta sits at an even
    position 2a (one product factor is then (1 + exp(i pi odd))/2 = 0
    exactly).  The test says nothing about other arguments (|mu_hat(1.5)|
    is about 0.58), so a non-integral ``delta`` raises ValueError.
    """
    if type(delta) is not int:
        if not (isinstance(delta, numbers.Real) and math.isfinite(delta)
                and delta == int(delta)):
            raise ValueError(f"mu_hat_is_zero needs an integer, got {delta!r}")
        delta = int(delta)
    return _lowest_bit(delta) % 2 == 0


# ---------------------------------------------------------------------------
# The exponential spectrum
# ---------------------------------------------------------------------------

# looked up once, not per point: lambda_set builds its 2**p points through
# LambdaPoint._trusted
_new, _set = object.__new__, object.__setattr__


@dataclass(frozen=True, order=True)
class LambdaPoint:
    """A spectrum point: nonnegative integer whose base-4 digits are 0 or 1.

    ``digits`` are its base-4 digits, lowest first, with no trailing zeros
    (``()`` for 0).  The constructor checks that ``value`` is a spectrum
    point and that ``digits`` are its digits, else ValueError;
    :meth:`from_value` computes the digits.
    """

    value: int
    digits: tuple[int, ...]

    def __post_init__(self):
        point = LambdaPoint.from_value(self.value)
        if self.digits != point.digits:
            raise ValueError(f"digits {self.digits} are not those of value {point.value}")
        _set(self, "value", point.value)
        _set(self, "digits", point.digits)

    @classmethod
    def _trusted(cls, value: int, digits: tuple[int, ...]) -> "LambdaPoint":
        """Build from a point's int value and its digits, unchecked: for
        points the library made itself, as ``MultiIndex._trusted`` is."""
        self = _new(cls)
        _set(self, "value", value)
        _set(self, "digits", digits)
        return self

    @classmethod
    def from_value(cls, value: int) -> "LambdaPoint":
        value = _index(value, "value")
        bits = f"{value:b}"[::-1] if value else ""  # lowest first
        if "1" in bits[1::2]:  # a set bit at an odd position: digit 2 or 3
            raise ValueError(f"value {value} has a base-4 digit other than 0/1")
        return cls._trusted(value, tuple(map(int, bits[::2])))


def lambda_set(p: int) -> list[LambdaPoint]:
    """All 2**p spectrum points with at most p base-4 digits, ascending."""
    p = _index(p, "p")
    # the point of mask m spreads m's bits to base 4: its lowest digit is
    # m & 1, then come the digits of the point of m >> 1
    values, digits = [0], [()]
    for mask in range(1, 1 << p):
        rest = mask >> 1
        values.append(4 * values[rest] + (mask & 1))
        digits.append((mask & 1, *digits[rest]))
    # ascending: the spread is monotone in mask
    return list(map(LambdaPoint._trusted, values, digits))


# bits 0, 2, 4, ..., 62: the lowest set bit of d lies in this mask exactly
# when d is 4^a times an odd number, i.e. when mu_hat vanishes at d
_EVEN_BITS = 0x5555_5555_5555_5555
# values of at most 62 bits keep every pairwise difference inside int64
_SCAN_LIMIT = 1 << 62


def transform_vanishes(deltas: np.ndarray) -> np.ndarray:
    """Elementwise ``mu_hat_is_zero`` on an int64 array, by the same
    lowest-set-bit rule (two's complement keeps the lowest set bit of -d
    that of d, so negatives need no abs)."""
    return (deltas & -deltas) & _EVEN_BITS != 0


def orthogonality_report(relation: str, values: Sequence[int]) -> VerificationReport:
    """Exact certificate that the exponentials at ``values`` are pairwise
    orthogonal: every difference values[j] - values[i], i < j, is a zero of
    the transform.  The witness is the first failing pair in row-major
    order; each row i is scanned at once as values[i+1:] - values[i] in int64.
    """
    if any(not -_SCAN_LIMIT < v < _SCAN_LIMIT for v in values):
        raise ValueError("values must lie strictly between -2**62 and 2**62")
    vec = np.array(values, dtype=np.int64)
    tally = Tally()
    for i in range(len(values) - 1):
        bad = ~transform_vanishes(vec[i + 1:] - vec[i])
        witness = None
        if bad.any():
            witness = f"lambda pair {(values[i], values[i + 1 + int(bad.argmax())])}"
        tally.record(witness is not None, witness, cases=len(bad))
    return tally.report(relation, 0.0)


def gram_exponentials(p: int) -> VerificationReport:
    """Exact pairwise-orthogonality certificate for the depth-p spectrum.

    Off-diagonal differences of spectrum points must all pass the integer
    vanishing test; the diagonal is the transform at zero, which is one.
    """
    return orthogonality_report(f"spectrum-orthogonality-p{p}",
                                [pt.value for pt in lambda_set(p)])


def _coefficients(lams, f: CantorStep):
    """``exp_coefficient(lam, f)`` for each lam in turn, in one pass per
    lam over the nonzero cells of ``f``, which are read once.  The
    exponentials live in L2(mu), so a step on another geometry (a dyadic
    step) raises TypeError."""
    if not isinstance(f, CantorStep):
        raise TypeError(f"a Cantor exponential pairs only with a CantorStep, "
                        f"not {type(f).__name__}")
    k = f.level
    four_k = 1 << (2 * k)
    den = f.den
    cells = [(u / den, _cell_left_numerator(k, i))
             for i, u in enumerate(f.num.tolist()) if u != 0]
    for lam in lams:
        if isinstance(lam, LambdaPoint):
            lam = lam.value
        elif type(lam) is not int and isinstance(lam, numbers.Integral):
            lam = _index(lam, "lam", -math.inf)  # a numpy int takes the exact path
        tail = mu_hat(lam * 4.0 ** (-k)).conjugate()
        total = complex(0.0)
        if isinstance(lam, int):
            factor = -2 * lam
            for weight, t in cells:
                total += weight * cmath.exp(1j * math.pi * (factor * t % (2 * four_k) / four_k))
        else:
            turn = -2j * math.pi * lam
            for weight, t in cells:
                total += weight * cmath.exp(turn * (t / four_k))
        yield total * tail / (1 << k)


def exp_coefficient(lam, f: CantorStep) -> complex:
    """Coefficient <e_lam | f> of a cylinder step against an exponential.

    Cell-wise self-similarity gives the closed form: each level-k cell
    contributes its coefficient times 2^-k exp(-2 i pi lam t_J) times the
    conjugated transform at lam * 4^-k, so the Cantor set is never sampled
    pointwise.  With t_J = T / 4^k, an integer lam's angle -2 lam t_J mod 2
    is reduced as an integer mod 2 * 4^k, then divided by 4^k once, which
    rounds correctly, as float(Fraction) does.  Any integral lam (a numpy
    int too, read by ``dyadic._index``) takes this exact path; a bool raises
    TypeError, and other reals take the float path.
    """
    return next(_coefficients((lam,), f))


def bessel_sum(f: CantorStep, p: int) -> float:
    """Sum of squared spectrum coefficients over the depth-p spectrum."""
    return sum(abs(c) ** 2 for c in _coefficients(lambda_set(p), f))


def coefficient_table(f: CantorStep, p: int) -> list[dict]:
    """JSON-ready spectrum coefficient rows: {"lambda", "re", "im"}."""
    points = lambda_set(p)
    return [{"lambda": pt.value, "re": c.real, "im": c.imag}
            for pt, c in zip(points, _coefficients(points, f))]


# ---------------------------------------------------------------------------
# Word-level identities
# ---------------------------------------------------------------------------

def indicator_relation_check(word) -> VerificationReport:
    """Check the cylinder-cell indicator expansion

        chi_cell(J) = 2^-|J| sum_{|K| = |J|} (-1)^(J.K) S_K chi

    exactly (J.K is the digit dot product).  The normalizing constant is
    2^-|J|: the |J| = 1 cases force it, since the two one-letter operator
    images sum to twice the first-cell indicator.
    """
    word = as_word(word)
    k, j_code = len(word.digits), word.code
    expected = CantorStep.indicator_cell(word)
    one = CantorStep.ones()
    total = np.zeros(1 << k, dtype=np.int64)
    for code in range(1 << k):
        term = s_word(k, code, one)
        # every term is +-1 valued at level k: sum the numerators; J.K is
        # the parity of the letters the two codes share
        if bin(code & j_code).count("1") % 2:
            total -= term.num
        else:
            total += term.num
    gap = (CantorStep._reduced(k, total, 1 << k) - expected).norm_sq()
    tally = Tally()
    tally.record(float(gap) ** 0.5, f"word {word.digits}", cases=1 << k)
    return tally.report(f"cell-indicator-expansion-{word or 'root'}", 0.0)


def verify_lambda_partition(p: int) -> VerificationReport:
    """Check that the nonzero depth-p spectrum splits exactly into the
    geometric orbits {m * 4^j} of its odd elements (each point hit once)."""
    p = _index(p, "p", 1)
    values = {pt.value for pt in lambda_set(p)}
    target = values - {0}
    seen: dict[int, int] = {}
    duplicates = []
    for m in sorted(target):
        if m % 2 == 0:
            continue
        point = m
        while point < 4 ** p:
            if point in seen:
                duplicates.append(point)
            seen[point] = m
            point *= 4
    missing = sorted(target - set(seen))
    extra = sorted(set(seen) - target)
    tally = Tally()
    tally.record(bool(duplicates or missing or extra),
                 f"duplicated={duplicates[:3]} missing={missing[:3]} extra={extra[:3]}",
                 cases=len(target))
    return tally.report(f"spectrum-odd-orbit-partition-p{p}", 0.0)
