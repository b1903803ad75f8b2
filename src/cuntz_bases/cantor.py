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
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dyadic import StepFunction, as_rational, as_word
from .operators import s_adjoint, s_apply
from .reporting import VerificationReport


class CantorStep(StepFunction):
    """Exact step function on the level-k cylinder cells of the Cantor set.

    Cell i (binary word read most-significant-first) has measure 2**-level
    and left endpoint sum of 2*j_m/4^m; the inner product weights are the
    same as for dyadic steps, so all operator combinatorics are shared.
    """

    __slots__ = ()

    @classmethod
    def ones(cls) -> "CantorStep":
        return cls(0, [1])

    @classmethod
    def indicator_cell(cls, word) -> "CantorStep":
        word = as_word(word)
        level = len(word.digits)
        index = 0
        for d in word.digits:
            index = (index << 1) | d
        return cls(level, [1 if i == index else 0 for i in range(1 << level)])

    def cell_left(self, cell: int) -> Fraction:
        """Left endpoint of cell ``cell`` at this level."""
        t = Fraction(0)
        for m in range(self.level):
            bit = (cell >> (self.level - 1 - m)) & 1
            t += Fraction(2 * bit, 4 ** (m + 1))
        return t

    @staticmethod
    def cell_mass(level: int) -> Fraction:
        return Fraction(1, 1 << level)

    @staticmethod
    def cell_diameter(level: int) -> Fraction:
        # the carrier set spans [0, 2/3]; each contraction shrinks by 4
        return Fraction(2, 3) / 4 ** level

    def to_json(self) -> dict:
        from .dyadic import rational_str
        return {"level": self.level, "coeffs": [rational_str(c) for c in self.coeffs]}


def cantor_s_apply(j: int, f: CantorStep) -> CantorStep:
    """Isometry j on cylinder steps (same coefficient rule as the interval)."""
    return s_apply(j, f)


def cantor_s_adjoint(j: int, f: CantorStep) -> CantorStep:
    return s_adjoint(j, f)


# ---------------------------------------------------------------------------
# The measure transform
# ---------------------------------------------------------------------------

def mu_hat(lam: float, rel_tol: float = 1e-10) -> complex:
    """Transform of the self-similar measure via its infinite product.

    Factors are multiplied while pi*|lam|*4^-m exceeds ``rel_tol``; each
    omitted factor differs from 1 by at most its angle, and the angles decay
    geometrically, so the dropped tail contributes a relative error below
    (4/3) * pi * |lam| * 4^-M.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    product = complex(1.0)
    m = 0
    while math.pi * abs(lam) * 4.0 ** (-m) > rel_tol:
        product *= 0.5 * (1.0 + cmath.exp(1j * math.pi * lam * 4.0 ** (-m)))
        m += 1
    return product


def mu_hat_is_zero(delta: int) -> bool:
    """Exact vanishing test for integer arguments: 4^a times an odd number.

    Pure integer arithmetic: strip factors of 4, check the remainder is odd
    (one product factor is then (1 + exp(i pi odd))/2 = 0 exactly).  The
    test says nothing about other arguments (|mu_hat(1.5)| is about 0.58),
    so a non-integral ``delta`` raises ValueError.
    """
    if type(delta) is not int:
        if not (isinstance(delta, numbers.Real) and math.isfinite(delta)
                and delta == int(delta)):
            raise ValueError(f"mu_hat_is_zero needs an integer, got {delta!r}")
        delta = int(delta)
    delta = abs(delta)
    if delta == 0:
        return False
    while delta % 4 == 0:
        delta //= 4
    return delta % 2 == 1


# ---------------------------------------------------------------------------
# The exponential spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class LambdaPoint:
    """A spectrum point: nonnegative integer whose base-4 digits are 0 or 1."""

    value: int
    digits: tuple[int, ...]

    @classmethod
    def from_digits(cls, digits: Sequence[int]) -> "LambdaPoint":
        if any(d not in (0, 1) for d in digits):
            raise ValueError("digits must be 0 or 1")
        value = sum(d << (2 * i) for i, d in enumerate(digits))
        return cls(value, tuple(digits))

    @classmethod
    def from_value(cls, value: int) -> "LambdaPoint":
        if value < 0:
            raise ValueError("value must be nonnegative")
        digits = []
        rest = value
        while rest:
            rest, d = divmod(rest, 4)
            if d not in (0, 1):
                raise ValueError(f"{value} has a base-4 digit other than 0/1")
            digits.append(d)
        return cls(value, tuple(digits))


def lambda_set(p: int) -> list[LambdaPoint]:
    """All 2**p spectrum points with at most p base-4 digits, ascending."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    points = []
    for mask in range(1 << p):
        digits = tuple((mask >> i) & 1 for i in range(p))
        points.append(LambdaPoint.from_digits(digits))
    return points  # ascending already: the digit map is monotone in mask


def gram_exponentials(p: int, threads: int = 1) -> VerificationReport:
    """Exact pairwise-orthogonality certificate for the depth-p spectrum.

    Off-diagonal differences of spectrum points must all pass the integer
    vanishing test; the diagonal is the transform at zero, which is one.
    """
    values = [pt.value for pt in lambda_set(p)]
    pairs = [(a, b) for i, a in enumerate(values) for b in values[i + 1:]]

    def scan(chunk):
        return [(a, b) for a, b in chunk if not mu_hat_is_zero(b - a)]

    if threads > 1 and len(pairs) > 1024:
        size = (len(pairs) + threads - 1) // threads
        chunks = [pairs[i:i + size] for i in range(0, len(pairs), size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = [f for part in pool.map(scan, chunks) for f in part]
    else:
        failures = scan(pairs)
    passed = not failures
    witness = None if passed else f"lambda pair {failures[0]}"
    return VerificationReport(f"spectrum-orthogonality-p{p}", passed,
                              0.0 if passed else 1.0, 0.0, witness, len(pairs))


def exp_coefficient(lam, f: CantorStep, rel_tol: float = 1e-10) -> complex:
    """Coefficient <e_lam | f> of a cylinder step against an exponential.

    Cell-wise self-similarity gives the closed form: each level-k cell
    contributes its coefficient times 2^-k exp(-2 i pi lam t_J) times the
    conjugated transform at lam * 4^-k, so the Cantor set is never sampled
    pointwise.
    """
    if isinstance(lam, LambdaPoint):
        lam = lam.value
    k = f.level
    tail = mu_hat(lam * 4.0 ** (-k), rel_tol).conjugate()
    total = complex(0.0)
    exact_lam = as_rational(lam) if isinstance(lam, int) else lam
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        t = f.cell_left(i)
        if isinstance(exact_lam, int):
            angle = Fraction(-2 * exact_lam) * t % 2
            phase = cmath.exp(1j * math.pi * float(angle))
        else:
            phase = cmath.exp(-2j * math.pi * lam * float(t))
        total += float(c) * phase
    return total * tail / (1 << k)


def bessel_sum(f: CantorStep, p: int, rel_tol: float = 1e-10) -> float:
    """Sum of squared spectrum coefficients over the depth-p spectrum."""
    return sum(abs(exp_coefficient(pt, f, rel_tol)) ** 2 for pt in lambda_set(p))


def coefficient_table(f: CantorStep, p: int, rel_tol: float = 1e-10) -> list[dict]:
    """JSON-ready spectrum coefficient rows: {"lambda", "re", "im"}."""
    rows = []
    for pt in lambda_set(p):
        c = exp_coefficient(pt, f, rel_tol)
        rows.append({"lambda": pt.value, "re": c.real, "im": c.imag})
    return rows


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
    k = len(word.digits)
    expected = CantorStep.indicator_cell(word)
    total = None
    for mask in range(1 << k):
        digits = tuple((mask >> (k - 1 - m)) & 1 for m in range(k))
        dot = sum(a * b for a, b in zip(word.digits, digits))
        term = CantorStep.ones()
        for d in reversed(digits):
            term = s_apply(d, term)
        if dot % 2:
            term = -term
        total = term if total is None else total + term
    total = total.scale(Fraction(1, 1 << k))
    gap = (total - expected).norm_sq()
    passed = gap == 0
    return VerificationReport(f"cell-indicator-expansion-{word or 'root'}", passed,
                              float(gap) ** 0.5, 0.0,
                              None if passed else f"word {word.digits}", 1 << k)


def verify_lambda_partition(p: int) -> VerificationReport:
    """Check that the nonzero depth-p spectrum splits exactly into the
    geometric orbits {m * 4^j} of its odd elements (each point hit once)."""
    if p < 1:
        raise ValueError("p must be at least one")
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
    passed = not duplicates and not missing and not extra
    witness = None
    if not passed:
        witness = f"duplicated={duplicates[:3]} missing={missing[:3]} extra={extra[:3]}"
    return VerificationReport(f"spectrum-odd-orbit-partition-p{p}", passed,
                              0.0 if passed else 1.0, 0.0, witness, len(target))
