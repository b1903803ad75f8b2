"""The pair of subdivision isometries, their adjoints, and relation checks.

On step functions the two operators are pure coefficient combinatorics on
the integer numerators over one denominator:

    S0: (a_0..a_m) -> (a_0..a_m, a_0..a_m)          one level deeper
    S1: (a_0..a_m) -> (a_0..a_m, -a_0..-a_m)

and the adjoints average/difference the two halves one level up (the
denominator doubles, then the pair is brought to lowest terms).  The same
rules drive the general case of N branches, where the k-th branch block is
twisted by the unit root exp(2i pi jk / N); that carrier uses complex floats
because the roots are irrational for N not in {1, 2, 4}.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Sequence, Union

import numpy as np

from .dyadic import StepFunction, as_word
from .reporting import Tally, VerificationReport
from .trig import HybridFunction, average_halves, compose_doubling

Vector = Union[StepFunction, HybridFunction]


# row m, entry t is (-1)**popcount(t & m) for 8-bit m and t: the sign rows
# of all words of up to 8 letters (a Sylvester Hadamard matrix)
_SIGN_ROWS = np.ones((1, 1), dtype=np.int8)
for _ in range(8):
    _SIGN_ROWS = np.block([[_SIGN_ROWS, _SIGN_ROWS], [_SIGN_ROWS, -_SIGN_ROWS]])
_SIGN_ROWS.setflags(write=False)


def word_signs(length: int, code: int) -> np.ndarray:
    """The +-1 row of the binary word (length, code) on the constant 1.

    Entry t is (-1)**popcount(t & m), where m holds the word's letters with
    the first letter as the top bit (``code`` has it as the lowest bit): the
    top bit of a cell index says which branch the outermost operator put it
    in.  The parity splits over 8-bit chunks of t and m, so the row is the
    Kronecker product of rows of the 8-bit table (read-only).
    """
    mask = int(f"{code:0{length}b}"[::-1], 2)
    row = _SIGN_ROWS[mask & 0xFF, :1 << min(length, 8)]
    for low in range(8, length, 8):
        high = _SIGN_ROWS[mask >> low & 0xFF, :1 << min(length - low, 8)]
        row = np.multiply.outer(high, row).ravel()
    return row


def s_word(length: int, code: int, f: StepFunction) -> StepFunction:
    """S_J f for the binary word J = (length, code), exact, at level + length.

    A word acts on a step as one Kronecker product: cell ``t * 2**level + i``
    of the result is ``word_signs(J)[t] * f[i]``.  This is the letter-by-letter
    chain of :func:`s_apply` in one outer product, with the same ``den`` and
    numerator dtype (the int8 signs widen to int64, or become Python ints
    against ``object`` numerators).
    """
    num = np.multiply.outer(word_signs(length, code), f.num).ravel()
    return f._trusted(f.level + length, num, f.den)


def s_apply(j: int, f: StepFunction) -> StepFunction:
    """Apply isometry j in {0,1} to a step function (exact, level + 1)."""
    if j not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    num = f.num
    return f._trusted(f.level + 1, np.concatenate((num, num if j == 0 else -num)), f.den)


def s_adjoint(j: int, f: StepFunction) -> StepFunction:
    """Apply the adjoint of isometry j (exact, level - 1)."""
    if j not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    if f.level == 0:
        return f if j == 0 else f._trusted(0, np.zeros(1, dtype=np.int64), 1)
    half = len(f.num) // 2
    lo, hi = f.num[:half], f.num[half:]
    return f._reduced(f.level - 1, lo + hi if j == 0 else lo - hi, 2 * f.den)


def s_apply_hybrid(j: int, f: HybridFunction) -> HybridFunction:
    if j not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    return compose_doubling(f, 1 if j == 0 else -1)


def s_adjoint_hybrid(j: int, f: HybridFunction) -> HybridFunction:
    if j not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    return average_halves(f, 1 if j == 0 else -1)


class IntervalRep2:
    """The fixed two-branch representation on [0,1): halving maps tau_0, tau_1
    and the doubling map, acting exactly on steps and symbolically on hybrids.

    The same coefficient rules serve every carrier indexed by binary words,
    so step subclasses (e.g. Cantor cylinder steps) work unchanged.  A
    representation only acts; each carrier measures itself (``inner``,
    ``norm_sq``).
    """

    N = 2

    def apply(self, j: int, f: Vector) -> Vector:
        if isinstance(f, HybridFunction):
            return s_apply_hybrid(j, f)
        return s_apply(j, f)

    def adjoint(self, j: int, f: Vector) -> Vector:
        if isinstance(f, HybridFunction):
            return s_adjoint_hybrid(j, f)
        return s_adjoint(j, f)


INTERVAL_REP = IntervalRep2()


def apply_word(word, f: Vector) -> Vector:
    """S_{j1} S_{j2} ... S_{jk} f: the rightmost letter acts first.

    A word on a step is one :func:`s_word` product; a hybrid takes it one
    letter at a time.
    """
    word = as_word(word)
    if isinstance(f, StepFunction):
        return s_word(len(word.digits), word.code, f)
    for j in reversed(word.digits):
        f = s_apply_hybrid(j, f)
    return f


def adjoint_word(word, f: Vector) -> Vector:
    """(S_{j1} ... S_{jk})* f = S_{jk}* ... S_{j1}* f."""
    for j in as_word(word).digits:
        f = INTERVAL_REP.adjoint(j, f)
    return f


# ---------------------------------------------------------------------------
# General number of branches (complex float carrier)
# ---------------------------------------------------------------------------

class NAdicStep:
    """Step function on the N^level cells of the base-N coding, complex coeffs."""

    __slots__ = ("base", "level", "coeffs")

    def __init__(self, base: int, level: int, coeffs):
        if base < 2:
            raise ValueError("base must be at least 2")
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (base ** level,):
            raise ValueError(f"expected {base ** level} coefficients")
        self.base = base
        self.level = level
        self.coeffs = coeffs

    def refine(self, target_level: int) -> "NAdicStep":
        if target_level < self.level:
            raise ValueError("refine cannot reduce the level (lossy)")
        reps = self.base ** (target_level - self.level)
        return NAdicStep(self.base, target_level, np.repeat(self.coeffs, reps))

    def inner(self, other: "NAdicStep") -> complex:
        if other.base != self.base:
            raise ValueError("base mismatch")
        k = max(self.level, other.level)
        a = self.refine(k).coeffs
        b = other.refine(k).coeffs
        return complex(np.vdot(a, b) / self.base ** k)

    def norm_sq(self) -> float:
        return float(self.inner(self).real)

    def __sub__(self, other: "NAdicStep") -> "NAdicStep":
        k = max(self.level, other.level)
        return NAdicStep(self.base, k, self.refine(k).coeffs - other.refine(k).coeffs)

    def __add__(self, other: "NAdicStep") -> "NAdicStep":
        k = max(self.level, other.level)
        return NAdicStep(self.base, k, self.refine(k).coeffs + other.refine(k).coeffs)


class GeneralRepN:
    """N-branch representation: branch block k of S_j f is exp(2i pi jk/N) f."""

    _QUARTER_TURNS = {0: 1.0 + 0.0j, 1: 1.0j, 2: -1.0 + 0.0j, 3: -1.0j}

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least two branches")
        self.N = n
        # quarter-turn roots are exact units; keep them exact so the N = 2
        # and N = 4 representations carry no float noise of their own
        roots = []
        for k in range(n):
            quarter, rem = divmod(4 * k, n)
            if rem == 0:
                roots.append(self._QUARTER_TURNS[quarter % 4])
            else:
                roots.append(cmath.exp(2j * cmath.pi * k / n))
        self._roots = np.array(roots, dtype=np.complex128)

    def filter_value(self, j: int, x: float) -> complex:
        """m_j at the point x in [0,1): the unit root of x's branch cell."""
        branch = int(self.N * x)
        if not 0 <= branch < self.N:
            raise ValueError("x must lie in [0, 1)")
        return complex(self._roots[(j * branch) % self.N])

    def apply(self, j: int, f: NAdicStep) -> NAdicStep:
        blocks = [self._roots[(j * k) % self.N] * f.coeffs for k in range(self.N)]
        return NAdicStep(self.N, f.level + 1, np.concatenate(blocks))

    def adjoint(self, j: int, f: NAdicStep) -> NAdicStep:
        if f.level == 0:
            value = f.coeffs[0] if j == 0 else 0.0
            return NAdicStep(self.N, 0, [value])
        blocks = f.coeffs.reshape(self.N, -1)
        phases = np.conj(self._roots[(j * np.arange(self.N)) % self.N])
        return NAdicStep(self.N, f.level - 1, phases @ blocks / self.N)

    def random_step(self, level: int, rng) -> NAdicStep:
        shape = self.N ** level
        return NAdicStep(self.N, level,
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# Relation checks
# ---------------------------------------------------------------------------

def _norm(f) -> float:
    return float(max(f.norm_sq(), 0.0)) ** 0.5


def verify_cuntz(rep, test_vectors: Iterable, tol: float = 0.0) -> VerificationReport:
    """Check S_j* S_k = delta_jk and sum_k S_k S_k* = identity on test vectors.

    The vectors may be any carrier the rep acts on; each measures its own
    residual (``norm_sq`` of ``S_j* S_k f - f`` or of ``S_j* S_k f``).  Exact
    carriers may pass ``tol=0.0``; a failure is reported (with a witness),
    never raised.
    """
    tally = Tally()
    n = rep.N
    for idx, f in enumerate(test_vectors):
        for k in range(n):
            sk = rep.apply(k, f)
            for j in range(n):
                got = rep.adjoint(j, sk)
                tally.record(_norm(got - f) if j == k else _norm(got),
                             f"S_{j}* S_{k} on vector {idx}")
        total = None
        for k in range(n):
            piece = rep.apply(k, rep.adjoint(k, f))
            total = piece if total is None else total + piece
        tally.record(_norm(total - f), f"sum_k S_k S_k* on vector {idx}")
    return tally.report("cuntz-relations", tol)


def verify_unitary_matrix(n: int, x_samples: Sequence[float], tol: float = 1e-12) -> VerificationReport:
    """Check that the branch filter matrix U(x) is unitary at each sample.

    U(x)[j,k] = m_j(tau_k(x)) / sqrt(N); unitarity is tested as
    M M^H = N * I with the unscaled matrix M, which keeps the N = 2 and
    N = 4 cases exact in floating point (entries are exact units).
    """
    rep = GeneralRepN(n)
    tally = Tally()
    for x in x_samples:
        m = np.empty((n, n), dtype=np.complex128)
        for k in range(n):
            y = (x + k) / n
            for j in range(n):
                m[j, k] = rep.filter_value(j, y)
        tally.record(float(np.abs(m @ m.conj().T - n * np.eye(n)).max()) / n, f"x = {x}")
    return tally.report(f"unitary-filter-matrix-N{n}", tol)
