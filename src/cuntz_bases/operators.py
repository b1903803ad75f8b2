"""The pair of subdivision isometries, their adjoints, and relation checks.

On step functions the two operators are pure coefficient combinatorics on
the integer numerators over one denominator:

    S0: (a_0..a_m) -> (a_0..a_m, a_0..a_m)          one level deeper
    S1: (a_0..a_m) -> (a_0..a_m, -a_0..-a_m)

and the adjoints average/difference the two halves one level up (the
denominator doubles, then the pair is brought to lowest terms).  The same
two functions act on trig hybrids atom by atom.  The same rules drive the
general case of N branches, where the k-th branch block is twisted by the
unit root exp(2i pi jk / N); that carrier uses complex floats because the
roots are irrational for N not in {1, 2, 4}.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from .dyadic import StepFunction, _index, _tol, as_word, word_cell
from .reporting import Tally, VerificationReport

if TYPE_CHECKING:
    from .trig import HybridFunction

# trig loads only when a hybrid is acted on
Vector = Union[StepFunction, "HybridFunction"]


# row m, entry t is (-1)**popcount(t & m) for 8-bit m and t: the sign rows
# of all words of up to 8 letters (a Sylvester Hadamard matrix)
_SIGN_ROWS = np.ones((1, 1), dtype=np.int8)
for _ in range(8):
    _SIGN_ROWS = np.block([[_SIGN_ROWS, _SIGN_ROWS], [_SIGN_ROWS, -_SIGN_ROWS]])
_SIGN_ROWS.setflags(write=False)


def word_signs(length: int, code: int) -> np.ndarray:
    """The +-1 row of the binary word (length, code) on the constant 1.

    Entry t is (-1)**popcount(t & m), where m is the word's cell
    (``dyadic.word_cell``: the first letter is its top bit, the branch the
    outermost operator put the cell in).  The parity splits over 8-bit
    chunks of t and m, so the row is the Kronecker product of rows of the
    8-bit table (read-only).  With ``length == code.bit_length()`` it is the
    row of ``basis.walsh(code)``.
    """
    mask = word_cell(length, code)
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


def s_apply(j: int, f: Vector) -> Vector:
    """Apply isometry j in {0,1} to a step (exact, level + 1) or a hybrid.

    A step doubles its numerators, the second half negated for S_1; a hybrid
    is composed with the doubling map, its second branch times -1 for S_1
    (:func:`trig.compose_doubling`).  Step subclasses keep their class.
    """
    j = _index(j, "branch index", 0, 1)
    if isinstance(f, StepFunction):
        num = f.num
        return f._trusted(f.level + 1, np.concatenate((num, num if j == 0 else -num)), f.den)
    from .trig import compose_doubling
    return compose_doubling(f, 1 if j == 0 else -1)


def s_adjoint(j: int, f: Vector) -> Vector:
    """Apply the adjoint of isometry j to a step (exact, level - 1) or a hybrid.

    A step sums (S_0*) or differences (S_1*) its two halves over twice the
    denominator; a hybrid averages its two halves the same way
    (:func:`trig.average_halves`).
    """
    j = _index(j, "branch index", 0, 1)
    if isinstance(f, StepFunction):
        if f.level == 0:
            return f if j == 0 else f.zero()
        half = len(f.num) // 2
        lo, hi = f.num[:half], f.num[half:]
        return f._reduced(f.level - 1, lo + hi if j == 0 else lo - hi, 2 * f.den)
    from .trig import average_halves
    return average_halves(f, 1 if j == 0 else -1)


class IntervalRep2:
    """The two-branch representation on [0,1) as an object for
    :func:`verify_cuntz` (and for test doubles that subclass it): ``apply``
    and ``adjoint`` are :func:`s_apply` and :func:`s_adjoint`.  A
    representation only acts; each carrier measures itself (``inner``,
    ``norm_sq``).
    """

    N = 2

    def apply(self, j: int, f: Vector) -> Vector:
        return s_apply(j, f)

    def adjoint(self, j: int, f: Vector) -> Vector:
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
        f = s_apply(j, f)
    return f


def adjoint_word(word, f: Vector) -> Vector:
    """(S_{j1} ... S_{jk})* f = S_{jk}* ... S_{j1}* f."""
    for j in as_word(word).digits:
        f = s_adjoint(j, f)
    return f


# ---------------------------------------------------------------------------
# General number of branches (complex float carrier)
# ---------------------------------------------------------------------------

class NAdicStep:
    """Step function on the N^level cells of the base-N coding, complex coeffs."""

    __slots__ = ("base", "level", "coeffs")

    def __init__(self, base: int, level: int, coeffs):
        base = _index(base, "base", 2)
        level = _index(level, "level")
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (base ** level,):
            raise ValueError(f"expected {base ** level} coefficients")
        self.base = base
        self.level = level
        self.coeffs = coeffs

    def refine(self, target_level: int) -> "NAdicStep":
        target_level = _index(target_level, "target_level", self.level)
        reps = self.base ** (target_level - self.level)
        return NAdicStep(self.base, target_level, np.repeat(self.coeffs, reps))

    def _aligned(self, other: "NAdicStep") -> tuple[int, np.ndarray, np.ndarray]:
        """The common level k and both coefficient vectors at level k; a
        step of another base raises ValueError."""
        if other.base != self.base:
            raise ValueError("base mismatch")
        k = max(self.level, other.level)
        return k, self.refine(k).coeffs, other.refine(k).coeffs

    def inner(self, other: "NAdicStep") -> complex:
        k, a, b = self._aligned(other)
        return complex(np.vdot(a, b) / self.base ** k)

    def norm_sq(self) -> float:
        return float(self.inner(self).real)

    def __sub__(self, other: "NAdicStep") -> "NAdicStep":
        k, a, b = self._aligned(other)
        return NAdicStep(self.base, k, a - b)

    def __add__(self, other: "NAdicStep") -> "NAdicStep":
        k, a, b = self._aligned(other)
        return NAdicStep(self.base, k, a + b)


class GeneralRepN:
    """N-branch representation: branch block k of S_j f is exp(2i pi jk/N) f."""

    _QUARTER_TURNS = {0: 1.0 + 0.0j, 1: 1.0j, 2: -1.0 + 0.0j, 3: -1.0j}

    def __init__(self, n: int):
        n = _index(n, "n", 2)
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
        j = _index(j, "branch index", 0, self.N - 1)
        branch = int(self.N * x)
        if not 0 <= branch < self.N:
            raise ValueError("x must lie in [0, 1)")
        return complex(self._roots[(j * branch) % self.N])

    def apply(self, j: int, f: NAdicStep) -> NAdicStep:
        j = _index(j, "branch index", 0, self.N - 1)
        blocks = [self._roots[(j * k) % self.N] * f.coeffs for k in range(self.N)]
        return NAdicStep(self.N, f.level + 1, np.concatenate(blocks))

    def adjoint(self, j: int, f: NAdicStep) -> NAdicStep:
        j = _index(j, "branch index", 0, self.N - 1)
        if f.level == 0:
            value = f.coeffs[0] if j == 0 else 0.0
            return NAdicStep(self.N, 0, [value])
        blocks = f.coeffs.reshape(self.N, -1)
        phases = np.conj(self._roots[(j * np.arange(self.N)) % self.N])
        return NAdicStep(self.N, f.level - 1, phases @ blocks / self.N)

    def random_step(self, level: int, rng) -> NAdicStep:
        level = _index(level, "level")
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
    tol = _tol(tol)
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
    n = rep.N  # the int that GeneralRepN read
    tol = _tol(tol)
    tally = Tally()
    for x in x_samples:
        m = np.empty((n, n), dtype=np.complex128)
        for k in range(n):
            y = (x + k) / n
            for j in range(n):
                m[j, k] = rep.filter_value(j, y)
        tally.record(float(np.abs(m @ m.conj().T - n * np.eye(n)).max()) / n, f"x = {x}")
    return tally.report(f"unitary-filter-matrix-N{n}", tol)
