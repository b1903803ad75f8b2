"""Recursive basis generation and decomposition on the unit interval.

The square-wave family is generated by the pair of subdivision isometries
from the constant function: even indices duplicate, odd indices duplicate
with a sign flip.  On top of it sit the word-level tools: a greedy cover
that factors every binary word as (weight <= 1 prefix) * (generator), the
search for the first non-orthogonal operator word of a seed function, and
depth-bounded orthonormal frames grown from a seed.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .dyadic import (
    _WIDE,
    DyadicStep,
    MultiIndex,
    Scalar,
    _index,
    _peak,
    _ratio,
    as_word,
    lift,
    word_keys,
)
from . import operators
from .operators import apply_word, s_adjoint, s_word
from .reporting import Tally, VerificationReport


def walsh(n: int) -> DyadicStep:
    """n-th square-wave basis step: the word ``walsh_word(n)`` on the
    constant function, an int64 step over 1 at level ``n.bit_length()``
    whose cells are the word's sign row (``operators.word_signs``, looked
    up at call time), values +-1."""
    n = _index(n, "n")
    level = n.bit_length()
    return DyadicStep._trusted(level, operators.word_signs(level, n).astype(np.int64), 1)


def walsh_word(n: int) -> MultiIndex:
    """The operator word that produces walsh(n) from the constant function:
    the bits of n, lowest first."""
    n = _index(n, "n")
    return MultiIndex._from_code(n.bit_length(), n)


# ---------------------------------------------------------------------------
# Exact transform: one lifted integer butterfly (cross-checked against the
# Gram definition in the test suite)
# ---------------------------------------------------------------------------

def butterfly(num: np.ndarray, stages: int) -> np.ndarray:
    """``stages`` unnormalized butterfly stages on integer numerators.

    ``rows`` has shape ``(2**stages, len(num) >> stages)``.  Stage s splits
    every row into its halves (lo, hi) and puts lo + hi at row r, lo - hi
    at row r + 2**s, so row ``code`` holds 2**stages times the numerators
    of S_J* f for the word J with that code (first letter = least
    significant bit).  After all stages row n is 2**level times the
    numerator of <walsh(n) | f>; the transform matrix is symmetric, so the
    same stages also synthesize.  The arithmetic is int64 while every
    partial sum stays below 2**62, numpy ``object`` (exact Python ints)
    otherwise.

    Each stage writes into one of two buffers of ``len(num)`` entries,
    allocated once, in turn; the result is a view of one of them (of ``num``
    itself when ``stages`` is 0), and ``num``, which may be read-only, is
    never written.
    """
    if num.dtype != object and _peak(num) << stages >= _WIDE:
        num = num.astype(object)
    rows = num.reshape(1, -1)
    buffers = [np.empty_like(num) for _ in range(min(stages, 2))]
    for stage in range(stages):
        count, half = rows.shape[0], rows.shape[1] // 2
        out = buffers[stage & 1].reshape(2 * count, half)
        lo, hi = rows[:, :half], rows[:, half:]
        np.add(lo, hi, out=out[:count])
        np.subtract(lo, hi, out=out[count:])
        rows = out
    return rows


def walsh_expand(f: DyadicStep, level: Optional[int] = None) -> list[Scalar]:
    """Exact coefficients of f against the square-wave system.

    ``coeffs[n]`` is the inner product with walsh(n); by orthonormality the
    expansion is exact and satisfies Parseval with equality.  ``level``
    (default: the minimal level of f) sets the table size 2**level.
    """
    f = f.normalize()
    if level is not None:
        f = f.refine(level)
    rows = butterfly(f.num, f.level)
    den = f.den << f.level
    return [_ratio(u, den) for u in rows.ravel().tolist()]


def walsh_synthesize(coeffs: Sequence) -> DyadicStep:
    """Inverse of :func:`walsh_expand`; input length must be a power of two."""
    if len(coeffs) & (len(coeffs) - 1) or not len(coeffs):
        raise ValueError("coefficient table length must be a power of two")
    level = (len(coeffs) - 1).bit_length()
    num, den = lift(coeffs)
    return DyadicStep._reduced(level, butterfly(num, level).ravel(), den)


def ingest_signal(samples: Sequence, level: int) -> DyadicStep:
    """Turn 2**level samples into an exact step, one sample per cell.

    Decimal strings and floats (numpy's too) are rationalized from their
    decimal notation verbatim ("0.1" becomes 1/10, never the binary float),
    numpy integers are read with ``operator.index``, and the rest goes to
    :func:`~cuntz_bases.dyadic.lift` as it is.  A malformed string raises
    :class:`~cuntz_bases.dyadic.SampleError`.
    """
    level = _index(level, "level")
    if len(samples) != 1 << level:
        raise ValueError(f"expected {1 << level} samples, got {len(samples)}")
    num, den = lift([repr(float(s)) if isinstance(s, float)
                     else operator.index(s) if isinstance(s, np.integer) else s
                     for s in samples])
    return DyadicStep._trusted(level, num, den)


# ---------------------------------------------------------------------------
# Greedy generator cover
# ---------------------------------------------------------------------------

class CoverCollisionError(ValueError):
    """A word received two factorizations; the orthogonal cover is broken."""


@dataclass(frozen=True)
class GeneratorCover:
    """Factorization of every binary word (up to a length bound) as K * J
    with K of weight <= 1 and J one of the chosen generator words.

    ``coverage`` maps each covered word's ``(length, code)`` pair to its
    factors ``(K, J)``; ``factor`` and ``words`` read and decode these pairs.
    """

    max_word_len: int
    generators: tuple[MultiIndex, ...]
    coverage: dict[tuple[int, int], tuple[MultiIndex, MultiIndex]] = field(hash=False)

    def factor(self, word) -> tuple[MultiIndex, MultiIndex]:
        return self.coverage[as_word(word).sort_key]

    def words(self) -> Iterable[MultiIndex]:
        return (MultiIndex._from_code(length, code) for length, code in self.coverage)

    def generator_basis_index(self, gen: MultiIndex) -> int:
        """Index n of the basis step produced by applying the generator word
        to the first seed (the word with a single trailing flip appended)."""
        return gen.code + (1 << len(gen))


def greedy_generators(max_word_len: int) -> GeneratorCover:
    """Scan words in (length, code) order, promoting uncovered words to
    generators and marking every weight <= 1 left-extension as covered.

    Raises :class:`CoverCollisionError` if any word would be covered twice;
    that this never happens is exactly the index-level orthogonality of the
    resulting subspace decomposition.
    """
    max_word_len = _index(max_word_len, "max_word_len")
    # the words of weight <= 1, as (length, code, word), in (length, code) order
    prefixes = [(length, code, MultiIndex._from_code(length, code))
                for length in range(max_word_len + 1)
                for code in [0] + [1 << pos for pos in range(length)]]
    coverage: dict[tuple[int, int], tuple[MultiIndex, MultiIndex]] = {}
    generators: list[MultiIndex] = []
    for length, code in word_keys(max_word_len):
        if (length, code) in coverage:
            continue
        u = MultiIndex._from_code(length, code)
        generators.append(u)
        for k_len, k_code, k in prefixes:
            if k_len + length > max_word_len:
                break
            key = (k_len + length, k_code | code << k_len)
            if key in coverage:
                w = MultiIndex._from_code(*key).digits
                raise CoverCollisionError(
                    f"word {w} covered by both {coverage[key]} and ({k}, {u})")
            coverage[key] = (k, u)
    return GeneratorCover(max_word_len, tuple(generators), coverage)


# ---------------------------------------------------------------------------
# Seed analysis: first non-orthogonal word, frames, orthogonality
# ---------------------------------------------------------------------------

def compute_K(psi, max_depth: int = 6, tol: float = 0.0) -> Optional[MultiIndex]:
    """First word K (in (length, code) order) at which the family S_J psi
    stops being orthogonal: some earlier J has <S_J psi | S_K psi> != 0
    while all pairs strictly before K vanish.

    Returns None when no such word exists up to ``max_depth`` (the seed then
    generates an orthogonal family as far as the scan can see).  The seed
    must satisfy S_0* psi = 0; violations raise ValueError.  ``tol = 0``
    demands exact zeros (appropriate for step seeds).
    """
    norm_sq = abs(float(psi.norm_sq()))
    if norm_sq == 0.0:
        raise ValueError("seed must be nonzero")
    threshold = tol * norm_sq if tol > 0 else 0.0
    kernel_gap = abs(float(s_adjoint(0, psi).norm_sq()))
    if kernel_gap > threshold:
        raise ValueError(
            f"seed not in the kernel of the first adjoint (residual {kernel_gap:.3e})")
    prior: list = []
    for length, code in word_keys(max_depth):
        k_word = MultiIndex._from_code(length, code)
        vec = apply_word(k_word, psi)
        if any(abs(float(other.inner(vec))) > threshold for other in prior):
            return k_word
        prior.append(vec)
    return None


@dataclass(frozen=True)
class SubspaceFrame:
    """Vectors S_0^m S_J psi spanning the subspace grown from one seed."""

    generator: object
    K: Optional[MultiIndex]
    words: tuple[MultiIndex, ...]
    vectors: tuple

    def max_pairwise_inner(self) -> float:
        worst = 0.0
        for i in range(len(self.vectors)):
            for j in range(i + 1, len(self.vectors)):
                worst = max(worst, abs(float(self.vectors[i].inner(self.vectors[j]))))
        return worst


def build_frame(psi, K: Optional[MultiIndex], depth: int) -> SubspaceFrame:
    """Enumerate the frame words for a seed, bounded by ``depth``.

    With ``K`` given, words are 0^m J for J strictly below K in the
    (length, code) order (m and |J| each bounded by depth); duplicates such
    as 0^m and 0^(m-1)(0) collapse.  With ``K = None`` the words are every
    word of weight <= 1 up to the depth.
    """
    if K is None:  # weight <= 1: the code is zero or a power of two
        keys = {(length, code) for length, code in word_keys(depth) if not code & (code - 1)}
    else:
        # 0^m J has the code of J shifted past the m leading zeros
        below = [(length, code) for length, code in word_keys(depth)
                 if (length, code) < K.sort_key]
        keys = {(m + length, code << m) for m in range(depth + 1) for length, code in below}
    words = tuple(MultiIndex._from_code(length, code) for length, code in sorted(keys))
    vectors = tuple(apply_word(w, psi) for w in words)
    return SubspaceFrame(psi, K, words, vectors)


def frames_orthogonal(frame_a: SubspaceFrame, frame_b: SubspaceFrame,
                      tol: float = 1e-10) -> bool:
    """True when every cross inner product between the frames is below tol."""
    for u in frame_a.vectors:
        for v in frame_b.vectors:
            if abs(float(u.inner(v))) >= tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Exact Gram checks and the level-k completeness certificate
# ---------------------------------------------------------------------------

# rows of the Gram formed at a time, and rows of the row matrix turned to
# float64 at a time: 64 rows of a 1,024-vector Gram are 512 KB
_GRAM_BLOCK = 64


def _exact_gram_rows(count: int, k: int, peak: int) -> np.ndarray:
    """An empty ``(count, 2**k)`` integer matrix for the cells of ``count``
    integer steps refined to level k, whose |cells| are at most ``peak``.

    Its dtype is the narrowest signed one that holds both +peak and -peak:
    int8 for +-1 cells, so 1,024 rows of 1,024 cells take 1 MB.  Raises
    ValueError unless every product and partial sum of their Gram is an
    integer below 2**53: then the float64 products of :func:`_gram_gaps`
    are exact, and so is the subtraction of 2**k on the diagonal.
    """
    if k > 22:
        raise ValueError("level too large for the exact integer Gram path")
    if peak * peak << k >= 1 << 53:
        raise ValueError("values too large for the exact float64 Gram path")
    # peak < 2**27 here, so int32 always holds it
    dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= peak)
    return np.empty((count, 1 << k), dtype=dtype)


def _gram_gaps(rows: np.ndarray, k: int,
               sizes: Sequence[int]) -> list[tuple[float, Optional[str]]]:
    """For each n of ``sizes``: the largest |<v_i, v_j> - delta_ij| over
    i, j < n, with the first pair in row-major order to reach it.

    ``rows`` holds the integer cells of the vectors at level k (see
    :func:`_exact_gram_rows`), so their Gram is 2**-k times an exact integer
    matrix.  It is formed ``_GRAM_BLOCK`` rows at a time and never held
    whole: each block's rows (the head) and one ``_GRAM_BLOCK``-row piece of
    the columns at a time are turned to float64 for one BLAS product, exact
    by the bound of :func:`_exact_gram_rows`.  The Gram is symmetric, so the
    first pair to reach the largest gap has i <= j: each block's rows start
    at their own diagonal, which halves the products.  A block's best pair
    replaces the running one only when its gap is strictly larger, so the
    witness is the full matrix's argmax; dividing a gap by 2**k is exact.
    """
    count = len(rows)
    best = [(0.0, 0, 0)] * len(sizes)
    for r0 in range(0, count, _GRAM_BLOCK):
        head = rows[r0:r0 + _GRAM_BLOCK].astype(np.float64)
        block = np.empty((len(head), count - r0))  # columns r0 and on
        for c0 in range(r0, count, _GRAM_BLOCK):
            piece = rows[c0:c0 + _GRAM_BLOCK].astype(np.float64)
            block[:, c0 - r0:c0 - r0 + len(piece)] = head @ piece.T
        block.flat[::count - r0 + 1] -= 1 << k  # the diagonal
        np.abs(block, out=block)
        for s, n in enumerate(sizes):
            if n <= r0:
                continue
            part = block[:n - r0, :n - r0]
            i, j = divmod(int(part.argmax()), n - r0)
            if part[i, j] > best[s][0]:
                best[s] = (float(part[i, j]), r0 + i, r0 + j)
    return [(gap / (1 << k), f"vectors {i} and {j}") if gap else (0.0, None)
            for gap, i, j in best]


def gram_identity_gap(vectors: Sequence[DyadicStep]) -> tuple[float, Optional[str]]:
    """Largest |<v_i, v_j> - delta_ij| over all pairs, exactly, with the
    first pair reaching it.  The vectors must be integer steps whose Gram
    is exact in float64 (see :func:`_exact_gram_rows`), else ValueError."""
    k = max(v.level for v in vectors)
    if any(v.den != 1 for v in vectors):
        raise ValueError("gram_identity_gap needs integer-valued steps")
    rows = _exact_gram_rows(len(vectors), k, max(_peak(v.num) for v in vectors))
    for i, v in enumerate(vectors):
        rows[i] = v._cells(k)
    return _gram_gaps(rows, k, [len(vectors)])[0]


def verify_decomposition(cover: GeneratorCover, level: int) -> VerificationReport:
    """Certify that the covered words below ``level``, applied to the first
    seed and joined with the constant, give exactly 2**level orthonormal steps.

    This is the depth-``level`` completeness certificate: Gram = identity
    exactly, and the count matches the dimension of the level-k step space.
    """
    return verify_decomposition_levels(cover, [level])[0]


def verify_decomposition_levels(cover: GeneratorCover,
                                levels: Sequence[int]) -> list[VerificationReport]:
    """:func:`verify_decomposition` at each of ``levels``, from one Gram.

    In (length, code) order every word shorter than j comes before every
    longer one, so the level-j vectors are the leading ones of a deeper
    level's and their Gram is its leading block.  The cells of the vectors
    are written once, one word at a time, for the deepest level whose count
    is right, and every such level is judged in the same pass over the row
    blocks of the Gram (:func:`_gram_gaps`); a level with the wrong count
    fails on the count alone.
    """
    levels = [_index(level, "level") for level in levels]
    top = max(levels)
    if cover.max_word_len < top - 1:
        raise ValueError("cover is too shallow for the requested level")
    keys = sorted(key for key in cover.coverage if key[0] < top)
    # the level-j vectors: the constant and the words shorter than j
    sizes = [1 + bisect.bisect_left(keys, (level, 0)) for level in levels]
    full = [n for level, n in zip(levels, sizes) if n == 1 << level]
    if full:
        # the constant, then one word at a time; the last word is the longest
        count = max(full)
        k = keys[count - 2][0] + 1 if count > 1 else 0
        rows = _exact_gram_rows(count, k, 1)  # every cell is +-1
        rows[0] = 1
        psi = walsh(1)
        for i, (length, code) in enumerate(keys[:count - 1], start=1):
            rows[i] = s_word(length, code, psi)._cells(k)
        gaps = dict(zip(full, _gram_gaps(rows, k, full)))
    reports = []
    for level, n in zip(levels, sizes):
        tally = Tally()
        if n != 1 << level:
            tally.record(math.inf, f"expected {1 << level} vectors, got {n}", cases=n)
        else:
            tally.record(*gaps[n], cases=n * (n + 1) // 2)
        reports.append(tally.report(f"square-wave-decomposition-level-{level}", 0.0))
    return reports
