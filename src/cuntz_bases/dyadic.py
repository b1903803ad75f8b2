"""Exact arithmetic core: rational scalars, dyadic step functions, index words.

Everything in this module is exact.  Step coefficients are Python ints or
``fractions.Fraction`` (never floats), so mathematical identities hold as
``==`` in code.  Values are immutable after construction and all
operations are pure functions; the module is safe to use from any number of
threads without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

Rational = Fraction
Scalar = Union[int, Fraction]

# int64 dot products are used as a fast path for inner products; keep a
# conservative bound so products summed over 2^level cells cannot overflow.
_INT_FAST_LIMIT = 1 << 20


def as_rational(value) -> Scalar:
    """Coerce to an exact scalar (int when integral, Fraction otherwise).

    Accepts ints, Fractions and strings such as ``"3/4"`` or ``"0.25"``.
    Floats are rejected: convert them explicitly (e.g. via
    :func:`cuntz_bases.basis.ingest_signal`) so no binary-float surprises
    sneak into exact computations.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        frac = Fraction(value)
        return int(frac) if frac.denominator == 1 else frac
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def _canon(value: Scalar) -> Scalar:
    """Canonical form of an exact scalar: an int whenever it is integral."""
    if type(value) is int or value.denominator != 1:
        return value
    return value.numerator


def _ratio(num: int, den: int) -> Scalar:
    """The exact quotient num/den of two ints, in canonical form."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def rational_str(value: Scalar) -> str:
    """Serialize an exact scalar as ``"num/den"``."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def parse_rational(text: str) -> Scalar:
    return as_rational(text)


class StepFunction:
    """Piecewise-constant function on the 2^level cells of a binary coding.

    ``coeffs[i]`` is the exact value on cell ``i``.  Cells all carry measure
    ``2**-level``, so ``inner`` is ``2**-level * sum(a_i * b_i)`` once both
    arguments are refined to a common level.  Subclasses fix the geometric
    meaning of a cell (dyadic subinterval, Cantor cylinder set).
    """

    __slots__ = ("level", "coeffs", "_intvec")

    def __init__(self, level: int, coeffs: Iterable):
        coeffs = tuple(as_rational(c) for c in coeffs)
        if level < 0:
            raise ValueError("level must be nonnegative")
        if len(coeffs) != 1 << level:
            raise ValueError(f"expected {1 << level} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_intvec", None)

    @classmethod
    def _trusted(cls, level: int, coeffs: tuple):
        """Build from a tuple of 2**level canonical exact scalars, unchecked.

        For results of the library's own exact operations, whose values are
        already ints or non-integral Fractions; public input goes through
        ``__init__``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_intvec", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- representation ------------------------------------------------

    def refine(self, target_level: int) -> "StepFunction":
        """Re-express on the finer level-``target_level`` partition."""
        if target_level < self.level:
            raise ValueError("refine cannot reduce the level (lossy)")
        reps = 1 << (target_level - self.level)
        if reps == 1:
            return self
        return self._trusted(target_level, tuple([c for c in self.coeffs for _ in range(reps)]))

    def normalize(self) -> "StepFunction":
        """Minimal-level representation of the same function."""
        level, coeffs = self.level, self.coeffs
        while level > 0 and coeffs[0::2] == coeffs[1::2]:
            level -= 1
            coeffs = coeffs[0::2]
        if level == self.level:
            return self
        return self._trusted(level, coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"level": self.level, "coeffs": [rational_str(c) for c in self.coeffs]}

    # -- arithmetic ----------------------------------------------------

    def _binary_op(self, other, op):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        k = max(self.level, other.level)
        a = self.refine(k).coeffs
        b = other.refine(k).coeffs
        return self._trusted(k, tuple([_canon(op(x, y)) for x, y in zip(a, b)]))

    def __add__(self, other):
        return self._binary_op(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary_op(other, lambda x, y: x - y)

    def __neg__(self):
        return self._trusted(self.level, tuple([-c for c in self.coeffs]))

    def scale(self, factor) -> "StepFunction":
        factor = as_rational(factor)
        return self._trusted(self.level, tuple([_canon(factor * c) for c in self.coeffs]))

    # -- inner product ---------------------------------------------------

    def _int_vector(self):
        """Cached int64 view when all coefficients are smallish integers."""
        vec = self._intvec
        if vec is None:
            if all(isinstance(c, int) and -_INT_FAST_LIMIT < c < _INT_FAST_LIMIT
                   for c in self.coeffs):
                vec = np.array(self.coeffs, dtype=np.int64)
            else:
                vec = False
            object.__setattr__(self, "_intvec", vec)
        return vec

    def inner(self, other: "StepFunction") -> Scalar:
        """Exact inner product ``2**-K sum(a_i b_i)`` at the common level K."""
        if type(other) is not type(self):
            raise TypeError("inner product requires matching function types")
        k = max(self.level, other.level)
        va, vb = self._int_vector(), other._int_vector()
        if va is not False and vb is not False and k <= 22:
            va = np.repeat(va, 1 << (k - self.level))
            vb = np.repeat(vb, 1 << (k - other.level))
            return _ratio(int(np.dot(va, vb)), 1 << k)
        a = self.refine(k).coeffs
        b = other.refine(k).coeffs
        total = sum(x * y for x, y in zip(a, b))
        return _canon(Fraction(total) / (1 << k))

    def norm_sq(self) -> Scalar:
        return self.inner(self)

    # -- equality is equality of the represented function ---------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.normalize(), other.normalize()
        return a.level == b.level and a.coeffs == b.coeffs

    def __hash__(self):
        n = self.normalize()
        return hash((type(self).__name__, n.level, n.coeffs))

    def __repr__(self):
        vals = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"{type(self).__name__}(level={self.level}, [{vals}{tail}])"


class DyadicStep(StepFunction):
    """Step function on the half-open dyadic cells [i*2^-k, (i+1)*2^-k) of [0,1)."""

    __slots__ = ()

    @classmethod
    def ones(cls) -> "DyadicStep":
        return cls(0, [1])

    @classmethod
    def zero(cls) -> "DyadicStep":
        return cls(0, [0])

    @classmethod
    def indicator(cls, level: int, cell: int) -> "DyadicStep":
        if not 0 <= cell < 1 << level:
            raise ValueError("cell index out of range")
        return cls(level, [1 if i == cell else 0 for i in range(1 << level)])

    def evaluate(self, x) -> Scalar:
        """Value at x in [0,1); cells are closed on the left."""
        x = Fraction(as_rational(x))
        if not 0 <= x < 1:
            raise ValueError("x must lie in [0, 1)")
        cell = (x.numerator << self.level) // x.denominator
        return self.coeffs[cell]

    def cell_left(self, cell: int) -> Scalar:
        return _ratio(cell, 1 << self.level)

    @classmethod
    def from_json(cls, data: dict) -> "DyadicStep":
        return cls(data["level"], [parse_rational(c) for c in data["coeffs"]])


def inner(f: StepFunction, g: StepFunction) -> Scalar:
    """Module-level alias for ``f.inner(g)``."""
    return f.inner(g)


def refine(f: StepFunction, target_level: int) -> StepFunction:
    return f.refine(target_level)


def normalize(f: StepFunction) -> StepFunction:
    return f.normalize()


def evaluate(f: DyadicStep, x) -> Scalar:
    return f.evaluate(x)


# ---------------------------------------------------------------------------
# Index words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """Finite word over {0, ..., alphabet-1} indexing operator monomials.

    The first digit is the outermost operator factor and also the least
    significant digit of ``code``.  The canonical total order is by
    ``(length, code)``; code alone is not injective because trailing zeros
    do not change it.
    """

    digits: tuple[int, ...]
    alphabet: int = 2

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        if self.alphabet < 1:
            raise ValueError("alphabet size must be positive")
        if any(not 0 <= d < self.alphabet for d in self.digits):
            raise ValueError("digit out of alphabet range")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    @property
    def weight(self) -> int:
        return sum(self.digits)

    @property
    def code(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.alphabet + d
        return total

    @property
    def sort_key(self) -> tuple[int, int]:
        return (len(self.digits), self.code)

    def concat(self, other: "MultiIndex") -> "MultiIndex":
        if other.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return MultiIndex(self.digits + other.digits, self.alphabet)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return self.concat(other)

    def __lt__(self, other: "MultiIndex") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "MultiIndex") -> bool:
        return self.sort_key <= other.sort_key

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)


EMPTY_WORD = MultiIndex(())


def multiindex_order(a: MultiIndex, b: MultiIndex) -> int:
    """-1, 0 or +1 according to the (length, code) order."""
    ka, kb = a.sort_key, b.sort_key
    return (ka > kb) - (ka < kb)


def enumerate_words(max_len: int, alphabet_size: int = 2) -> Iterator[MultiIndex]:
    """All words of length <= max_len, in (length, code) order, each once."""
    for length in range(max_len + 1):
        for code in range(alphabet_size ** length):
            digits = []
            rest = code
            for _ in range(length):
                rest, d = divmod(rest, alphabet_size)
                digits.append(d)
            yield MultiIndex(tuple(digits), alphabet_size)


def digits_of(n: int, alphabet_size: int = 2) -> MultiIndex:
    """Word whose code is n, with no trailing zero digits (empty for n = 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    digits = []
    while n:
        n, d = divmod(n, alphabet_size)
        digits.append(d)
    return MultiIndex(tuple(digits), alphabet_size)


def as_word(word, alphabet: int = 2) -> MultiIndex:
    """Coerce a MultiIndex or digit sequence to a MultiIndex."""
    if isinstance(word, MultiIndex):
        return word
    return MultiIndex(tuple(word), alphabet)
