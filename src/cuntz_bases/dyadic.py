"""Exact arithmetic core: rational scalars, dyadic step functions, index words.

Everything in this module is exact.  A step keeps its cell values as
integer numerators over one positive denominator (never floats), so
mathematical identities hold as ``==`` in code; ``coeffs`` gives the values
as Python ints or ``fractions.Fraction``.  Values are immutable after
construction and all operations are pure functions; the module is safe to
use from any number of threads without coordination.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

def as_rational(value) -> Scalar:
    """Coerce to an exact scalar (int when integral, Fraction otherwise).

    Accepts ints, Fractions and strings such as ``"3/4"`` or ``"0.25"``
    (read as ``Fraction`` reads them, with the exponent bound of
    :func:`_parse_token`).  Floats are rejected: convert them explicitly
    (e.g. via :func:`cuntz_bases.basis.ingest_signal`) so no binary-float
    surprises sneak into exact computations.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        return _ratio(*_parse_token(value))
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


# The largest decimal exponent a token may carry: Fraction("1e10000000")
# computes a ten-million-digit power of ten before anything could check it.
MAX_EXPONENT = 100_000


def _parse_token(token: str) -> tuple[int, int]:
    """The value of ``Fraction(token)`` as (numerator, positive denominator),
    not necessarily in lowest terms.

    Integer tokens go through ``int``, plain decimals are split at the '.'
    and ``a/b`` is read as two ints, each only where ``int`` accepts exactly
    what the ``Fraction`` grammar does there.  Every other token, and every
    token with a '_' digit separator (which ``Fraction`` reads only since
    Python 3.11), falls back to ``Fraction(token)`` and raises what it
    raises; only a well-formed token whose exponent is beyond
    ``MAX_EXPONENT`` raises OverflowError instead, before any power of ten
    is computed.
    """
    if "_" not in token:
        head, dot, tail = token.partition(".")
        num, slash, den = token.partition("/")
        try:
            if dot:
                if tail.isdecimal():
                    return int(head + tail), 10 ** len(tail)
            elif slash:
                # Fraction allows no space or sign next to the slash; int() would
                if num[-1:].isdecimal() and den[:1].isdecimal() and int(den):
                    return int(num), int(den)
            else:
                return int(token), 1
        except ValueError:
            pass
    mark = max(token.rfind("e"), token.rfind("E"))
    if mark >= 0 and not token[mark + 1:mark + 2].isspace():
        try:
            exponent = int(token[mark + 1:])
        except ValueError:
            exponent = 0  # not an exponent Fraction reads either
        if abs(exponent) > MAX_EXPONENT:
            try:
                Fraction(token[:mark + 1] + "0")  # the same token with a small exponent
            except ValueError:
                pass  # malformed: Fraction(token) below fails before any power
            else:
                raise OverflowError(f"exponent of {token!r} exceeds {MAX_EXPONENT}")
    value = Fraction(token)
    return value.numerator, value.denominator


class SampleError(ValueError):
    """A value that is not an exact rational: ``index`` is its position and
    ``reason`` says what is wrong with it."""

    def __init__(self, index: int, value, reason: str):
        super().__init__(f"{reason} at index {index}: {value!r}")
        self.index, self.value, self.reason = index, value, reason


def lift(values: Sequence) -> tuple[np.ndarray, int]:
    """Exact values as a step's numerator array over their least common
    denominator: the one gate through which exact values enter the library.

    ``values`` holds what :func:`as_rational` accepts: ints (not bool),
    Fractions and sample tokens (read as ``Fraction(token)`` reads them, by
    :func:`_parse_token`, with no Fraction built for a token of integer,
    decimal or ``a/b`` form).  Returns ``(num, den)`` with ``values[i] ==
    num[i] / den`` and ``num`` as ``_as_array`` makes it (empty int64 for no
    values).  A token that is not an exact rational, or whose exponent
    exceeds ``MAX_EXPONENT``, raises :class:`SampleError` naming its index;
    a bool, a float or a numpy scalar raises the TypeError of ``as_rational``.
    """
    if set(map(type, values)) <= {int, Fraction}:
        dens = [v.denominator for v in values]
        den = math.lcm(*dens)
        ints = [v.numerator * (den // d) for v, d in zip(values, dens)]
    else:
        ints, den = _lift_tokens(values)
    return _as_array(ints), den


def _lift_tokens(values: Sequence) -> tuple[list[int], int]:
    try:  # all integer tokens; join raises TypeError unless all are tokens
        if "_" not in "".join(values):
            return list(map(int, values)), 1
    except (TypeError, ValueError):
        pass
    nums, dens = [], []
    for index, value in enumerate(values):
        try:
            if type(value) is str:
                num, den = _parse_token(value)
            else:
                value = as_rational(value)
                num, den = value.numerator, value.denominator
        except OverflowError:
            raise SampleError(index, value,
                              f"sample exponent beyond {MAX_EXPONENT}") from None
        except (ValueError, ZeroDivisionError):
            raise SampleError(index, value, "malformed sample") from None
        nums.append(num)
        dens.append(den)
    distinct = set(dens)
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        nums = [num * (den // d) for num, d in zip(nums, dens)]
    # decimal denominators are powers of ten, not yet the least common one
    common = math.gcd(den, *nums)
    if common > 1:
        nums = [num // common for num in nums]
        den //= common
    return nums, den


def _index(value, name: str, low=0, high=None) -> int:
    """A count or index argument as an int: the one gate through which
    levels, depths, orders, branch digits and cells enter the library, as
    :func:`lift` is for exact values.

    ``value`` is read with ``operator.index``, so a numpy integer comes back
    as an ``int``; a bool, a float, a Fraction or a string raises TypeError.
    An int outside ``[low, high]`` (``high=None``: no upper bound) raises
    ValueError naming ``name``.
    """
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}") from None
    if value < low or high is not None and value > high:
        rule = (("nonnegative" if low == 0 else f"at least {low}") if high is None
                else f"{low} or {high}" if high == low + 1 else f"in [{low}, {high}]")
        raise ValueError(f"{name} out of range: {name} must be {rule}, got {value}")
    return value


def _tol(value, positive: bool = False):
    """A float tolerance, checked: the one gate for the library's ``tol``
    parameters, as :func:`_index` is for counts.

    A bool, or anything that is not a real number, raises TypeError.  NaN,
    a negative value and, when ``positive``, zero raise ValueError naming
    ``tol``.  The value comes back as given, so an integer 0 stays an int.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"tol must be a real number, not {type(value).__name__}")
    if not (value > 0 if positive else value >= 0):  # NaN fails either test
        rule = "positive" if positive else "nonnegative"
        raise ValueError(f"tol out of range: tol must be {rule}, got {value}")
    return value


def join_lifts(lifts: Iterable[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """The lift of consecutive runs of values as one numerator array.

    Each item of ``lifts`` is ``lift(run)`` for one run, in order; the
    result is the lift of all the runs' values together, dtype included.  A
    lift's denominator is the lcm of its values' reduced denominators, so
    the lcm of the runs' denominators is already the least common one.
    ``lifts`` may be an iterator: each run's array is kept as it arrives,
    and the arrays are brought to the common denominator and joined once,
    at the end.
    """
    runs = [(num, den) for num, den in lifts if len(num)]
    den = math.lcm(*(d for _num, d in runs))
    parts = [np.zeros(0, dtype=np.int64)]  # an empty join is an empty int64 array
    for num, d in runs:
        scale, peak = den // d, _peak(num)
        if scale > 1 and peak:
            if peak * scale >= _WIDE:
                num = num.astype(object)
            num = num * scale
        parts.append(num)
    return np.concatenate(parts), den


def _ratio(num: int, den: int) -> Scalar:
    """The exact quotient num/den of two ints, in canonical form."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def rational_str(value: Scalar) -> str:
    """Serialize an exact scalar (read by :func:`as_rational`) as ``"num/den"``."""
    value = as_rational(value)
    return f"{value.numerator}/{value.denominator}"


# Step numerators are int64 while every |numerator| is below this, numpy
# ``object`` (exact Python ints) past it: the rule of the Walsh butterfly.
# Any sum or difference of two int64 numerators then still fits in int64.
_WIDE = 1 << 62


def _peak(num: np.ndarray) -> int:
    """The largest |numerator| of an int64 or ``object`` array."""
    return int(np.abs(num).max())


def _as_array(ints: Sequence[int]) -> np.ndarray:
    """Python ints as step numerators: int64 below ``_WIDE``, object past it."""
    wide = max(map(abs, ints), default=0) >= _WIDE
    return np.array(ints, dtype=object if wide else np.int64)


def _lowest(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """``num / den`` as a step keeps it: in lowest terms, with the numerators
    int64 below ``_WIDE`` and ``object`` past it.  ``num`` is ``object`` or
    int64 with every |value| below 2**63."""
    if den > 1:
        whole = int(np.gcd.reduce(num))  # 0 when every numerator is 0
        common = math.gcd(whole, den)
        if common > 1:
            den //= common
            if whole:
                num = num // common
    wide = _peak(num) >= _WIDE
    if wide != (num.dtype == object):
        num = num.astype(object if wide else np.int64)
    return num, den


def _inner_parts(a: "StepFunction", b: "StepFunction") -> tuple[int, int]:
    """``(total, den)`` with ``<a, b> = total / den``, exactly.

    The numerators of the finer step are summed over the cells of the
    coarser one and dotted with its numerators; ``den`` is the product of
    the denominators shifted by the finer level.  The arithmetic is int64
    while the dot product is bounded below 2**63, ``object`` otherwise.
    """
    if a.level > b.level:
        a, b = b, a
    x, y = a.num, b.num
    if _peak(x) * _peak(y) << b.level >= 1 << 63:
        x, y = x.astype(object), y.astype(object)
    if b.level > a.level:
        y = y.reshape(len(x), -1).sum(axis=1)
    return int(np.dot(x, y)), a.den * b.den << b.level


class StepFunction:
    """Piecewise-constant function on the 2^level cells of a binary coding.

    The value on cell ``i`` is ``num[i] / den``: ``num`` is a read-only
    numpy array of integer numerators, int64 while every |numerator| is
    below 2**62 and numpy ``object`` (exact Python ints) past it, and
    ``den`` is a positive int.  The pair is kept in lowest terms (the gcd of
    all numerators and ``den`` is 1), so a function has one representation
    at each level.  ``coeffs`` gives the cell values as exact scalars.
    Cells all carry measure ``2**-level``, so ``inner`` is
    ``2**-level * sum(a_i * b_i)`` at the common level.  Subclasses fix the
    geometric meaning of a cell (dyadic subinterval, Cantor cylinder set).
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Iterable):
        num, den = lift(tuple(coeffs))
        level = _index(level, "level")
        if len(num) != 1 << level:
            raise ValueError(f"expected {1 << level} coefficients, got {len(num)}")
        num.setflags(write=False)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, level: int, num: np.ndarray, den: int):
        """Build from 2**level numerators over ``den``, unchecked.

        For results of the library's own exact operations, which are already
        in lowest terms and of the right dtype (see ``_lowest``); ``num``
        becomes read-only.  Public input goes through ``__init__``.
        """
        num.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _reduced(cls, level: int, num: np.ndarray, den: int):
        """``_trusted`` of ``num / den`` brought to lowest terms first."""
        return cls._trusted(level, *_lowest(num, den))

    @classmethod
    def ones(cls):
        """The constant function 1 (level 0)."""
        return cls._trusted(0, np.ones(1, dtype=np.int64), 1)

    @classmethod
    def zero(cls):
        """The zero function (level 0)."""
        return cls._trusted(0, np.zeros(1, dtype=np.int64), 1)

    @classmethod
    def indicator(cls, level: int, cell: int):
        """The indicator of cell ``cell`` of the level-``level`` partition."""
        level = _index(level, "level")
        cell = _index(cell, "cell index", 0, (1 << level) - 1)
        num = np.zeros(1 << level, dtype=np.int64)
        num[cell] = 1
        return cls._trusted(level, num, 1)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _trusted: the pair is in lowest terms
        return self._trusted, (self.level, self.num, self.den)

    # -- representation ------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The cell values as exact scalars: an int when integral, a
        Fraction otherwise."""
        nums, den = self.num.tolist(), self.den
        return tuple(nums) if den == 1 else tuple([_ratio(u, den) for u in nums])

    def _cells(self, level: int) -> np.ndarray:
        """The numerators on the level-``level`` partition (not coarser)."""
        if level == self.level:
            return self.num
        return np.repeat(self.num, 1 << (level - self.level))

    def refine(self, target_level: int) -> "StepFunction":
        """Re-express on the finer level-``target_level`` partition; a
        coarser level raises ValueError, as the cells could not be kept."""
        target_level = _index(target_level, "target_level", self.level)
        if target_level == self.level:
            return self
        return self._trusted(target_level, self._cells(target_level), self.den)

    def normalize(self) -> "StepFunction":
        """Minimal-level representation of the same function."""
        level, num = self.level, self.num
        while level > 0 and (num[0::2] == num[1::2]).all():
            level -= 1
            num = num[0::2]
        if level == self.level:
            return self
        return self._trusted(level, num, self.den)

    def is_zero(self) -> bool:
        return not self.num.any()

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other over the common level and denominator."""
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        k = max(self.level, other.level)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = self._cells(k), other._cells(k)
        if (_peak(a) + 1) * fa + (_peak(b) + 1) * fb >= 1 << 63:
            a, b = a.astype(object), b.astype(object)
        return self._reduced(k, a * fa + b * (sign * fb), den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._trusted(self.level, -self.num, self.den)

    def scale(self, factor) -> "StepFunction":
        factor = as_rational(factor)
        p, q = factor.numerator, factor.denominator
        num = self.num
        if (_peak(num) + 1) * abs(p) >= 1 << 63:
            num = num.astype(object)
        return self._reduced(self.level, num * p, self.den * q)

    # -- inner product ---------------------------------------------------

    def inner(self, other: "StepFunction") -> Scalar:
        """Exact inner product ``2**-K sum(a_i b_i)`` at the common level K.

        Against a carrier that is not a step (a trig hybrid), the other side
        measures: the inner product is real and symmetric.
        """
        if type(other) is not type(self):
            if not isinstance(other, StepFunction):
                return other.inner(self)
            raise TypeError("inner product requires matching function types")
        return _ratio(*_inner_parts(self, other))

    def norm_sq(self) -> Scalar:
        return self.inner(self)

    # -- equality is equality of the represented function ---------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.den != other.den:
            return False
        k = max(self.level, other.level)
        return bool((self._cells(k) == other._cells(k)).all())

    def __hash__(self):
        n = self.normalize()
        num = n.num.tobytes() if n.num.dtype == np.int64 else tuple(n.num.tolist())
        return hash((type(self).__name__, n.level, n.den, num))

    def __repr__(self):
        vals = ", ".join(str(_ratio(u, self.den)) for u in self.num[:8].tolist())
        tail = ", ..." if len(self.num) > 8 else ""
        return f"{type(self).__name__}(level={self.level}, [{vals}{tail}])"


class DyadicStep(StepFunction):
    """Step function on the half-open dyadic cells [i*2^-k, (i+1)*2^-k) of [0,1)."""

    __slots__ = ()

    def evaluate(self, x) -> Scalar:
        """Value at x in [0,1); cells are closed on the left."""
        x = Fraction(as_rational(x))
        if not 0 <= x < 1:
            raise ValueError("x must lie in [0, 1)")
        cell = (x.numerator << self.level) // x.denominator
        return _ratio(int(self.num[cell]), self.den)

    def cell_left(self, cell: int) -> Scalar:
        return _ratio(_index(cell, "cell index", 0, (1 << self.level) - 1), 1 << self.level)


# ---------------------------------------------------------------------------
# Index words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """Finite binary word indexing operator monomials.

    The first digit is the outermost operator factor and also the lowest
    bit of ``code``.  The canonical total order is by
    ``(length, code)``; code alone is not injective because trailing zeros
    do not change it.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple([_index(d, "word digit", 0, 1) for d in self.digits])
        object.__setattr__(self, "digits", digits)

    @classmethod
    def _trusted(cls, digits: tuple[int, ...]) -> "MultiIndex":
        """Build from a tuple of Python int digits, unchecked.

        Inside the library a word is its ``(length, code)`` pair (or the
        digit tuple of a tree key); this is the one way such a word leaves
        as a ``MultiIndex``, for digits the library made itself.  Public
        input goes through ``__init__``, which validates every digit.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "digits", digits)
        return self

    @classmethod
    def _from_code(cls, length: int, code: int) -> "MultiIndex":
        """The word ``(length, code)``, for ``0 <= code < 2**length``, unchecked."""
        return cls._trusted(tuple(code >> i & 1 for i in range(length)))

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    @property
    def weight(self) -> int:
        return sum(self.digits)

    @property
    def code(self) -> int:
        return word_code(self.digits)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (len(self.digits), self.code)

    def __lt__(self, other: "MultiIndex") -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __le__(self, other: "MultiIndex") -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self.sort_key <= other.sort_key

    def __str__(self) -> str:
        return "".join(map(str, self.digits))


def word_keys(max_len: int) -> Iterator[tuple[int, int]]:
    """The ``(length, code)`` pairs of all words of length <= max_len, in
    order; ``max_len`` is checked at the call, not at the first pair."""
    return ((length, code) for length in range(_index(max_len, "max_len") + 1)
            for code in range(1 << length))


def word_code(digits: Sequence[int]) -> int:
    """The code of a word given by its digits: the first is the lowest bit."""
    return sum(d << i for i, d in enumerate(digits))


def word_str(length: int, code: int) -> str:
    """The text of the binary word ``(length, code)``, first letter first:
    ``str`` of its ``MultiIndex`` without building one."""
    return format(code, f"0{length}b")[::-1] if length else ""


def word_cell(length: int, code: int) -> int:
    """The cell index of the binary word ``(length, code)`` at level
    ``length``: its first letter is the top bit, as the outermost operator
    picks the half (the bits of ``code`` reversed)."""
    return int(word_str(length, code) or "0", 2)


def enumerate_words(max_len: int) -> Iterator[MultiIndex]:
    """All words of length <= max_len, in (length, code) order, each once."""
    return (MultiIndex._from_code(length, code) for length, code in word_keys(max_len))


def as_word(word) -> MultiIndex:
    """Coerce a MultiIndex or digit sequence to a MultiIndex."""
    if isinstance(word, MultiIndex):
        return word
    return MultiIndex(tuple(word))
