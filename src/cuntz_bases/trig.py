"""Hybrid functions: dyadic step windows times single trigonometric modes.

An atom is ``window(x) * trig(2*pi*freq*x + pi*phase)`` with an exact dyadic
frequency and an exact dyadic phase (stored as the multiple of pi).  Sums of
atoms are closed under the subdivision operators and their adjoints, which
only ever double or halve frequencies and shift phases by exact dyadic
multiples of pi.  Floats appear in exactly one place: the closed-form
integration inside :func:`hybrid_inner`.  Everything upstream of that is
symbolic, so identities like "the adjoint kills every odd sine" come out as
exact cancellations of atoms, not as small numbers.

A hybrid lives on [0, 1) with Lebesgue measure, so each window is a
DyadicStep.  Every atom is made by :func:`_fold`, the one gate on that rule:
a window on another geometry (a Cantor cylinder step) raises TypeError.

Cell integrals are kept in a bounded ``functools.lru_cache``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional

import numpy as np

from .dyadic import DyadicStep, _index, _inner_parts, _tol, as_rational

MODE_CONST = "const"
MODE_COS = "cos"
MODE_SIN = "sin"

_HALF = Fraction(1, 2)

# Inside this module a dyadic rational n / 2**e is the int pair (n, e),
# reduced: n is odd unless e is 0.  Each value has one pair, so pairs are
# equal exactly when the rationals are, and sums, halvings and doublings are
# shifts and integer adds.  Fractions are built only at the public edge.
Dyadic = tuple[int, int]
_ZERO: Dyadic = (0, 0)


def _reduced(n: int, e: int) -> Dyadic:
    """The reduced pair of n / 2**e."""
    if e and not n & 1:
        if not n:
            return _ZERO
        shift = min((n & -n).bit_length() - 1, e)
        return n >> shift, e - shift
    return n, e


def _sum_diff(a: Dyadic, b: Dyadic) -> tuple[Dyadic, Dyadic]:
    """The reduced pairs of a + b and a - b, over the larger power of two."""
    (an, ae), (bn, be) = a, b
    if ae < be:
        an <<= be - ae
        ae = be
    elif be < ae:
        bn <<= ae - be
    return _reduced(an + bn, ae), _reduced(an - bn, ae)


def _double(a: Dyadic) -> Dyadic:
    n, e = a
    return (n, e - 1) if e else (n << 1, 0)


def _halve(a: Dyadic) -> Dyadic:
    n, e = a
    return (n >> 1, 0) if not e and not n & 1 else (n, e + 1)


def _fraction(a: Dyadic) -> Fraction:
    return Fraction(a[0], 1 << a[1])


def _require_dyadic(value, what: str) -> Dyadic:
    """The pair of an exact dyadic scalar; floats and bools raise TypeError."""
    value = as_rational(value)
    if isinstance(value, int):
        return value, 0
    den = value.denominator
    if den & (den - 1):
        raise ValueError(f"{what} must be a dyadic rational, got {value}")
    return value.numerator, den.bit_length() - 1


@dataclass(frozen=True, init=False, repr=False)
class TrigAtom:
    """One ``window * trig`` term, in canonical form.

    Canonical means: the window is at its minimal level, ``freq >= 0``, and
    the phase (as a multiple of pi) has been folded into [0, 1/2) using
    quarter-turn identities; a pure cosine of frequency zero is the
    ``const`` mode.  :func:`make_atom`, which performs the folding, is the
    one public constructor.
    ``freq`` and ``phase`` read as Fractions; the atom holds them as reduced
    ``(numerator, log2 denominator)`` int pairs, which the module's
    arithmetic, merging and integration use.
    """

    __slots__ = ("window", "mode", "_freq", "_phase")
    window: DyadicStep
    mode: str
    _freq: Dyadic
    _phase: Dyadic

    @classmethod
    def _trusted(cls, window: DyadicStep, mode: str, freq: Dyadic, phase: Dyadic) -> "TrigAtom":
        """Build from reduced pairs already in canonical form, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_freq", freq)
        object.__setattr__(self, "_phase", phase)
        return self

    def __reduce__(self):
        return TrigAtom._trusted, (self.window, self.mode, self._freq, self._phase)

    @property
    def freq(self) -> Fraction:
        return _fraction(self._freq)

    @property
    def phase(self) -> Fraction:
        return _fraction(self._phase)

    def __repr__(self):
        return (f"TrigAtom(window={self.window!r}, mode={self.mode!r}, "
                f"freq={self.freq!r}, phase={self.phase!r})")

    def scaled(self, factor) -> "TrigAtom":
        return TrigAtom._trusted(self.window.scale(factor), self.mode, self._freq, self._phase)


def make_atom(window: DyadicStep, mode: str, freq=0, phase=0) -> Optional[TrigAtom]:
    """Canonicalize an atom; returns None when the atom is identically zero.

    ``freq`` and ``phase`` are exact dyadic scalars (ints, Fractions or
    strings, as :func:`as_rational` reads them); floats and bools raise
    ``TypeError``, other denominators ``ValueError``.
    """
    if mode not in (MODE_CONST, MODE_COS, MODE_SIN):
        raise ValueError(f"unknown mode {mode!r}")
    return _fold(window, mode, _require_dyadic(freq, "frequency"),
                 _require_dyadic(phase, "phase"))


def _fold(window: DyadicStep, mode: str, freq: Dyadic, phase: Dyadic) -> Optional[TrigAtom]:
    """:func:`make_atom` on reduced pairs: the mod-2 fold and the quarter
    turns act on the phase numerator over its own power of two."""
    if not isinstance(window, DyadicStep):
        raise TypeError(f"a trig hybrid pairs only with a hybrid or a DyadicStep, "
                        f"not {type(window).__name__}")
    window = window.normalize()
    if window.is_zero():
        return None
    if mode == MODE_CONST:
        return TrigAtom._trusted(window, MODE_CONST, _ZERO, _ZERO)
    (fn, fe), (pn, pe) = freq, phase
    flip = False
    if fn < 0:
        # trig(-x) identities: cos is even, sin is odd
        fn, pn = -fn, -pn
        flip = mode == MODE_SIN
    pn %= 2 << pe
    whole = 1 << pe  # the phase 1, a half turn: trig(t + pi) = -trig(t)
    if pn >= whole:
        pn -= whole
        flip = not flip
    if 2 * pn >= whole:
        # quarter turn: sin(t + pi/2) = cos t, cos(t + pi/2) = -sin t
        pn -= whole >> 1
        if mode == MODE_SIN:
            mode = MODE_COS
        else:
            mode = MODE_SIN
            flip = not flip
    if not fn and not pn:
        if mode == MODE_SIN:
            return None
        mode = MODE_CONST
    if flip:
        window = -window
    return TrigAtom._trusted(window, mode, (fn, fe), _reduced(pn, pe))


@dataclass(frozen=True, init=False, repr=False)
class HybridFunction:
    """A finite sum of trig atoms; the canonical home of the sine family."""

    __slots__ = ("atoms",)
    atoms: tuple[TrigAtom, ...]

    def __init__(self, atoms: Iterable[Optional[TrigAtom]]):
        merged: dict[tuple, DyadicStep] = {}
        for atom in atoms:
            if atom is None:
                continue
            key = (atom.mode, atom._freq, atom._phase)
            if key in merged:
                merged[key] = merged[key] + atom.window
            else:
                merged[key] = atom.window
        final = [atom for atom in (_fold(window, *key) for key, window in merged.items())
                 if atom is not None]
        # by mode, then by the rational values of frequency and phase: each
        # pair is compared as an integer over the largest power of two here
        top = max((e for a in final for e in (a._freq[1], a._phase[1])), default=0)
        final.sort(key=lambda a: (a.mode, a._freq[0] << (top - a._freq[1]),
                                  a._phase[0] << (top - a._phase[1])))
        object.__setattr__(self, "atoms", tuple(final))

    def __reduce__(self):
        return HybridFunction, (self.atoms,)

    @classmethod
    def zero(cls) -> "HybridFunction":
        return cls(())

    @classmethod
    def from_step(cls, step: DyadicStep) -> "HybridFunction":
        return cls((_fold(step, MODE_CONST, _ZERO, _ZERO),))

    def is_zero(self) -> bool:
        return not self.atoms

    def inner(self, other: "HybridFunction | DyadicStep") -> float:
        return hybrid_inner(self, other)

    def norm_sq(self) -> float:
        return hybrid_inner(self, self)

    def __add__(self, other: "HybridFunction") -> "HybridFunction":
        return HybridFunction(self.atoms + other.atoms)

    def __sub__(self, other: "HybridFunction") -> "HybridFunction":
        return self + (-other)

    def __neg__(self) -> "HybridFunction":
        return HybridFunction(tuple(a.scaled(-1) for a in self.atoms))

    def scale(self, factor) -> "HybridFunction":
        factor = as_rational(factor)
        return HybridFunction(tuple(a.scaled(factor) for a in self.atoms))

    def __repr__(self):
        if not self.atoms:
            return "HybridFunction(0)"
        parts = []
        for a in self.atoms:
            if a.mode == MODE_CONST:
                parts.append("step")
            else:
                phase = f" + {a.phase}pi" if a.phase else ""
                parts.append(f"step*{a.mode}(2pi*{a.freq}*x{phase})")
        return f"HybridFunction({' + '.join(parts)})"

    def evaluate(self, x) -> float:
        """Pointwise value (float); x may be a Fraction or an exact float."""
        x = Fraction(x)
        total = 0.0
        for a in self.atoms:
            w = float(a.window.evaluate(x % 1))
            if a.mode == MODE_CONST:
                total += w
            else:
                t = 2 * a.freq * x + a.phase
                total += w * _trig_value(a.mode, t.numerator, t.denominator)
        return total


# ---------------------------------------------------------------------------
# Subdivision action on atoms (used by the operator module)
# ---------------------------------------------------------------------------

def _embed_half(step: DyadicStep, branch: int) -> DyadicStep:
    """The window seen through branch ``branch`` of the doubling map."""
    zeros = np.zeros_like(step.num)
    halves = (step.num, zeros) if branch == 0 else (zeros, step.num)
    return DyadicStep._trusted(step.level + 1, np.concatenate(halves), step.den)


def _window_halves(step: DyadicStep) -> tuple[DyadicStep, DyadicStep]:
    if step.level == 0:
        return step, step
    half = len(step.num) // 2
    lo = DyadicStep._reduced(step.level - 1, step.num[:half], step.den)
    hi = DyadicStep._reduced(step.level - 1, step.num[half:], step.den)
    return lo, hi


def compose_doubling(f: HybridFunction, second_sign: int) -> HybridFunction:
    """f(2x mod 1), with the second branch multiplied by ``second_sign``."""
    atoms = []
    for a in f.atoms:
        freq = _double(a._freq)
        atoms.append(_fold(_embed_half(a.window, 0), a.mode, freq, a._phase))
        atoms.append(_fold(_embed_half(a.window, 1).scale(second_sign),
                           a.mode, freq, _sum_diff(a._phase, freq)[1]))
    return HybridFunction(atoms)


def average_halves(f: HybridFunction, second_sign: int) -> HybridFunction:
    """(f(x/2) + second_sign * f((x+1)/2)) / 2, the adjoint action."""
    atoms = []
    for a in f.atoms:
        lo, hi = _window_halves(a.window)
        freq = _halve(a._freq)
        atoms.append(_fold(lo.scale(_HALF), a.mode, freq, a._phase))
        atoms.append(_fold(hi.scale(second_sign * _HALF), a.mode, freq,
                           _sum_diff(a._phase, a._freq)[0]))
    return HybridFunction(atoms)


# ---------------------------------------------------------------------------
# Closed-form inner products
# ---------------------------------------------------------------------------

def _trig_value(kind: str, num: int, den: int) -> float:
    """cos or sin of pi * num / den, the argument reduced mod 2 exactly and
    converted by one correctly rounded integer division."""
    t = (num % (2 * den)) / den
    return (math.cos if kind == MODE_COS else math.sin)(math.pi * t)


# Cell integrals are computed in blocks of 2**BLOCK_BITS adjacent cells of one
# level (the whole level when it has fewer cells), so a window with a small
# support on a deep level computes only the blocks it touches.  An LRU cache
# keeps up to CACHE_BLOCKS blocks (about 1.2 MB when full), keyed by ints,
# never by a Fraction: (kind, freq pair, phase pair, level, block).  947 is the
# smallest size at which `verify --suite all` computes at most 3,683 of its
# 16,641 blocks.
BLOCK_BITS = 5
_BLOCK_MASK = (1 << BLOCK_BITS) - 1
CACHE_BLOCKS = 947


@functools.lru_cache(maxsize=CACHE_BLOCKS)
def _cell_integrals(kind: str, freq: Dyadic, phase: Dyadic, k: int,
                    block: int) -> tuple[float, ...]:
    """Integrals of kind(2*pi*freq*x + pi*phase) over the level-k cells of
    block ``block``: the cells from ``block * 2**BLOCK_BITS`` on, at most
    ``2**BLOCK_BITS`` of them.

    The argument at the endpoint x = j/2**k is pi*t(j) with
    t(j) = 2*freq*j/2**k + phase.  All of these are integers over one power
    of two ``den``, reduced mod 2 with integer ``%`` and converted by one
    correctly rounded integer division, exactly as ``float`` converts the
    reduced Fraction; so every value is the exact closed form's float, bit
    for bit.  Adjacent cells share their common endpoint.
    """
    (fn, fe), (pn, pe) = freq, phase
    cells = 1 << min(k, BLOCK_BITS)
    if not fn:
        return (_trig_value(kind, pn, 1 << pe) * (1 / (1 << k)),) * cells
    exp = max(fe + k, pe)
    slope = fn << (exp - fe - k + 1)
    offset = pn << (exp - pe)
    period = 2 << exp
    den = 1 << exp
    pi = math.pi
    # the antiderivative of cos is sin, that of sin is -cos (sign in scale)
    antiderivative = math.sin if kind == MODE_COS else math.cos
    first = block << BLOCK_BITS
    ends = [antiderivative(pi * (((slope * j + offset) % period) / den))
            for j in range(first, first + cells + 1)]
    scale = 1.0 / (2.0 * pi * (fn / (1 << fe)))
    if kind == MODE_SIN:
        scale = -scale
    return tuple([scale * (hi - lo) for lo, hi in zip(ends, ends[1:])])


def _product_terms(a: TrigAtom, b: TrigAtom):
    """Product-to-sum decomposition of the trig parts of two atoms, as
    ``(coefficient numerator, coefficient denominator, kind, freq, phase)``."""
    if a.mode == MODE_CONST and b.mode == MODE_CONST:
        return None  # handled exactly by the caller
    if a.mode == MODE_CONST:
        return [(1, 1, b.mode, b._freq, b._phase)]
    if b.mode == MODE_CONST:
        return [(1, 1, a.mode, a._freq, a._phase)]
    (fs, fd), (ps, pd) = _sum_diff(a._freq, b._freq), _sum_diff(a._phase, b._phase)
    if a.mode == MODE_COS:
        if b.mode == MODE_COS:
            return [(1, 2, MODE_COS, fd, pd), (1, 2, MODE_COS, fs, ps)]
        # cos * sin: swap roles so the sine owns the difference argument
        return [(1, 2, MODE_SIN, (-fd[0], fd[1]), (-pd[0], pd[1])), (1, 2, MODE_SIN, fs, ps)]
    if b.mode == MODE_SIN:  # sin * sin
        return [(1, 2, MODE_COS, fd, pd), (-1, 2, MODE_COS, fs, ps)]
    return [(1, 2, MODE_SIN, fd, pd), (1, 2, MODE_SIN, fs, ps)]  # sin * cos


def hybrid_inner(f: HybridFunction | DyadicStep, g: HybridFunction | DyadicStep) -> float:
    """Inner product over [0,1], closed form on each common-refinement cell.

    The only approximation anywhere in the hybrid pipeline is the float
    rounding here; purely-constant contributions are accumulated exactly as
    an integer ratio and converted once, so two const hybrids reproduce the
    exact step inner product to the last bit.
    """
    f, g = _as_hybrid(f), _as_hybrid(g)
    exact_num, exact_den = 0, 1
    approx = 0.0
    for a in f.atoms:
        for b in g.atoms:
            terms = _product_terms(a, b)
            if terms is None:
                num, den = _inner_parts(a.window, b.window)
                exact_num, exact_den = exact_num * den + num * exact_den, exact_den * den
                continue
            fine, coarse = a.window, b.window
            if coarse.level > fine.level:
                fine, coarse = coarse, fine
            k, shift = fine.level, fine.level - coarse.level
            # float(w * coef) as one correctly rounded integer division; the
            # cell weight w is (wa[i] / den_a) * (wb[i] / den_b)
            wd = a.window.den * b.window.den
            terms = [(cn, wd * cd, kind, freq, phase) for cn, cd, kind, freq, phase in terms]
            wf, wc = fine.num.tolist(), coarse.num.tolist()
            block, columns = -1, ()
            # the level-k cells in order, 2**shift of them per coarse cell
            for c in compress(range(len(wc)), wc):
                x = wc[c]
                for i in range(c << shift, (c + 1) << shift):
                    wn = x * wf[i]
                    if wn:
                        if i >> BLOCK_BITS != block:
                            block = i >> BLOCK_BITS
                            columns = [(cn, den, _cell_integrals(kind, freq, phase, k, block))
                                       for cn, den, kind, freq, phase in terms]
                        j = i & _BLOCK_MASK
                        for cn, den, integrals in columns:
                            approx += (wn * cn) / den * integrals[j]
    # one correctly rounded division, as float(Fraction) converts
    return exact_num / exact_den + approx


def _as_hybrid(f: HybridFunction | DyadicStep) -> HybridFunction:
    """A hybrid as it is, anything else as the hybrid of its one const atom;
    :func:`_fold` refuses a window that is not a DyadicStep."""
    return f if isinstance(f, HybridFunction) else HybridFunction.from_step(f)


# ---------------------------------------------------------------------------
# The sine/cosine families and Fourier coefficients
# ---------------------------------------------------------------------------

def make_sine(n: int) -> HybridFunction:
    """sin(2 pi n x) on [0,1]; the zero function for n = 0."""
    return HybridFunction((make_atom(DyadicStep.ones(), MODE_SIN, _index(n, "n")),))


def make_cos(n: int) -> HybridFunction:
    """cos(2 pi n x) on [0,1]; the constant one for n = 0."""
    return HybridFunction((make_atom(DyadicStep.ones(), MODE_COS, _index(n, "n")),))


def fourier_coeffs(f: HybridFunction | DyadicStep, max_n: int) -> tuple[list[float], list[float]]:
    """Cosine and sine coefficients c_n, s_n for n = 0..max_n (s_0 is 0)."""
    max_n = _index(max_n, "max_n")
    f = _as_hybrid(f)
    c = [hybrid_inner(make_cos(n), f) for n in range(max_n + 1)]
    s = [0.0] + [hybrid_inner(make_sine(n), f) for n in range(1, max_n + 1)]
    return c, s


ANTIPERIODIC_HALF = "antiperiodic_half"
PERIODIC_HALF = "periodic_half"
NEITHER = "neither"


def classify_reflection(f: HybridFunction | DyadicStep, tol: float = 1e-10) -> str:
    """Which half-shift reflection symmetry (if either) the function has.

    ``antiperiodic_half`` means f(x) = -f(x + 1/2), detected as the first
    adjoint annihilating f; ``periodic_half`` means f(x) = f(x + 1/2).
    """
    tol = _tol(tol, positive=True)
    f = _as_hybrid(f)
    if math.sqrt(max(average_halves(f, 1).norm_sq(), 0.0)) < tol:
        return ANTIPERIODIC_HALF
    if math.sqrt(max(average_halves(f, -1).norm_sq(), 0.0)) < tol:
        return PERIODIC_HALF
    return NEITHER
