"""Hybrid functions: dyadic step windows times single trigonometric modes.

An atom is ``window(x) * trig(2*pi*freq*x + pi*phase)`` with an exact dyadic
frequency and an exact dyadic phase (stored as the multiple of pi).  Sums of
atoms are closed under the subdivision operators and their adjoints, which
only ever double or halve frequencies and shift phases by exact dyadic
multiples of pi.  Floats appear in exactly one place: the closed-form
integration inside :func:`hybrid_inner`.  Everything upstream of that is
symbolic, so identities like "the adjoint kills every odd sine" come out as
exact cancellations of atoms, not as small numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .dyadic import DyadicStep, _inner_parts, as_rational

MODE_CONST = "const"
MODE_COS = "cos"
MODE_SIN = "sin"

_HALF = Fraction(1, 2)


def _require_dyadic(value: Fraction, what: str) -> Fraction:
    value = Fraction(value)
    if value.denominator & (value.denominator - 1):
        raise ValueError(f"{what} must be a dyadic rational, got {value}")
    return value


@dataclass(frozen=True)
class TrigAtom:
    """One ``window * trig`` term, in canonical form.

    Canonical means: the window is at its minimal level, ``freq >= 0``, and
    the phase (as a multiple of pi) has been folded into [0, 1/2) using
    quarter-turn identities; a pure cosine of frequency zero is the
    ``const`` mode.  Use :func:`make_atom`, which performs the folding.
    """

    window: DyadicStep
    mode: str
    freq: Fraction
    phase: Fraction

    def __post_init__(self):
        if self.mode not in (MODE_CONST, MODE_COS, MODE_SIN):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_CONST and (self.freq != 0 or self.phase != 0):
            raise ValueError("const atoms must have zero frequency and phase")
        if self.freq < 0:
            raise ValueError("frequency must be nonnegative")

    def scaled(self, factor) -> "TrigAtom":
        return TrigAtom(self.window.scale(factor), self.mode, self.freq, self.phase)

    def to_json(self) -> dict:
        freq = Fraction(self.freq)
        data = {
            "window": self.window.to_json(),
            "mode": self.mode,
            "freq_num": freq.numerator,
            "freq_log2den": freq.denominator.bit_length() - 1,
        }
        if self.phase != 0:
            phase = Fraction(self.phase)
            data["phase_num"] = phase.numerator
            data["phase_log2den"] = phase.denominator.bit_length() - 1
        return data

    @classmethod
    def from_json(cls, data: dict) -> Optional["TrigAtom"]:
        freq = Fraction(data["freq_num"], 1 << data["freq_log2den"])
        phase = Fraction(data.get("phase_num", 0), 1 << data.get("phase_log2den", 0))
        return make_atom(DyadicStep.from_json(data["window"]), data["mode"], freq, phase)


def make_atom(window: DyadicStep, mode: str, freq=0, phase=0) -> Optional[TrigAtom]:
    """Canonicalize an atom; returns None when the atom is identically zero."""
    window = window.normalize()
    if window.is_zero():
        return None
    if mode == MODE_CONST:
        return TrigAtom(window, MODE_CONST, Fraction(0), Fraction(0))
    freq = _require_dyadic(Fraction(freq), "frequency")
    phase = _require_dyadic(Fraction(phase), "phase") % 2
    sign = 1
    if freq < 0:
        # trig(-x) identities: cos is even, sin is odd
        freq = -freq
        phase = (-phase) % 2
        if mode == MODE_SIN:
            sign = -sign
    if phase >= 1:
        phase -= 1
        sign = -sign
    if phase >= _HALF:
        # quarter turn: sin(t + pi/2) = cos t, cos(t + pi/2) = -sin t
        phase -= _HALF
        if mode == MODE_SIN:
            mode = MODE_COS
        else:
            mode = MODE_SIN
            sign = -sign
    if freq == 0 and phase == 0:
        if mode == MODE_SIN:
            return None
        mode = MODE_CONST
    if sign < 0:
        window = -window
    return TrigAtom(window, mode, freq, phase)


class HybridFunction:
    """A finite sum of trig atoms; the canonical home of the sine family."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Optional[TrigAtom]]):
        merged: dict[tuple, DyadicStep] = {}
        for atom in atoms:
            if atom is None:
                continue
            key = (atom.mode, atom.freq, atom.phase)
            if key in merged:
                merged[key] = merged[key] + atom.window
            else:
                merged[key] = atom.window
        final = []
        for (mode, freq, phase), window in merged.items():
            atom = make_atom(window, mode, freq, phase)
            if atom is not None:
                final.append(atom)
        final.sort(key=lambda a: (a.mode, a.freq, a.phase))
        object.__setattr__(self, "atoms", tuple(final))

    def __setattr__(self, name, value):
        raise AttributeError("HybridFunction is immutable")

    @classmethod
    def zero(cls) -> "HybridFunction":
        return cls(())

    @classmethod
    def from_step(cls, step: DyadicStep) -> "HybridFunction":
        return cls((make_atom(step, MODE_CONST),))

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
        if factor == 0:
            return HybridFunction.zero()
        return HybridFunction(tuple(a.scaled(factor) for a in self.atoms))

    def __eq__(self, other):
        if not isinstance(other, HybridFunction):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

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
                t = (2 * a.freq * x + a.phase) % 2
                total += w * _trig_value(a.mode, t)
        return total

    def to_json(self) -> list:
        return [a.to_json() for a in self.atoms]

    @classmethod
    def from_json(cls, data: list) -> "HybridFunction":
        return cls(tuple(TrigAtom.from_json(d) for d in data))


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
        if a.mode == MODE_CONST:
            w = a.window
            doubled = np.concatenate((w.num, second_sign * w.num))
            atoms.append(make_atom(DyadicStep._trusted(w.level + 1, doubled, w.den), MODE_CONST))
            continue
        atoms.append(make_atom(_embed_half(a.window, 0), a.mode, 2 * a.freq, a.phase))
        atoms.append(make_atom(
            _embed_half(a.window, 1).scale(second_sign),
            a.mode, 2 * a.freq, a.phase - 2 * a.freq))
    return HybridFunction(atoms)


def average_halves(f: HybridFunction, second_sign: int) -> HybridFunction:
    """(f(x/2) + second_sign * f((x+1)/2)) / 2, the adjoint action."""
    atoms = []
    for a in f.atoms:
        lo, hi = _window_halves(a.window)
        if a.mode == MODE_CONST:
            atoms.append(make_atom((lo + hi.scale(second_sign)).scale(_HALF), MODE_CONST))
            continue
        half_freq = a.freq / 2
        atoms.append(make_atom(lo.scale(_HALF), a.mode, half_freq, a.phase))
        atoms.append(make_atom(
            hi.scale(second_sign * _HALF), a.mode, half_freq, a.phase + a.freq))
    return HybridFunction(atoms)


# ---------------------------------------------------------------------------
# Closed-form inner products
# ---------------------------------------------------------------------------

def _trig_value(kind: str, t: Fraction) -> float:
    """cos or sin of pi*t with the argument reduced mod 2 exactly."""
    t %= 2
    if kind == MODE_COS:
        return math.cos(math.pi * float(t))
    return math.sin(math.pi * float(t))


def _cell_integrals(kind: str, freq: Fraction, phase: Fraction, k: int,
                    cells: list[int]) -> list[float]:
    """Integrals of kind(2*pi*freq*x + pi*phase) over the level-k cells ``cells``.

    The argument at the endpoint x = j/2**k is pi*t(j) with
    t(j) = 2*freq*j/2**k + phase.  All of these are integers over one power
    of two ``den``, reduced mod 2 with integer ``%`` and converted by one
    correctly rounded integer division, exactly as ``float`` converts the
    reduced Fraction; so every value is the exact closed form's float, bit
    for bit.  Adjacent cells share their common endpoint.
    """
    if freq == 0:
        return [_trig_value(kind, phase) * (1 / (1 << k))] * len(cells)
    den = max(freq.denominator << k, phase.denominator)
    slope = 2 * freq.numerator * (den // (freq.denominator << k))
    offset = phase.numerator * (den // phase.denominator)
    period = 2 * den
    pi = math.pi
    # the antiderivative of cos is sin, that of sin is -cos (sign in scale)
    antiderivative = math.sin if kind == MODE_COS else math.cos
    ends = {j: antiderivative(pi * (((slope * j + offset) % period) / den))
            for i in cells for j in (i, i + 1)}
    scale = 1.0 / (2.0 * pi * float(freq))
    if kind == MODE_SIN:
        scale = -scale
    return [scale * (ends[i + 1] - ends[i]) for i in cells]


def _product_terms(a: TrigAtom, b: TrigAtom):
    """Product-to-sum decomposition of the trig parts of two atoms."""
    if a.mode == MODE_CONST and b.mode == MODE_CONST:
        return None  # handled exactly by the caller
    if a.mode == MODE_CONST:
        return [(1, b.mode, b.freq, b.phase)]
    if b.mode == MODE_CONST:
        return [(1, a.mode, a.freq, a.phase)]
    fd, pd = a.freq - b.freq, a.phase - b.phase
    fs, ps = a.freq + b.freq, a.phase + b.phase
    if a.mode == MODE_COS and b.mode == MODE_COS:
        return [(_HALF, MODE_COS, fd, pd), (_HALF, MODE_COS, fs, ps)]
    if a.mode == MODE_SIN and b.mode == MODE_SIN:
        return [(_HALF, MODE_COS, fd, pd), (-_HALF, MODE_COS, fs, ps)]
    if a.mode == MODE_SIN:  # sin * cos
        return [(_HALF, MODE_SIN, fd, pd), (_HALF, MODE_SIN, fs, ps)]
    # cos * sin: swap roles so the sine owns the difference argument
    return [(_HALF, MODE_SIN, -fd, -pd), (_HALF, MODE_SIN, fs, ps)]


def hybrid_inner(f: HybridFunction | DyadicStep, g: HybridFunction | DyadicStep) -> float:
    """Inner product over [0,1], closed form on each common-refinement cell.

    The only approximation anywhere in the hybrid pipeline is the float
    rounding here; purely-constant contributions are accumulated exactly and
    converted once, so two const hybrids reproduce the exact step inner
    product to the last bit.
    """
    if isinstance(f, DyadicStep):
        f = HybridFunction.from_step(f)
    if isinstance(g, DyadicStep):
        g = HybridFunction.from_step(g)
    exact = Fraction(0)
    approx = 0.0
    for a in f.atoms:
        for b in g.atoms:
            terms = _product_terms(a, b)
            if terms is None:
                exact += Fraction(*_inner_parts(a.window, b.window))
                continue
            k = max(a.window.level, b.window.level)
            wa = a.window._cells(k).tolist()
            wb = b.window._cells(k).tolist()
            support = [i for i in range(1 << k) if wa[i] and wb[i]]
            columns = [(coef.numerator, coef.denominator,
                        _cell_integrals(kind, freq, phase, k, support))
                       for coef, kind, freq, phase in terms]
            # float(w * coef) as one correctly rounded integer division; the
            # cell weight w is (wa[i] / den_a) * (wb[i] / den_b)
            wd = a.window.den * b.window.den
            for pos, i in enumerate(support):
                wn = wa[i] * wb[i]
                for cn, cd, integrals in columns:
                    approx += (wn * cn) / (wd * cd) * integrals[pos]
    return float(exact) + approx


def hybrid_norm_sq(f: HybridFunction | DyadicStep) -> float:
    return hybrid_inner(f, f)


# ---------------------------------------------------------------------------
# The sine/cosine families and Fourier coefficients
# ---------------------------------------------------------------------------

def make_sine(n: int) -> HybridFunction:
    """sin(2 pi n x) on [0,1]; the zero function for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return HybridFunction.zero()
    return HybridFunction((make_atom(DyadicStep.ones(), MODE_SIN, Fraction(n)),))


def make_cos(n: int) -> HybridFunction:
    """cos(2 pi n x) on [0,1]; the constant one for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return HybridFunction.from_step(DyadicStep.ones())
    return HybridFunction((make_atom(DyadicStep.ones(), MODE_COS, Fraction(n)),))


def fourier_coeffs(f: HybridFunction | DyadicStep, max_n: int) -> tuple[list[float], list[float]]:
    """Cosine and sine coefficients c_n, s_n for n = 0..max_n (s_0 is 0)."""
    if isinstance(f, DyadicStep):
        f = HybridFunction.from_step(f)
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(f, DyadicStep):
        f = HybridFunction.from_step(f)
    if math.sqrt(max(hybrid_norm_sq(average_halves(f, 1)), 0.0)) < tol:
        return ANTIPERIODIC_HALF
    if math.sqrt(max(hybrid_norm_sq(average_halves(f, -1)), 0.0)) < tol:
        return PERIODIC_HALF
    return NEITHER
