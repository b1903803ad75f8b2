"""Workloads of the cuntz-bases benchmark.

``build(name, work, seed)`` writes the workload's seeded inputs into
``work`` and returns the operations of one repetition.  Each operation is
one program invocation: a ``cuntz-bases`` CLI command, as a user runs it,
or a process of library calls (``libcalls.py``).  Each carries the
exactness check of its output, which the runner calls outside the timed
region.  A check returns ``(attempted, failed)`` operation counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from cuntz_bases import DyadicStep, walsh

# stdout of `cuntz-bases verify --suite all`: 42 PASS lines, byte-for-byte
VERIFY_LINES = 42
VERIFY_SHA256 = "449b342d0f776bbe984fe9a896b2e7116c84ff58aaffb76bee2475e84d5ace18"

ENTROPY_DEPTH = 8
CANTOR_P = 11  # CLI gram / partition depth
CANTOR_LIB_P = 10  # coefficient_table / bessel_sum depth
CANTOR_STEP_LEVELS = (4, 5, 6)
CANTOR_NONZERO_CELLS = 4  # exp_coefficient cost is per nonzero cell: fixed per seed
INDICATOR_WORDS = 4
INDICATOR_WORD_LEN = 8
INNER_SAMPLES = 4  # coefficients re-derived as inner(walsh(n), f) per output


@dataclass
class Op:
    name: str
    kind: str  # "cli": cuntz_bases.cli arguments; "lib": libcalls.py arguments
    args: list
    stdout: Path
    check: Callable[[int], tuple[int, int]]  # exit code -> (attempted, failed)


def build(name: str, work: Path, seed: int) -> list[Op]:
    return WORKLOADS[name](work, random.Random(seed))


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _verify_all(work: Path, rng: random.Random) -> list[Op]:
    out = work / "verify.out"

    def check(code: int) -> tuple[int, int]:
        data = out.read_bytes()
        lines = data.decode("utf-8", "replace").splitlines()
        ok = (code == 0 and len(lines) == VERIFY_LINES
              and all(line.startswith("PASS ") for line in lines)
              and hashlib.sha256(data).hexdigest() == VERIFY_SHA256)
        return 1, int(not ok)

    return [Op("verify", "cli", ["verify", "--suite", "all"], out, check)]


# ---------------------------------------------------------------------------
# signal-cantor: the signal operations
# ---------------------------------------------------------------------------

def _int_signal(rng, level):
    values = [rng.randint(-9, 9) for _ in range(1 << level)]
    return [str(v) for v in values], [Fraction(v) for v in values]


def _decimal_signal(rng, level):
    """3-place decimals: exact Fractions whose denominators are mostly not 2^k."""
    texts, values = [], []
    for _ in range(1 << level):
        m = rng.randint(-9999, 9999)
        sign = "-" if m < 0 else ""
        texts.append(f"{sign}{abs(m) // 1000}.{abs(m) % 1000:03d}")
        values.append(Fraction(m, 1000))
    return texts, values


def _bit_reverse(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    index = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((index >> b) & 1) << (bits - 1 - b)
    return rev


def _synthesize_scaled(scaled: list[int]) -> list[int]:
    """Independent inverse of the square-wave transform on integers.

    walsh(n) on cell i is (-1)^popcount(n & bitreverse(i)), so synthesis is
    a natural-order Hadamard transform read in bit-reversed order.
    """
    n = len(scaled)
    wide = max(abs(x) for x in scaled) * n >= 1 << 62
    vec = np.array(scaled, dtype=object if wide else np.int64)
    h = 1
    while h < n:
        vec = vec.reshape(-1, 2, h)
        vec = np.stack((vec[:, 0] + vec[:, 1], vec[:, 0] - vec[:, 1]), axis=1)
        h *= 2
    return vec.reshape(n)[_bit_reverse(n)].tolist()


def coefficients_exact(values: list[Fraction], coeffs: list[Fraction],
                       rng: random.Random) -> bool:
    """Coefficients synthesize back to the signal exactly, satisfy Parseval
    exactly, and a seeded sample equals inner(walsh(n), f)."""
    n = len(values)
    if len(coeffs) != n:
        return False
    den = math.lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (den // c.denominator) for c in coeffs]
    cells = _synthesize_scaled(scaled)
    if any(v * den != g for v, g in zip(values, cells)):
        return False
    if n * sum(a * a for a in scaled) != sum(g * g for g in cells):
        return False
    f = DyadicStep(n.bit_length() - 1, values)
    return all(walsh(k).inner(f) == coeffs[k] for k in rng.sample(range(n), INNER_SAMPLES))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _expand_check(out: Path, values, rng):
    def check(code: int) -> tuple[int, int]:
        rows = _read_csv(out)
        ok = code == 0 and rows[:1] == [["index", "num", "den"]]
        if ok:
            body = rows[1:]
            ok = [int(r[0]) for r in body] == list(range(len(body)))
            coeffs = [Fraction(int(r[1]), int(r[2])) for r in body]
            ok = ok and coefficients_exact(values, coeffs, rng)
        return 1, int(not ok)
    return check


def _entropy_check(out: Path, depth: int):
    def check(code: int) -> tuple[int, int]:
        rows = _read_csv(out)
        if code != 0 or rows[:1] != [["word", "mass", "entropy", "best_leaf"]]:
            return 1, 1
        masses = {r[0]: Fraction(r[1]) for r in rows[1:]}
        words = [format(code_, f"0{k}b") if k else ""
                 for k in range(depth + 1) for code_ in range(1 << k)]
        ok = sorted(masses) == sorted(words) and masses[""] == 1
        for k in range(1, depth + 1):
            ok = ok and sum(m for w, m in masses.items() if len(w) == k) == 1
        for w in words:
            if ok and len(w) < depth:
                ok = masses[w] == masses[w + "0"] + masses[w + "1"]
        return 1, int(not ok)
    return check


def _roundtrip_check(out: Path, signals: dict, rng):
    def check(code: int) -> tuple[int, int]:
        if code != 0 or not out.exists():
            return len(signals), len(signals)
        result = json.loads(out.read_text())
        failed = 0
        for name, values in signals.items():
            coeffs = [Fraction(c) for c in result[name]["coeffs"]]
            synth = [Fraction(c) for c in result[name]["synth"]]
            ok = synth == values and coefficients_exact(values, coeffs, rng)
            failed += not ok
        return len(signals), failed
    return check


def _signal_cli(work: Path, rng: random.Random) -> list[Op]:
    ops = []
    expand = [("int16", _int_signal, 16), ("int14", _int_signal, 14),
              ("dec14", _decimal_signal, 14)]
    signals = {}
    for name, make, level in expand + [("int12", _int_signal, 12),
                                       ("dec12", _decimal_signal, 12)]:
        texts, values = make(rng, level)
        (work / f"{name}.csv").write_text("\n".join(texts) + "\n")
        signals[name] = values
    for name, _make, _level in expand:
        out = work / f"expand-{name}.csv"
        ops.append(Op(f"expand-{name}", "cli", ["expand", "--input", str(work / f"{name}.csv")],
                      out, _expand_check(out, signals[name], random.Random(rng.random()))))
    for name in ("int14", "dec14"):
        out = work / f"entropy-{name}.csv"
        ops.append(Op(f"entropy-{name}", "cli",
                      ["entropy", "--input", str(work / f"{name}.csv"),
                       "--depth", str(ENTROPY_DEPTH)], out, _entropy_check(out, ENTROPY_DEPTH)))
    roundtrip = ("int12", "dec12")
    spec = work / "roundtrip.json"
    spec.write_text(json.dumps({"signals": {n: str(work / f"{n}.csv") for n in roundtrip}}))
    out = work / "roundtrip.out.json"
    ops.append(Op("roundtrip", "lib", ["roundtrip", str(spec), str(out)], work / "roundtrip.stdout",
                  _roundtrip_check(out, {n: signals[n] for n in roundtrip},
                                   random.Random(rng.random()))))
    return ops


# ---------------------------------------------------------------------------
# signal-cantor: the Cantor operations
# ---------------------------------------------------------------------------

def _spectrum(p: int) -> list[int]:
    return sorted(sum(((mask >> i) & 1) << (2 * i) for i in range(p)) for mask in range(1 << p))


def _gram_check(out: Path, p: int):
    def check(code: int) -> tuple[int, int]:
        rows = _read_csv(out)
        n = 1 << p
        ok = (code == 0 and len(rows) == 2 and rows[1][3] == "1"
              and int(rows[1][4]) == n * (n - 1) // 2)
        return 1, int(not ok)
    return check


def _partition_check(out: Path, p: int):
    def check(code: int) -> tuple[int, int]:
        rows = _read_csv(out)
        ok = code == 0 and rows[:1] == [["lambda", "odd_m", "power"]]
        body = [tuple(int(x) for x in r) for r in rows[1:]] if ok else []
        ok = ok and [r[0] for r in body] == _spectrum(p)[1:]
        ok = ok and all(m % 2 == 1 and lam == m * 4 ** j for lam, m, j in body)
        return 1, int(not ok)
    return check


def _cantor_lib_check(out: Path, steps: list[dict], words: list[list[int]], p: int):
    calls = 2 * len(steps) + len(words)

    def check(code: int) -> tuple[int, int]:
        if code != 0 or not out.exists():
            return calls, calls
        result = json.loads(out.read_text())
        if (len(result["tables"]) != len(steps) or len(result["bessel"]) != len(steps)
                or len(result["indicator"]) != len(words)):
            return calls, calls
        spectrum = _spectrum(p)
        failed = 0
        for step, table, bessel in zip(steps, result["tables"], result["bessel"]):
            coeffs, cells = step["coeffs"], 1 << step["level"]
            energy = sum(row["re"] ** 2 + row["im"] ** 2 for row in table)
            mean = Fraction(sum(coeffs), cells)
            norm_sq = Fraction(sum(c * c for c in coeffs), cells)
            table_ok = ([row["lambda"] for row in table] == spectrum
                        and abs(table[0]["re"] - float(mean)) <= 1e-12
                        and abs(table[0]["im"]) <= 1e-12)
            bessel_ok = (0.0 <= bessel <= float(norm_sq) + 1e-10
                         and abs(energy - bessel) <= 1e-12 * max(1.0, bessel))
            failed += (not table_ok) + (not bessel_ok)
        for word, report in zip(words, result["indicator"]):
            label = "".join(str(d) for d in word)
            failed += not (report["passed"] and report["checked"] == 1 << len(word)
                           and report["relation"] == f"cell-indicator-expansion-{label}")
        return calls, failed
    return check


def _cantor_spectrum(work: Path, rng: random.Random) -> list[Op]:
    ops = []
    for sub, make_check in (("gram", _gram_check), ("partition", _partition_check)):
        out = work / f"cantor-{sub}.csv"
        ops.append(Op(f"cantor-{sub}", "cli", ["cantor", sub, "--p", str(CANTOR_P)],
                      out, make_check(out, CANTOR_P)))
    steps = []
    for level in CANTOR_STEP_LEVELS:
        coeffs = [0] * (1 << level)
        for cell in rng.sample(range(1 << level), CANTOR_NONZERO_CELLS):
            coeffs[cell] = rng.choice((-3, -2, -1, 1, 2, 3))
        steps.append({"level": level, "coeffs": coeffs})
    words = [[rng.randint(0, 1) for _ in range(INDICATOR_WORD_LEN)]
             for _ in range(INDICATOR_WORDS)]
    spec = work / "cantor.json"
    spec.write_text(json.dumps({"p": CANTOR_LIB_P, "steps": steps, "words": words}))
    out = work / "cantor.out.json"
    ops.append(Op("cantor-lib", "lib", ["cantor", str(spec), str(out)], work / "cantor.stdout",
                  _cantor_lib_check(out, steps, words, CANTOR_LIB_P)))
    return ops


def _signal_cantor(work: Path, rng: random.Random) -> list[Op]:
    """The signal operations, then the Cantor ones, in one repetition.

    Two workloads instead of three let every run of the benchmark measure
    longer within the same total time; the machine's speed drifts over
    minutes, and longer runs average more of it.
    """
    return _signal_cli(work, rng) + _cantor_spectrum(work, rng)


WORKLOADS: dict[str, Callable[[Path, random.Random], list[Op]]] = {
    "verify-all": _verify_all,
    "signal-cantor": _signal_cantor,
}
