"""Command-line front end: basis tables, expansion, entropy analysis,
Cantor spectrum tools, and the verification suite.

Exit codes: 0 success / all checks pass, 1 a mathematical check failed,
2 malformed input (bad CSV row, bad range, wrong sample count).  All data
files are byte-deterministic for fixed inputs: '.' decimals, LF line
endings, no timestamps; rationals are written as num/den unless --float
is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .basis import butterfly, walsh
from .cantor import lambda_set, gram_exponentials, verify_lambda_partition
from .dyadic import (DyadicStep, SampleError, _as_array, _peak, join_lifts, lift,
                     rational_str, word_str)
from .entropy import build_entropy_tree
from .verification import SUITES, run_suite

# size limits, checked before any input is read or memory allocated
MAX_ENTROPY_DEPTH = 16  # the mass tree has 2**(depth + 1) - 1 nodes
MAX_SPECTRUM_DEPTH = 11  # cantor gram scans all 2**p (2**p - 1) / 2 pairs, one row at a time
MAX_WALSH_INDEX = (1 << 16) - 1  # the step of index n has 2**bit_length(n) cells
MAX_WALSH_FILES = 256  # walsh writes one file per index of the range

IO_BLOCK = 4096  # expand and entropy read and write this many rows at a time


@dataclass
class RunConfig:
    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    level: Optional[int] = None
    depth: int = 6
    spectrum_depth: int = 4
    tol: Optional[float] = None  # verify --tol; None keeps each check's own
    out_format: str = "csv"
    as_float: bool = False
    suite: str = "all"
    index_range: Optional[str] = None
    cantor_sub: Optional[str] = None
    timings: bool = False


class InputError(Exception):
    """User input problem; reported on stderr with exit code 2."""


def _parse_range(text: str) -> range:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise InputError(f"bad index range {text!r}; use N or LO..HI") from None


def _read_samples(path: str) -> tuple[list[int], int]:
    """The samples of a file, one per non-blank line, lifted to integer
    numerators over their least common denominator (``dyadic.lift``).

    The file is read and lifted ``IO_BLOCK`` lines at a time and the blocks
    joined by ``dyadic.join_lifts``, so no list of every line is held.  A
    malformed sample is reported only after the rest of the file has been
    decoded: a decoding error anywhere in the file takes precedence.
    """
    def blocks(handle):
        first = 1  # the file line of the block's first line
        while lines := list(islice(handle, IO_BLOCK)):
            tokens = [line.strip() for line in lines]
            try:
                block = lift([token for token in tokens if token])
            except SampleError as exc:
                lineno = [n for n, token in enumerate(tokens, start=first) if token][exc.index]
                for _line in handle:
                    pass
                raise InputError(f"{path}: {exc.reason} on line {lineno}: {exc.value!r}") from None
            yield block
            first += len(lines)

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return join_lifts(blocks(handle))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


@contextmanager
def _output(path):
    """The text stream to write to: stdout when ``path`` is None, else the
    file at ``path``.  An OSError from creating or writing the file is
    raised as InputError naming it."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _check_output_path(path: str) -> None:
    """Refuse, before any work and without creating anything, a file path
    that is a directory or whose parent is missing or not a directory (a
    write that still fails later is reported by ``_output``)."""
    target = Path(path)
    if target.is_dir() or not target.parent.is_dir():
        reason = "it is a directory" if target.is_dir() else "its parent is not a directory"
        raise InputError(f"cannot write {path}: {reason}")


def _write_rows(config: RunConfig, header: list[str], rows: list[list]) -> None:
    with _output(config.output_path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(config: RunConfig, payload) -> None:
    with _output(config.output_path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_walsh(config: RunConfig) -> int:
    """One plot-ready file per basis index: (x_left, value) at minimal level.
    Each file's text is written directly; the JSON is the text of
    ``json.dump(payload, indent=2, sort_keys=True)`` and a newline."""
    indices = _parse_range(config.index_range or "")
    if not indices:
        return 0
    if indices[0] < 0:
        raise InputError("basis indices must be nonnegative")
    if indices[-1] > MAX_WALSH_INDEX:
        raise InputError(f"basis indices must be at most {MAX_WALSH_INDEX}, got {indices[-1]}")
    if len(indices) > MAX_WALSH_FILES:
        raise InputError(f"--range names {len(indices)} indices; "
                         f"at most {MAX_WALSH_FILES} files per call")
    if config.output_path is None:
        raise InputError("walsh needs --output DIR (one file per index)")
    out_dir = Path(config.output_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from None
    text_of = (lambda value: repr(float(value))) if config.as_float else rational_str
    for n in indices:
        step = walsh(n)
        cells = [(text_of(step.cell_left(i)), text_of(v)) for i, v in enumerate(step.coeffs)]
        if config.out_format == "json":
            rows = ",\n".join(f'    {{\n      "value": "{v}",\n      "x_left": "{x}"\n    }}'
                              for x, v in cells)
            text = (f'{{\n  "cells": [\n{rows}\n  ],\n  "index": {n},\n'
                    f'  "level": {step.level}\n}}\n')
        else:
            text = "x_left,value\n" + "".join(f"{x},{v}\n" for x, v in cells)
        with _output(out_dir / f"walsh_{n:04d}.{config.out_format}") as handle:
            handle.write(text)
    return 0


def _ingest(config: RunConfig) -> tuple[tuple[np.ndarray, int], int]:
    """The input's samples as ``(num, den)``, ``num`` a step's numerator
    array (``dyadic._as_array``), and its level."""
    if config.input_path is None:
        raise InputError("missing --input FILE")
    ints, den = _read_samples(config.input_path)
    count = len(ints)
    if count == 0 or count & (count - 1):
        raise InputError(f"{config.input_path}: sample count {count} is not a power of two")
    level = count.bit_length() - 1
    if config.level is not None and config.level != level:
        raise InputError(f"--level {config.level} does not match the file's "
                         f"{count} samples (level {level})")
    return (_as_array(ints), den), level


def _lowest_terms(rows: np.ndarray, den: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of ``rows / den`` in lowest terms."""
    if rows.dtype == np.int64 and den < 1 << 63:
        common = np.gcd(rows, den)
        return (rows // common).tolist(), (den // common).tolist()
    nums = rows.tolist()
    common = [math.gcd(num, den) for num in nums]
    return [num // g for num, g in zip(nums, common)], [den // g for g in common]


def _coefficient_rows(rows: np.ndarray, den: int, as_float: bool, row: str,
                      start: int) -> list[str]:
    """One ``row`` for each coefficient ``rows[n] / den``, formatted with its
    index ``start + n`` and, with ``as_float``, its float value (``str`` of
    a float is its ``repr``), else its numerator and denominator in lowest
    terms.

    The float divides Python ints, which rounds correctly as float(Fraction)
    does; a float64 division would not past 2**53.  A coefficient that
    cannot be written raises InputError naming its index.
    """
    texts = []
    n = start
    try:
        if as_float:
            for n, num in enumerate(rows.tolist(), start):
                texts.append(row.format(n, num / den))
        else:
            for n, (num, d) in enumerate(zip(*_lowest_terms(rows, den)), start):
                texts.append(row.format(n, num, d))
    except OverflowError:
        raise InputError(f"coefficient {n} is too large for --float") from None
    except ValueError:  # past the int to str digit limit
        raise InputError(f"coefficient {n} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    return texts


def _check_writable(rows: np.ndarray, den: int, as_float: bool, row: str) -> None:
    """Raise the InputError of the first coefficient ``rows[n] / den`` that
    cannot be written, before any output opens.

    In lowest terms no coefficient has a numerator above max|rows| or a
    denominator above ``den``: when those two fit, as text or as a float,
    every coefficient does (``int64`` rows over a ``den`` below 2**63
    always do), and only otherwise is each one formatted.
    """
    peak = _peak(rows)
    if as_float:
        if peak < den << 1023:  # every |coefficient| below 2**1023
            return
    else:
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if not limit or max(peak, den) < 10 ** limit:
            return
    for start in range(0, len(rows), IO_BLOCK):
        _coefficient_rows(rows[start:start + IO_BLOCK], den, as_float, row, start)


def cmd_expand(config: RunConfig) -> int:
    """Write the coefficients ``IO_BLOCK`` rows at a time.  The JSON is
    written directly: the text of ``json.dump(payload, indent=2,
    sort_keys=True)`` and a newline."""
    (num, den), level = _ingest(config)
    rows = butterfly(num, level).ravel()
    den <<= level
    if config.out_format == "json":
        value = "{}" if config.as_float else '"{}/{}"'
        head, sep = '{\n  "basis": "walsh",\n  "coefficients": [\n', ",\n"
        row = '    {{\n      "index": {},\n      "value": ' + value + '\n    }}'
        tail = f'\n  ],\n  "level": {level}\n}}\n'
    else:
        head = "index,value\n" if config.as_float else "index,num,den\n"
        row = "{},{}" if config.as_float else "{},{},{}"
        sep, tail = "\n", "\n"
    _check_writable(rows, den, config.as_float, row)
    with _output(config.output_path) as handle:
        handle.write(head)
        for start in range(0, len(rows), IO_BLOCK):
            texts = _coefficient_rows(rows[start:start + IO_BLOCK], den, config.as_float,
                                      row, start)
            handle.write((sep if start else "") + sep.join(texts))
        handle.write(tail)
    return 0


def _entropy_rows(tree, best: set, k: int, start: int, as_float: bool) -> list[str]:
    """The CSV rows of the length-k words with codes ``start`` onwards, at
    most ``IO_BLOCK`` of them: word, mass (with ``as_float`` its float,
    else num/den in lowest terms), entropy term and best-leaf flag."""
    (nums, den), terms = tree.levels[k], tree.terms[k]
    nums = nums[start:start + IO_BLOCK]
    masses = ([repr(num / den) for num in nums] if as_float else
              [f"{num}/{d}" for num, d in zip(*_lowest_terms(_as_array(nums), den))])
    return [f"{word_str(k, code)},{mass},{terms[code]!r},{int((k, code) in best)}\n"
            for code, mass in enumerate(masses, start)]


def cmd_entropy(config: RunConfig) -> int:
    """Write the rows from the tree's integer mass levels, ``IO_BLOCK`` at a
    time, once every mass is proved writable; the JSON is ``tree.to_json()``."""
    (num, _den), level = _ingest(config)
    if not num.any():
        raise InputError("cannot analyze the zero signal")
    # every mass is a ratio of sums of squares, so the scale leaves the tree
    # unchanged: it is built from the integer step den * f / gcd
    num = _as_array((num // np.gcd.reduce(num)).tolist())
    tree = build_entropy_tree(DyadicStep._trusted(level, num, 1), config.depth)
    if config.out_format == "json":
        _write_json(config, tree.to_json())
        return 0
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and not config.as_float:
        # a mass is at most 1, so in lowest terms neither of its terms is above
        # its level's den: only a level whose den passes the limit is reduced
        for k, (nums, den) in enumerate(tree.levels):
            for start in range(0, len(nums) if den >= 10 ** limit else 0, IO_BLOCK):
                _, dens = _lowest_terms(_as_array(nums[start:start + IO_BLOCK]), den)
                for code, d in enumerate(dens, start):
                    if d >= 10 ** limit:
                        raise InputError(f"mass of word {word_str(k, code)} has more "
                                         f"than {limit} digits")
    best = {(len(word), word.code) for word in tree.best_leaves}
    with _output(config.output_path) as handle:
        handle.write("word,mass,entropy,best_leaf\n")
        for k, (nums, _den) in enumerate(tree.levels):
            for start in range(0, len(nums), IO_BLOCK):
                handle.write("".join(_entropy_rows(tree, best, k, start, config.as_float)))
    return 0


def cmd_cantor(config: RunConfig) -> int:
    sub = config.cantor_sub
    p = config.spectrum_depth
    if sub == "spectrum":
        points = lambda_set(p)
        if config.out_format == "json":
            _write_json(config, [{"lambda": pt.value, "digits": _digit_string(pt, p)}
                                 for pt in points])
        else:
            _write_rows(config, ["lambda", "digits"],
                        [[pt.value, _digit_string(pt, p)] for pt in points])
        return 0
    if sub == "gram":
        report = gram_exponentials(p)
        _emit_report(config, report)
        return 0 if report.passed else 1
    if sub == "partition":
        report = verify_lambda_partition(p)
        rows = []
        for pt in lambda_set(p):
            if pt.value == 0:
                continue
            m, j = pt.value, 0
            while m % 4 == 0:
                m //= 4
                j += 1
            rows.append([pt.value, m, j])
        if config.out_format == "json":
            _write_json(config, {"report": report.to_json(),
                                 "orbits": [{"lambda": a, "odd": b, "power": c}
                                            for a, b, c in rows]})
        else:
            _write_rows(config, ["lambda", "odd_m", "power"], rows)
        return 0 if report.passed else 1
    raise InputError(f"unknown cantor subcommand {sub!r}")


def _digit_string(point, p: int) -> str:
    digits = list(point.digits) + [0] * (p - len(point.digits))
    return "".join(str(d) for d in reversed(digits)) or "0"


def _emit_report(config: RunConfig, report) -> None:
    if config.out_format == "json":
        _write_json(config, report.to_json())
    else:
        _write_rows(config, ["relation", "maxViolation", "witness", "passed", "checked"],
                    [[report.relation, repr(report.max_violation),
                      report.witness or "", int(report.passed), report.checked]])


def cmd_verify(config: RunConfig) -> int:
    start = time.perf_counter()
    reports = run_suite(config.suite, tol_override=config.tol)
    total_s = time.perf_counter() - start
    if config.out_format == "json":
        payload = [r.to_json(timings=config.timings) for r in reports]
        if config.timings:
            payload = {"reports": payload, "elapsedSeconds": total_s}
        _write_json(config, payload)
    else:
        with _output(config.output_path) as handle:
            for report in reports:
                print(f"{report} {report.elapsed_s:.3f}s" if config.timings else report,
                      file=handle)
            if config.timings:
                print(f"total {total_s:.3f}s for {len(reports)} checks", file=handle)
    failed = [r for r in reports if not r.passed]
    if failed and config.out_format != "json":
        print(f"{len(failed)} of {len(reports)} checks failed", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuntz-bases",
        description="Localized orthonormal bases from subdivision isometries: "
                    "basis tables, exact expansions, entropy analysis, and the "
                    "Cantor spectrum.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")

    p_walsh = sub.add_parser("walsh", help="emit basis steps as plot-ready files")
    p_walsh.add_argument("--range", dest="index_range", required=True,
                         help="index or inclusive range, e.g. 3 or 0..31")
    p_walsh.add_argument("--output", help="output directory (one file per index)")
    p_walsh.add_argument("--format", choices=("csv", "json"), default="csv")
    p_walsh.add_argument("--float", dest="as_float", action="store_true",
                         help="write decimal values instead of num/den")

    p_expand = sub.add_parser("expand", help="exact expansion of a sampled signal")
    p_expand.add_argument("--input", required=True, help="CSV, one sample per line")
    p_expand.add_argument("--level", type=int, default=None,
                          help="signal level (file must hold 2^level samples)")
    p_expand.add_argument("--float", dest="as_float", action="store_true")
    common(p_expand)

    p_entropy = sub.add_parser("entropy", help="subdivision-tree masses, entropy, best basis")
    p_entropy.add_argument("--input", required=True)
    p_entropy.add_argument("--level", type=int, default=None)
    p_entropy.add_argument("--depth", type=int, default=6, help="tree depth (default 6)")
    p_entropy.add_argument("--float", dest="as_float", action="store_true")
    common(p_entropy)

    p_cantor = sub.add_parser("cantor", help="Cantor spectrum tables and certificates")
    p_cantor.add_argument("subcommand", choices=("spectrum", "gram", "partition"))
    p_cantor.add_argument("--p", type=int, default=4, help="spectrum digit depth (default 4)")
    common(p_cantor)

    p_verify = sub.add_parser("verify", help="run the property-check suites")
    p_verify.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_verify.add_argument("--timings", action="store_true",
                          help="add each check's wall time and the suite total")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="replace the tolerance of the float-based checks")
    common(p_verify)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.input_path = getattr(args, "input", None)
    config.output_path = getattr(args, "output", None)
    config.level = getattr(args, "level", None)
    config.depth = getattr(args, "depth", 6)
    config.spectrum_depth = getattr(args, "p", 4)
    config.out_format = getattr(args, "format", "csv")
    config.as_float = getattr(args, "as_float", False)
    config.suite = getattr(args, "suite", "all")
    config.index_range = getattr(args, "index_range", None)
    config.cantor_sub = getattr(args, "subcommand", None)
    config.timings = getattr(args, "timings", False)
    if config.command == "entropy" and not 1 <= config.depth <= MAX_ENTROPY_DEPTH:
        raise InputError(f"--depth must be between 1 and {MAX_ENTROPY_DEPTH}, "
                         f"got {config.depth}")
    if config.command == "cantor" and not 0 <= config.spectrum_depth <= MAX_SPECTRUM_DEPTH:
        raise InputError(f"--p must be between 0 and {MAX_SPECTRUM_DEPTH}, "
                         f"got {config.spectrum_depth}")
    config.tol = getattr(args, "tol", None)
    if config.tol is not None:
        if not config.tol > 0:  # NaN fails this too
            raise InputError("--tol must be positive")
        if math.isinf(config.tol):
            raise InputError("--tol must be finite")
    if config.output_path is not None and config.command != "walsh":
        _check_output_path(config.output_path)
    return config


_COMMANDS = {
    "walsh": cmd_walsh,
    "expand": cmd_expand,
    "entropy": cmd_entropy,
    "cantor": cmd_cantor,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return _COMMANDS[config.command](config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
