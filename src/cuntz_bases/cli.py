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
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .basis import butterfly, walsh
from .dyadic import DyadicStep, SampleError, _peak, join_lifts, lift, word_str
from .reporting import SUITES

# cantor, entropy and verification are imported by the commands that use
# them, so that a process loads only what its command runs

# size limits, checked before any input is read or memory allocated
MAX_ENTROPY_DEPTH = 16  # the mass tree has 2**(depth + 1) - 1 nodes
MAX_SPECTRUM_DEPTH = 11  # cantor gram scans all 2**p (2**p - 1) / 2 pairs, one row at a time
MAX_WALSH_INDEX = (1 << 16) - 1  # the step of index n has 2**bit_length(n) cells
MAX_WALSH_FILES = 256  # walsh writes one file per index of the range

IO_BLOCK = 4096  # signal lines read, and output rows written, at a time


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


def _read_samples(path: str) -> tuple[np.ndarray, int]:
    """The samples of a file, one per non-blank line, lifted to a step's
    integer numerator array over their least common denominator
    (``dyadic.lift``), and that denominator.

    The file is read and lifted ``IO_BLOCK`` lines at a time, each block
    kept as an array until ``dyadic.join_lifts`` joins them, so no list of
    every line is held.  A malformed sample is reported only after the rest
    of the file has been decoded: a decoding error anywhere in the file
    takes precedence.  A UTF-8 byte-order mark at the start of the file is
    skipped.
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
        with open(path, "r", encoding="utf-8-sig") as handle:
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


def _write_rows(path, header: list[str], rows: list[list]) -> None:
    with _output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with _output(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# streamed row outputs: walsh, expand and entropy
# ---------------------------------------------------------------------------

def _json_row(**fields) -> str:
    """The row template of one JSON object in a list, its keys sorted."""
    pairs = ",\n".join(f'      "{key}": {value}' for key, value in sorted(fields.items()))
    return "    {{\n" + pairs + "\n    }}"


# (row, head, separator, tail) of each row output by (format, --float).
# Each row is formatted with its column values, head and tail with the
# command's fields; a JSON layout writes the text of json.dump(payload,
# indent=2, sort_keys=True) and a newline.  A rational value takes two
# columns, its numerator and denominator in lowest terms, or under --float
# one float (``str`` of a float is its repr, as in JSON).
_COEFFICIENTS = ('{{\n  "basis": "walsh",\n  "coefficients": [\n', ",\n",
                 '\n  ],\n  "level": {level}\n}}\n')
EXPAND_LAYOUTS = {  # columns: index, value
    ("csv", False): ("{},{},{}\n", "index,num,den\n", "", ""),
    ("csv", True): ("{},{}\n", "index,value\n", "", ""),
    ("json", False): (_json_row(index="{}", value='"{}/{}"'), *_COEFFICIENTS),
    ("json", True): (_json_row(index="{}", value="{}"), *_COEFFICIENTS),
}
_CELLS = '{{\n  "cells": [\n', ",\n", '\n  ],\n  "index": {index},\n  "level": {level}\n}}\n'
WALSH_LAYOUTS = {  # columns: x_left, value
    ("csv", False): ("{}/{},{}/{}\n", "x_left,value\n", "", ""),
    ("csv", True): ("{},{}\n", "x_left,value\n", "", ""),
    ("json", False): (_json_row(x_left='"{0}/{1}"', value='"{2}/{3}"'), *_CELLS),
    ("json", True): (_json_row(x_left='"{0}"', value='"{1}"'), *_CELLS),
}
ENTROPY_LAYOUTS = {  # columns: word, mass, entropy term, best-leaf flag
    ("csv", False): ("{},{}/{},{},{}\n", "word,mass,entropy,best_leaf\n", "", ""),
    ("csv", True): ("{},{},{},{}\n", "word,mass,entropy,best_leaf\n", "", ""),
    # every mass a float
    ("json", True): (_json_row(word='"{0}"', mass="{1}", entropy="{2}", bestLeaf="{3}"),
                     '{{\n  "bestCost": {best_cost},\n  "depth": {depth},\n  "levelEntropy": '
                     '[\n{level_entropy}\n  ],\n  "nodes": [\n', ",\n", "\n  ]\n}}\n"),
}


def _stream(path, layout: tuple[str, str, str, str], blocks, **fields) -> None:
    """Write ``layout`` to ``path`` (stdout when None): its head, then one
    row for each set of column values, a block of at most ``IO_BLOCK`` rows
    per write and the separator between rows, then its tail."""
    row, head, sep, tail = layout
    with _output(path) as handle:
        handle.write(head.format(**fields))
        for i, columns in enumerate(blocks):
            handle.write((sep if i else "") + sep.join(map(row.format, *columns)))
        handle.write(tail.format(**fields))


def _ratio_columns(rows: np.ndarray, den: int, as_float: bool) -> tuple[list, ...]:
    """The values ``rows / den`` as row columns: with ``as_float`` their
    floats (Python int division rounds correctly, as float(Fraction) does, and
    float64 would not past 2**53), else their numerators and denominators
    in lowest terms."""
    if as_float:
        return [num / den for num in rows.tolist()],
    if rows.dtype == np.int64 and den < 1 << 63:
        common = np.gcd(rows, den)
        return (rows // common).tolist(), (den // common).tolist()
    nums = rows.tolist()
    common = [math.gcd(num, den) for num in nums]
    return [num // g for num, g in zip(nums, common)], [den // g for g in common]


def _check_writable(rows, den: int, peak: int, as_float: bool, name) -> None:
    """Before any output opens, raise the InputError of the first value
    ``rows[n] / den`` (rows an array) that cannot be written as a
    float or as num/den text, named by ``name(n)``.  In lowest terms no value
    has a numerator above ``peak`` (max|rows|, or ``den`` for a mass, which
    is at most 1) or a denominator above ``den``: only when those two do
    not fit is each value reduced."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    bound = 10 ** limit
    if (peak < den << 1023) if as_float else (not limit or max(peak, den) < bound):
        return
    for start in range(0, len(rows), IO_BLOCK):
        block = _ratio_columns(rows[start:start + IO_BLOCK], den, False)
        for n, (num, d) in enumerate(zip(*block), start):
            if as_float:
                try:
                    num / d
                except OverflowError:
                    raise InputError(f"{name(n)} is too large for --float") from None
            elif max(abs(num), d) >= bound:
                raise InputError(f"{name(n)} has more than {limit} digits")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_walsh(args: argparse.Namespace) -> int:
    """One plot-ready file per basis index, (x_left, value) for each cell at
    the step's minimal level, streamed through ``_stream``."""
    indices = _parse_range(args.index_range)
    if not indices:
        return 0
    if indices[0] < 0 or indices[-1] > MAX_WALSH_INDEX:
        raise InputError(f"basis indices must be between 0 and {MAX_WALSH_INDEX}, "
                         f"got {indices[0]}..{indices[-1]}")
    if len(indices) > MAX_WALSH_FILES:
        raise InputError(f"--range names {len(indices)} indices; "
                         f"at most {MAX_WALSH_FILES} files per call")
    if args.output is None:
        raise InputError("walsh needs --output DIR (one file per index)")
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from None
    layout = WALSH_LAYOUTS[args.format, args.as_float]
    for n in indices:
        step = walsh(n)
        cells = np.arange(1 << step.level)  # cell i starts at x = i / 2**level
        blocks = ([*_ratio_columns(cells[start:start + IO_BLOCK], len(cells), args.as_float),
                   *_ratio_columns(step.num[start:start + IO_BLOCK], step.den, args.as_float)]
                  for start in range(0, len(cells), IO_BLOCK))
        _stream(out_dir / f"walsh_{n:04d}.{args.format}", layout, blocks,
                index=n, level=step.level)
    return 0


def _ingest(args: argparse.Namespace) -> tuple[tuple[np.ndarray, int], int]:
    """The input's samples as ``(num, den)``, ``num`` a step's numerator
    array as ``dyadic.lift`` gives it, and its level."""
    num, den = _read_samples(args.input)
    count = len(num)
    if count == 0 or count & (count - 1):
        raise InputError(f"{args.input}: sample count {count} is not a power of two")
    level = count.bit_length() - 1
    if args.level is not None and args.level != level:
        raise InputError(f"--level {args.level} does not match the file's "
                         f"{count} samples (level {level})")
    return (num, den), level


def cmd_expand(args: argparse.Namespace) -> int:
    """Stream the Walsh coefficients through ``_stream`` once every one is
    proved writable."""
    (num, den), level = _ingest(args)
    rows = butterfly(num, level).ravel()
    den <<= level
    _check_writable(rows, den, _peak(rows), args.as_float, "coefficient {}".format)
    blocks = ([range(start, start + IO_BLOCK),
               *_ratio_columns(rows[start:start + IO_BLOCK], den, args.as_float)]
              for start in range(0, len(rows), IO_BLOCK))
    _stream(args.output, EXPAND_LAYOUTS[args.format, args.as_float], blocks,
            level=level)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    """Stream one row per tree node, from the tree's integer mass levels,
    through ``_stream`` once every mass is proved writable."""
    (num, _den), level = _ingest(args)
    if not num.any():
        raise InputError("cannot analyze the zero signal")
    # every mass is a ratio of sums of squares, so the scale leaves the tree
    # unchanged: it is built from the integer step den * f / gcd
    from .entropy import build_entropy_tree
    tree = build_entropy_tree(DyadicStep._reduced(level, num // np.gcd.reduce(num), 1),
                              args.depth)
    as_float = args.as_float or args.format == "json"
    for k, (nums, den) in enumerate(tree.levels):
        _check_writable(nums, den, den, as_float, lambda code: f"mass of word {word_str(k, code)}")
    best = {(len(word), word.code) for word in tree.best_leaves}
    no, yes = ("false", "true") if args.format == "json" else ("0", "1")

    def blocks():
        for k, ((nums, den), terms) in enumerate(zip(tree.levels, tree.terms)):
            for start in range(0, len(nums), IO_BLOCK):
                codes = range(start, min(start + IO_BLOCK, len(nums)))
                yield [[word_str(k, code) for code in codes],
                       *_ratio_columns(nums[start:start + IO_BLOCK], den, as_float),
                       terms[start:start + IO_BLOCK],
                       [yes if (k, code) in best else no for code in codes]]

    level_entropy = ",\n".join(f"    {e!r}" for e in tree.level_entropy)
    _stream(args.output, ENTROPY_LAYOUTS[args.format, as_float], blocks(),
            best_cost=tree.best_cost, depth=tree.depth, level_entropy=level_entropy)
    return 0


def cmd_cantor(args: argparse.Namespace) -> int:
    from .cantor import _lowest_bit, gram_exponentials, lambda_set, verify_lambda_partition
    sub = args.cantor_sub
    p = args.p
    if sub == "spectrum":
        points = lambda_set(p)
        if args.format == "json":
            _write_json(args.output, [{"lambda": pt.value, "digits": _digit_string(pt, p)}
                                      for pt in points])
        else:
            _write_rows(args.output, ["lambda", "digits"],
                        [[pt.value, _digit_string(pt, p)] for pt in points])
        return 0
    if sub == "gram":
        report = gram_exponentials(p)
        _emit_report(args, report)
        return 0 if report.passed else 1
    # partition: each nonzero point is 4**j times the odd m, j half its lowest bit
    report = verify_lambda_partition(p)
    rows = []
    for pt in lambda_set(p)[1:]:
        j = _lowest_bit(pt.value) // 2
        rows.append([pt.value, pt.value >> 2 * j, j])
    if args.format == "json":
        _write_json(args.output, {"report": report.to_json(),
                                  "orbits": [{"lambda": a, "odd": b, "power": c}
                                             for a, b, c in rows]})
    else:
        _write_rows(args.output, ["lambda", "odd_m", "power"], rows)
    return 0 if report.passed else 1


def _digit_string(point, p: int) -> str:
    """The point's p base-4 digits, highest first ("0" when p is 0)."""
    return "".join(map(str, reversed(point.digits))).zfill(p) or "0"


def _emit_report(args: argparse.Namespace, report) -> None:
    if args.format == "json":
        _write_json(args.output, report.to_json())
    else:
        _write_rows(args.output, ["relation", "maxViolation", "witness", "passed", "checked"],
                    [[report.relation, repr(report.max_violation),
                      report.witness or "", int(report.passed), report.checked]])


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_suite
    start = time.perf_counter()
    reports = run_suite(args.suite, tol_override=args.tol)
    total_s = time.perf_counter() - start
    if args.format == "json":
        payload = [r.to_json(timings=args.timings) for r in reports]
        if args.timings:
            payload = {"reports": payload, "elapsedSeconds": total_s}
        _write_json(args.output, payload)
    else:
        with _output(args.output) as handle:
            for report in reports:
                print(f"{report} {report.elapsed_s:.3f}s" if args.timings else report,
                      file=handle)
            if args.timings:
                print(f"total {total_s:.3f}s for {len(reports)} checks", file=handle)
    failed = [r for r in reports if not r.passed]
    if failed and args.format != "json":
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
    p_cantor.add_argument("cantor_sub", choices=("spectrum", "gram", "partition"))
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


def _check_args(args: argparse.Namespace) -> None:
    """Refuse, before any work, an entropy depth, a cantor digit depth or a
    verify tolerance out of range and an unwritable output file; the parsed
    namespace is then the run's configuration."""
    if args.command == "entropy" and not 1 <= args.depth <= MAX_ENTROPY_DEPTH:
        raise InputError(f"--depth must be between 1 and {MAX_ENTROPY_DEPTH}, "
                         f"got {args.depth}")
    if args.command == "cantor" and not 0 <= args.p <= MAX_SPECTRUM_DEPTH:
        raise InputError(f"--p must be between 0 and {MAX_SPECTRUM_DEPTH}, "
                         f"got {args.p}")
    if args.command == "verify" and args.tol is not None:
        if not args.tol > 0:  # NaN fails this too
            raise InputError("--tol must be positive")
        if math.isinf(args.tol):
            raise InputError("--tol must be finite")
    if args.output is not None and args.command != "walsh":
        _check_output_path(args.output)


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
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
