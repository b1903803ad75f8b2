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
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .basis import ingest_signal, walsh, walsh_expand
from .cantor import lambda_set, gram_exponentials, verify_lambda_partition
from .dyadic import Scalar, rational_str
from .entropy import build_entropy_tree
from .verification import SUITES, run_suite

# size limits, checked before any input is read or memory allocated
MAX_ENTROPY_DEPTH = 16  # the mass tree has 2**(depth + 1) - 1 nodes
MAX_SPECTRUM_DEPTH = 11  # cantor gram scans all 2**p (2**p - 1) / 2 pairs, one row at a time
MAX_WALSH_INDEX = (1 << 16) - 1  # the step of index n has 2**bit_length(n) cells
MAX_WALSH_FILES = 256  # walsh writes one file per index of the range


@dataclass
class RunConfig:
    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    level: Optional[int] = None
    depth: int = 6
    spectrum_depth: int = 4
    tol: float = 1e-10
    out_format: str = "csv"
    as_float: bool = False
    suite: str = "all"
    index_range: Optional[str] = None
    cantor_sub: Optional[str] = None
    tol_overridden: bool = False
    timings: bool = False


class InputError(Exception):
    """User input problem; reported on stderr with exit code 2."""


def _scalar_str(value, as_float: bool) -> str:
    if as_float:
        return repr(float(value))
    return rational_str(value)


def _parse_range(text: str) -> range:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise InputError(f"bad index range {text!r}; use N or LO..HI") from None


def _read_samples(path: str) -> list[Scalar]:
    """Parse each non-blank line once into a canonical exact scalar (an int
    when integral, a Fraction otherwise), as ``as_rational`` would."""
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                token = line.strip()
                if not token:
                    continue
                try:
                    value = Fraction(token)
                except (ValueError, ZeroDivisionError):
                    raise InputError(f"{path}: malformed sample on line {lineno}: {token!r}")
                samples.append(value.numerator if value.denominator == 1 else value)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return samples


def _open_output(config: RunConfig):
    if config.output_path is None:
        return sys.stdout, False
    return open(config.output_path, "w", encoding="utf-8", newline=""), True


def _write_rows(config: RunConfig, header: list[str], rows: list[list]) -> None:
    handle, close = _open_output(config)
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            handle.close()


def _write_json(config: RunConfig, payload) -> None:
    handle, close = _open_output(config)
    try:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    finally:
        if close:
            handle.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_walsh(config: RunConfig) -> int:
    """One plot-ready file per basis index: (x_left, value) at minimal level."""
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
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in indices:
        step = walsh(n)
        cells = [(step.cell_left(i), c) for i, c in enumerate(step.coeffs)]
        if config.out_format == "json":
            payload = {"index": n, "level": step.level,
                       "cells": [{"x_left": _scalar_str(x, config.as_float),
                                  "value": _scalar_str(v, config.as_float)}
                                 for x, v in cells]}
            path = out_dir / f"walsh_{n:04d}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        else:
            path = out_dir / f"walsh_{n:04d}.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["x_left", "value"])
                for x, v in cells:
                    writer.writerow([_scalar_str(x, config.as_float),
                                     _scalar_str(v, config.as_float)])
    return 0


def _ingest(config: RunConfig) -> tuple:
    if config.input_path is None:
        raise InputError("missing --input FILE")
    samples = _read_samples(config.input_path)
    count = len(samples)
    if count == 0 or count & (count - 1):
        raise InputError(f"{config.input_path}: sample count {count} is not a power of two")
    level = count.bit_length() - 1
    if config.level is not None and config.level != level:
        raise InputError(f"--level {config.level} does not match the file's "
                         f"{count} samples (level {level})")
    return ingest_signal(samples, level), level


def cmd_expand(config: RunConfig) -> int:
    signal, level = _ingest(config)
    coeffs = walsh_expand(signal, level=level)
    if config.out_format == "json":
        _write_json(config, {
            "basis": "walsh", "level": level,
            "coefficients": [
                {"index": n,
                 "value": float(c) if config.as_float else rational_str(c)}
                for n, c in enumerate(coeffs)],
        })
    else:
        if config.as_float:
            rows = [[n, repr(float(c))] for n, c in enumerate(coeffs)]
            _write_rows(config, ["index", "value"], rows)
        else:
            rows = [[n, c.numerator, c.denominator] for n, c in enumerate(coeffs)]
            _write_rows(config, ["index", "num", "den"], rows)
    return 0


def cmd_entropy(config: RunConfig) -> int:
    signal, _level = _ingest(config)
    if signal.normalize().is_zero():
        raise InputError("cannot analyze the zero signal")
    tree = build_entropy_tree(signal, config.depth)
    if config.out_format == "json":
        _write_json(config, tree.to_json())
    else:
        rows = []
        for word, mass, ent, best in tree.rows():
            rows.append([str(word), _scalar_str(mass, config.as_float),
                         repr(ent), int(best)])
        _write_rows(config, ["word", "mass", "entropy", "best_leaf"], rows)
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
    reports = run_suite(config.suite, tol_override=config.tol if config.tol_overridden else None)
    total_s = time.perf_counter() - start
    if config.out_format == "json":
        payload = [r.to_json(timings=config.timings) for r in reports]
        if config.timings:
            payload = {"reports": payload, "elapsedSeconds": total_s}
        _write_json(config, payload)
    else:
        for report in reports:
            print(f"{report} {report.elapsed_s:.3f}s" if config.timings else report)
        if config.timings:
            print(f"total {total_s:.3f}s for {len(reports)} checks")
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

    def common(p, output=True):
        if output:
            p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance (1e-10)")

    p_walsh = sub.add_parser("walsh", help="emit basis steps as plot-ready files")
    p_walsh.add_argument("--range", dest="index_range", required=True,
                         help="index or inclusive range, e.g. 3 or 0..31")
    p_walsh.add_argument("--output", help="output directory (one file per index)")
    p_walsh.add_argument("--format", choices=("csv", "json"), default="csv")
    p_walsh.add_argument("--float", dest="as_float", action="store_true",
                         help="write decimal values instead of num/den")
    p_walsh.add_argument("--tol", type=float, default=None)

    p_expand = sub.add_parser("expand", help="exact expansion of a sampled signal")
    p_expand.add_argument("--input", required=True, help="CSV, one sample per line")
    p_expand.add_argument("--level", type=int, default=None,
                          help="signal level (file must hold 2^level samples)")
    p_expand.add_argument("--basis", choices=("walsh",), default="walsh")
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
    tol = getattr(args, "tol", None)
    config.tol_overridden = tol is not None
    if tol is not None:
        if tol <= 0:
            raise InputError("--tol must be positive")
        config.tol = tol
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
