"""Command-line interface: exit codes, file formats, determinism."""

import csv
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROCFS, fresh_python, peak_kb
from cuntz_bases import operators, verification
from cuntz_bases.basis import butterfly, walsh, walsh_expand
from cuntz_bases.cli import IO_BLOCK, MAX_WALSH_FILES, MAX_WALSH_INDEX, main
from cuntz_bases.dyadic import MAX_EXPONENT, DyadicStep, lift
from cuntz_bases.entropy import build_entropy_tree
from cuntz_bases.reporting import Tally, VerificationReport


def write_samples(path, values):
    path.write_text("\n".join(values) + "\n", encoding="utf-8")


def walsh_payload(n, as_float):
    """The ``walsh --format json`` payload of index n: every value a string,
    num/den or with ``as_float`` the repr of its float."""
    def scalar(value):
        value = Fraction(value)
        return repr(float(value)) if as_float else f"{value.numerator}/{value.denominator}"

    step = walsh(n)
    return {"index": n, "level": step.level,
            "cells": [{"x_left": scalar(Fraction(i, 1 << step.level)), "value": scalar(v)}
                      for i, v in enumerate(step.coeffs)]}


class TestWalshCommand:
    def test_writes_one_file_per_index(self, tmp_path):
        out = tmp_path / "waves"
        assert main(["walsh", "--range", "0..31", "--output", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 32
        assert files[0].name == "walsh_0000.csv"

    def test_row_content_rational(self, tmp_path):
        out = tmp_path / "w"
        assert main(["walsh", "--range", "3", "--output", str(out)]) == 0
        body = (out / "walsh_0003.csv").read_text()
        assert body == "x_left,value\n0/1,1/1\n1/4,-1/1\n1/2,-1/1\n3/4,1/1\n"

    def test_row_content_float(self, tmp_path):
        out = tmp_path / "w"
        assert main(["walsh", "--range", "3", "--output", str(out), "--float"]) == 0
        body = (out / "walsh_0003.csv").read_text()
        assert body == "x_left,value\n0.0,1.0\n0.25,-1.0\n0.5,-1.0\n0.75,1.0\n"

    def test_empty_range_ok(self, tmp_path):
        out = tmp_path / "w"
        assert main(["walsh", "--range", "4..3", "--output", str(out)]) == 0
        assert not out.exists()

    def test_bad_range_is_input_error(self, tmp_path):
        assert main(["walsh", "--range", "x..y", "--output", str(tmp_path)]) == 2

    def test_out_of_bounds_range_rejected_before_mkdir(self, tmp_path, capsys):
        out = tmp_path / "w"
        for text in ("-1", "-3..2", "0..99999999999", f"0..{10 ** 30}",
                     str(MAX_WALSH_INDEX + 1), f"0..{MAX_WALSH_FILES}"):
            assert main(["walsh", f"--range={text}", "--output", str(out)]) == 2, text
            assert not out.exists(), text
            assert capsys.readouterr().err.startswith("error: "), text

    def test_range_at_the_limits_accepted(self, tmp_path):
        out = tmp_path / "w"
        assert main(["walsh", "--range", f"0..{MAX_WALSH_FILES - 1}",
                     "--output", str(out)]) == 0
        assert len(list(out.iterdir())) == MAX_WALSH_FILES
        assert main(["walsh", "--range", str(MAX_WALSH_INDEX), "--output", str(out)]) == 0
        assert (out / f"walsh_{MAX_WALSH_INDEX}.csv").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "w"
        assert main(["walsh", "--range", "1", "--output", str(out),
                     "--format", "json"]) == 0
        data = json.loads((out / "walsh_0001.json").read_text())
        assert data["level"] == 1
        assert [c["value"] for c in data["cells"]] == ["1/1", "-1/1"]

    @pytest.mark.parametrize("as_float", [False, True], ids=["exact", "float"])
    def test_json_is_the_text_of_json_dump(self, tmp_path, as_float):
        out = tmp_path / "w"
        for n in (0, 5, 4097):
            args = ["walsh", "--range", str(n), "--output", str(out), "--format", "json"]
            assert main(args + ["--float"] * as_float) == 0
            payload = walsh_payload(n, as_float)
            want = io.StringIO()
            json.dump(payload, want, indent=2, sort_keys=True)
            want.write("\n")
            got = (out / f"walsh_{n:04d}.json").read_bytes().decode("utf-8")
            assert first_difference(got, want.getvalue()) is None, n

    @pytest.mark.parametrize("flags, digest", [
        ([], "fcb7bd37849600d2d55aca2819348ebac9e3d59065aa89c6b848e3570da79125"),
        (["--float"], "a3a508ecd1089c1ad26a167d23dae00fac3bbe7254cfb6e7df32ac61e74e14c9"),
    ], ids=["exact", "float"])
    def test_json_range_pinned(self, tmp_path, flags, digest):
        # the 256 files in index order, as their hand-built text wrote them
        out = tmp_path / "w"
        assert main(["walsh", "--range", "0..255", "--format", "json", *flags,
                     "--output", str(out)]) == 0
        files = sorted(out.iterdir())
        assert len(files) == 256
        assert hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest() == digest

    def test_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["walsh", "--range", "0..7", "--output", str(out_a)])
        main(["walsh", "--range", "0..7", "--output", str(out_b)])
        for f in sorted(out_a.iterdir()):
            assert f.read_bytes() == (out_b / f.name).read_bytes()


# an output path that cannot be written, for each way the CLI writes: a
# file in a missing directory, a directory in place of a file, a file under
# a file, and a file in place of the walsh output directory; with the
# command's work function, which must not run before the path is refused, as
# "module.name" of the package module the command reads it from when it runs
UNWRITABLE_OUTPUTS = {
    "expand-missing-directory": (["expand", "--input", "{tmp}/sig.csv",
                                  "--output", "{tmp}/nodir/x.csv"], "cli.butterfly"),
    "entropy-directory": (["entropy", "--input", "{tmp}/sig.csv", "--output", "{tmp}/adir"],
                          "entropy.build_entropy_tree"),
    "cantor-gram-directory": (["cantor", "gram", "--output", "{tmp}/adir"],
                              "cantor.gram_exponentials"),
    "verify-directory": (["verify", "--suite", "all", "--output", "{tmp}/adir"],
                         "verification.run_suite"),
    "verify-parent-is-file": (["verify", "--suite", "cuntz", "--format", "json",
                               "--output", "{tmp}/afile/x.json"], "verification.run_suite"),
    "walsh-existing-file": (["walsh", "--range", "3", "--output", "{tmp}/afile"], None),
}


def tree_snapshot(root):
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


@pytest.mark.parametrize("args, work", list(UNWRITABLE_OUTPUTS.values()),
                         ids=list(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, monkeypatch, args, work):
    if work is not None:
        def fail(*_args, **_kwargs):
            raise AssertionError(f"{work} ran before the output path was checked")
        # by module object: the package attribute ``entropy`` is a function
        module, name = work.split(".")
        monkeypatch.setattr(importlib.import_module(f"cuntz_bases.{module}"), name, fail)
    write_samples(tmp_path / "sig.csv", ["1", "-1", "2", "0"])
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    before = tree_snapshot(tmp_path)
    assert main([arg.format(tmp=tmp_path) for arg in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {tmp_path}{os.sep}")
    assert "Traceback" not in captured.err
    assert tree_snapshot(tmp_path) == before


# a command line refused before any output, and the start of its one-line
# message
REFUSED_COMMANDS = {
    "expand-input-is-directory": (["expand", "--input", "{tmp}"], "error: cannot read {tmp}: "),
    "entropy-input-is-directory": (["entropy", "--input", "{tmp}"], "error: cannot read {tmp}: "),
    "walsh-without-output": (["walsh", "--range", "3"],
                             "error: walsh needs --output DIR (one file per index)\n"),
}


@pytest.mark.parametrize("args, message", list(REFUSED_COMMANDS.values()),
                         ids=list(REFUSED_COMMANDS))
def test_refused_command_exits_2_with_one_line(tmp_path, capsys, args, message):
    assert main([arg.format(tmp=tmp_path) for arg in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(message.format(tmp=tmp_path))


class TestExpandCommand:
    def test_flip_signal(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1"])
        assert main(["expand", "--input", str(src)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["index,num,den", "0,0,1", "1,1,1"]

    def test_level_is_an_unrecognized_argument(self, tmp_path, capsys):
        # the level is the one the file's sample count fixes
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1"])
        for command in ("expand", "entropy"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", str(src), "--level", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --level 1" in capsys.readouterr().err

    def test_bad_row_cites_line(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "oops", "3", "4"])
        assert main(["expand", "--input", str(src)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_malformed_sample_message_counts_blank_lines(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "", "  ", " 1/0 ", "2", "3"])
        assert main(["expand", "--input", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: malformed sample on line 4: '1/0'\n"

    def test_float_overflow_exits_2_before_output(self, tmp_path, capsys):
        # float(Fraction) raised OverflowError: a traceback and exit 1
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        write_samples(src, ["1e400", "1"])
        for fmt in ("csv", "json"):
            for output in ([], ["--output", str(dst)]):
                assert main(["expand", "--input", str(src), "--float", "--format", fmt,
                             *output]) == 2
                assert capsys.readouterr() == (
                    "", "error: coefficient 0 is too large for --float\n")
                assert not dst.exists()

    def test_digit_limit_exits_2_before_output(self, tmp_path, capsys):
        # the header was written before str(int) hit the digit limit
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        write_samples(src, ["1", "1e5000"])
        for fmt in ("csv", "json"):
            for output in ([], ["--output", str(dst)]):
                assert main(["expand", "--input", str(src), "--format", fmt, *output]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: coefficient 0 has more than ")
                assert not dst.exists()

    def test_huge_exponent_rejected_naming_the_line(self, tmp_path, capsys):
        # Fraction("1e10000000") would build a ten-million-digit power first
        src = tmp_path / "sig.csv"
        for token in ("1e10000000", "-2.5E-999999", f"1e{MAX_EXPONENT + 1}"):
            write_samples(src, ["0", "", token])
            for command in ("expand", "entropy"):
                assert main([command, "--input", str(src)]) == 2
                assert capsys.readouterr().err == (
                    f"error: {src}: sample exponent beyond {MAX_EXPONENT} "
                    f"on line 3: {token!r}\n")
        # a malformed token stays malformed, whatever its exponent
        write_samples(src, ["0", "1.2.3e99999999"])
        assert main(["entropy", "--input", str(src)]) == 2
        assert "malformed sample on line 2" in capsys.readouterr().err
        # the bound itself is accepted
        write_samples(src, [f"1e{MAX_EXPONENT}", "0"])
        assert main(["entropy", "--input", str(src), "--depth", "1", "--float"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            ",1.0,0.0,1", "0,0.5,0.34657359027997264,0", "1,0.5,0.34657359027997264,0"]

    def test_non_power_of_two(self, tmp_path):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "2", "3"])
        assert main(["expand", "--input", str(src)]) == 2

    def test_decimal_samples_exact(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["0.5", "0.5"])
        assert main(["expand", "--input", str(src)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["index,num,den", "0,1,2", "1,0,1"]

    def test_json_output_file(self, tmp_path):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1", "-1", "1"])
        dst = tmp_path / "coeffs.json"
        assert main(["expand", "--input", str(src), "--output", str(dst),
                     "--format", "json"]) == 0
        data = json.loads(dst.read_text())
        values = {c["index"]: c["value"] for c in data["coefficients"]}
        assert values == {0: "0/1", 1: "0/1", 2: "0/1", 3: "1/1"}

    @pytest.mark.parametrize("flags, digest", [
        ([], "9588545510300356b7e8115eac9642b1da87ee422e8a410e9f1875ca0f8a0f75"),
        (["--float"], "88c7ec63e1b4d6bc19a39da738a1331680e6f8b65167bd077069cfb91fa46168"),
    ], ids=["exact", "float"])
    def test_seeded_json_pinned(self, tmp_path, flags, digest):
        # the bytes the hand-built JSON wrote for the seeded 2**16 samples
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        seeded_signal(src)
        assert main(["expand", "--input", str(src), "--format", "json", *flags,
                     "--output", str(dst)]) == 0
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest

    def test_options_nothing_reads_are_rejected(self, tmp_path, capsys):
        # every check is judged at its own tolerance; expand has a single basis
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1"])
        for extra in (["--tol", "1e-3"], ["--basis", "walsh"]):
            with pytest.raises(SystemExit) as exc:
                main(["expand", "--input", str(src), *extra])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        for command in (["walsh", "--range", "1"], ["entropy", "--input", str(src)],
                        ["cantor", "gram"], ["verify"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--tol", "1e-3"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# expand and entropy against a Fraction reference: every sample parsed with
# Fraction(token), every coefficient an inner product with walsh(n)
# ---------------------------------------------------------------------------

def reference_expand(tokens, fmt, as_float):
    values = [Fraction(t) for t in tokens]
    level = len(values).bit_length() - 1
    coeffs = [Fraction(sum(w * v for w, v in zip(walsh(n).refine(level).coeffs, values)),
                       1 << level) for n in range(len(values))]
    return format_expand(coeffs, fmt, as_float)


def format_expand(coeffs, fmt, as_float):
    """The expand output for exact coefficients, through json.dumps and
    Fraction's numerator and denominator."""
    coeffs = [Fraction(c) for c in coeffs]
    level = len(coeffs).bit_length() - 1
    if fmt == "json":
        payload = {"basis": "walsh", "level": level, "coefficients": [
            {"index": n, "value": float(c) if as_float else f"{c.numerator}/{c.denominator}"}
            for n, c in enumerate(coeffs)]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if as_float:
        return "index,value\n" + "".join(f"{n},{float(c)!r}\n" for n, c in enumerate(coeffs))
    return "index,num,den\n" + "".join(f"{n},{c.numerator},{c.denominator}\n"
                                        for n, c in enumerate(coeffs))


def entropy_payload(tree):
    """The ``entropy --format json`` payload of a tree, from its rows: every
    mass as a float."""
    return {"depth": tree.depth,
            "nodes": [{"word": str(word), "mass": float(mass), "entropy": ent, "bestLeaf": best}
                      for word, mass, ent, best in tree.rows()],
            "levelEntropy": list(tree.level_entropy),
            "bestCost": tree.best_cost}


def reference_entropy(tokens, depth, fmt, as_float):
    values = [Fraction(t) for t in tokens]
    tree = build_entropy_tree(DyadicStep(len(values).bit_length() - 1, values), depth)
    if fmt == "json":
        return json.dumps(entropy_payload(tree), indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["word", "mass", "entropy", "best_leaf"])
    for word, mass, ent, best in tree.rows():
        mass = repr(float(mass)) if as_float else f"{mass.numerator}/{mass.denominator}"
        writer.writerow([str(word), mass, repr(ent), int(best)])
    return out.getvalue()


def random_tokens(rng, kind, count):
    def one(kind):
        if kind == "int":
            return str(rng.randint(-99, 99))
        if kind == "decimal":
            places = rng.randint(0, 5)
            return f"{rng.randint(-10 ** 6, 10 ** 6) / 10 ** places:.{places}f}"
        if kind == "ratio":
            return f"{rng.randint(-60, 60)}/{rng.randint(1, 30)}"
        return one(rng.choice(["int", "decimal", "ratio"]))
    return [one(kind) for _ in range(count)]


EXPAND_FORMATS = [("csv", False), ("csv", True), ("json", False), ("json", True)]


def assert_matches_reference(tmp_path, capsys, tokens):
    src = tmp_path / "sig.csv"
    write_samples(src, tokens)
    for fmt, as_float in EXPAND_FORMATS:
        flags = ["--format", fmt] + (["--float"] if as_float else [])
        assert main(["expand", "--input", str(src), *flags]) == 0
        assert capsys.readouterr().out == reference_expand(tokens, fmt, as_float), flags
    if not any(Fraction(t) for t in tokens):
        return
    for depth in (1, 3):
        for fmt, as_float in (("csv", False), ("csv", True), ("json", False)):
            flags = ["--depth", str(depth), "--format", fmt] + (["--float"] if as_float else [])
            assert main(["entropy", "--input", str(src), *flags]) == 0
            assert capsys.readouterr().out == reference_entropy(tokens, depth, fmt, as_float), flags


class TestLiftedSignalIO:
    @pytest.mark.parametrize("kind", ["int", "decimal", "ratio", "mixed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_outputs_match_fraction_reference(self, tmp_path, capsys, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        tokens = random_tokens(rng, kind, 1 << rng.randint(0, 5))
        assert_matches_reference(tmp_path, capsys, tokens)

    def test_rows_past_2_62_take_the_object_path(self, tmp_path, capsys):
        big = (1 << 61) + 12345
        tokens = [str(big), str(-big), "3", str(big - 7)] * 2
        num, _den = lift(tokens)
        assert butterfly(num, 3).dtype == object
        assert_matches_reference(tmp_path, capsys, tokens)
        # --float rounds once: float(num) / float(den) gives ...203e+16 here
        assert_matches_reference(tmp_path, capsys, ["455680953273994267/7"])
        # int64 rows over a denominator past 2**63 reduce as Python ints
        tokens = ["0." + "0" * 18 + "1", "0", "-0." + "0" * 18 + "3", "0"]
        num, den = lift(tokens)
        assert butterfly(num, 2).dtype == "int64" and den >= 1 << 63
        assert_matches_reference(tmp_path, capsys, tokens)


def first_difference(got, want):
    """None for equal texts, else their first differing line and its
    number: pytest's own diff of two long texts takes minutes."""
    if got == want:
        return None
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    n = next((n for n, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    return n + 1, got[n:n + 1], want[n:n + 1]


class TestBlockedSignalIO:
    """expand and entropy read IO_BLOCK lines, and expand writes IO_BLOCK
    rows, at a time; nothing may show at the edges of the blocks."""

    def test_block_edges_match_reference(self, tmp_path, capsys):
        # lines 1..4096: integers then blanks; 4097..8192: blanks then
        # decimals and ratios; 8193..8202: ratios over 31 and 37
        assert IO_BLOCK == 4096
        rng = random.Random("block-edges")
        first = random_tokens(rng, "int", 4090)
        second = [rng.choice([random_tokens(rng, "decimal", 1)[0],
                              random_tokens(rng, "ratio", 1)[0]]) for _ in range(4092)]
        third = [f"{rng.randint(-60, 60)}/{rng.choice([31, 37])}" for _ in range(10)]
        lines = first + ["", "  "] * 3 + ["\t"] * 4 + second + third
        assert len(lines) == 8202 and lines[4095] == "  " and lines[4100] == second[0]
        tokens = [t for t in lines if t.strip()]
        assert len(tokens) == 1 << 13
        assert len({lift(run)[1] for run in (first, second, third)}) == 3
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        write_samples(src, lines)
        coeffs = walsh_expand(DyadicStep(13, [Fraction(t) for t in tokens]))
        for fmt, as_float in EXPAND_FORMATS:
            want = format_expand(coeffs, fmt, as_float)
            flags = ["--format", fmt] + (["--float"] if as_float else [])
            assert main(["expand", "--input", str(src), *flags]) == 0
            assert first_difference(capsys.readouterr().out, want) is None, flags
            assert main(["expand", "--input", str(src), *flags, "--output", str(dst)]) == 0
            assert first_difference(dst.read_bytes().decode(), want) is None, flags
        for fmt, as_float in (("csv", False), ("csv", True), ("json", False)):
            flags = ["--depth", "3", "--format", fmt] + (["--float"] if as_float else [])
            assert main(["entropy", "--input", str(src), *flags]) == 0
            want = reference_entropy(tokens, 3, fmt, as_float)
            assert first_difference(capsys.readouterr().out, want) is None, flags

    def test_malformed_sample_past_the_first_block_cites_its_line(self, tmp_path, capsys):
        # the bad token is non-blank line 4501 and file line 4701, in the second block
        src = tmp_path / "sig.csv"
        write_samples(src, ["1"] * 4000 + [""] * 200 + ["0.5"] * 500 + ["1/x", "2", "oops"]
                      + ["3"] * 3689)
        for command in ("expand", "entropy"):
            assert main([command, "--input", str(src)]) == 2
            assert capsys.readouterr() == (
                "", f"error: {src}: malformed sample on line 4701: '1/x'\n")

    @pytest.mark.parametrize("command", ["expand", "entropy"])
    def test_leading_byte_order_mark_is_accepted(self, tmp_path, capsys, command):
        # spreadsheet exports often start with a UTF-8 BOM; only there is it skipped
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_samples(plain, ["1", "-1/2", "3", "0.25"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main([command, "--input", str(plain)]) == 0
        want = capsys.readouterr()
        assert main([command, "--input", str(marked)]) == 0
        assert capsys.readouterr() == want
        marked.write_bytes(b"1\n\xef\xbb\xbf2\n")
        assert main([command, "--input", str(marked)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {marked}: malformed sample on line 2: '\\ufeff2'\n")

    def test_decoding_error_reported_before_an_earlier_bad_sample(self, tmp_path, capsys):
        # the whole file is decoded before a malformed sample is reported;
        # the bad byte is decoded with the fifth block, well after the first
        src = tmp_path / "sig.csv"
        src.write_bytes(b"1\noops\n" + b"2\n" * 20000 + b"\xff\n" + b"3\n" * 2000)
        assert main(["expand", "--input", str(src)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: 'utf-8' codec can't decode byte 0xff")


SAMPLE_TOKENS = st.one_of(st.integers(-99, 99).map(str),
                          st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 30)))


@st.composite
def signal_tokens(draw):
    """The sample tokens of a signal of level 0 to 6."""
    count = 1 << draw(st.integers(0, 6))
    return draw(st.lists(SAMPLE_TOKENS, min_size=count, max_size=count))


@settings(max_examples=40, deadline=None)
@given(tokens=signal_tokens(), depth=st.integers(1, 6), as_float=st.booleans(),
       first=st.integers(0, 4200), count=st.integers(1, 2))
def test_streamed_json_is_the_text_of_json_dumps(tokens, depth, as_float, first, count):
    # expand, entropy and walsh write their JSON through the one row writer;
    # each file must be the bytes of json.dumps of the payload built here
    def dumps(payload):
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    flags = ["--format", "json"] + ["--float"] * as_float
    with tempfile.TemporaryDirectory() as tmp:
        src, dst, out = Path(tmp, "sig.csv"), Path(tmp, "out"), Path(tmp, "w")
        write_samples(src, tokens)
        assert main(["expand", "--input", str(src), *flags, "--output", str(dst)]) == 0
        assert dst.read_bytes() == reference_expand(tokens, "json", as_float).encode("utf-8")
        values = [Fraction(t) for t in tokens]
        args = ["entropy", "--input", str(src), "--depth", str(depth), *flags,
                "--output", str(dst)]
        if any(values):
            assert main(args) == 0
            tree = build_entropy_tree(DyadicStep(len(values).bit_length() - 1, values), depth)
            assert dst.read_bytes() == dumps(entropy_payload(tree))
        else:
            assert main(args) == 2
        indices = range(first, first + count)
        assert main(["walsh", "--range", f"{indices[0]}..{indices[-1]}", *flags,
                     "--output", str(out)]) == 0
        for n in indices:
            assert (out / f"walsh_{n:04d}.json").read_bytes() == dumps(walsh_payload(n, as_float))


def signed_tokens(magnitude, n, level):
    """``magnitude`` with the signs of walsh(n) at ``level``: every
    coefficient is 0 except coefficient n, which is ``magnitude``."""
    return [("-" if c < 0 else "") + magnitude for c in walsh(n).refine(level).coeffs]


class TestLateErrorsBeforeOutput:
    """A coefficient that cannot be written, far into the output, exits 2
    before any output opens: no partial file, nothing on stdout."""

    def assert_rejected(self, tmp_path, capsys, tokens, flags, message):
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        write_samples(src, tokens)
        for fmt in ("csv", "json"):
            for output in ([], ["--output", str(dst)]):
                assert main(["expand", "--input", str(src), "--format", fmt,
                             *flags, *output]) == 2
                assert capsys.readouterr() == ("", f"error: {message}\n"), (fmt, output)
                assert not dst.exists()

    def test_digit_limit_of_coefficient_5000(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, signed_tokens("1e4400", 5000, 13), [],
                             f"coefficient 5000 has more than "
                             f"{sys.get_int_max_str_digits()} digits")

    def test_float_overflow_of_coefficient_5000(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, signed_tokens("1e400", 5000, 13), ["--float"],
                             "coefficient 5000 is too large for --float")


def main_peak_kb(args) -> int:
    """How far ``main(args)`` raises the peak resident size, in kB
    (``conftest.peak_kb``)."""
    return peak_kb("from cuntz_bases.cli import main", f"main({list(args)!r}) == 0")


class TestBlasThreads:
    """The package asks OpenBLAS for one thread when it loads before numpy:
    its one BLAS call, the exact Gram, needs no worker."""

    # the variable, then the process's thread count
    REPORT = ("import os\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              "with open('/proc/self/status') as status:\n"
              "    print(next(line.split()[1] for line in status\n"
              "               if line.startswith('Threads:')))\n")

    @PROCFS
    def test_one_thread_by_default(self):
        out = fresh_python(["-c", "import cuntz_bases.cli\n" + self.REPORT])
        assert out.split() == ["1", "1"]

    @PROCFS
    def test_user_value_wins(self):
        out = fresh_python(["-c", "import cuntz_bases.cli\n" + self.REPORT], blas_threads="2")
        assert out.split()[0] == "2"

    @PROCFS
    def test_nothing_set_after_numpy(self):
        # too late to change numpy's threads; a child would only inherit it
        out = fresh_python(["-c", "import numpy\nimport cuntz_bases\n" + self.REPORT])
        assert out.split()[0] == "None"

    def test_walsh_suite_same_on_one_and_two_threads(self):
        # the suite holds the Gram products, exact in any summation order
        args = ["-m", "cuntz_bases.cli", "verify", "--suite", "walsh"]
        one, two = (fresh_python(args, blas_threads=n) for n in ("1", "2"))
        assert one == two and "PASS" in one


@PROCFS
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_expand_memory_is_blockwise(tmp_path, fmt):
    # 2**18 samples
    rng = random.Random(18)
    src, dst = tmp_path / "sig.csv", tmp_path / "out"
    write_samples(src, [str(rng.randint(-99, 99)) for _ in range(1 << 18)])
    peak = main_peak_kb(["expand", "--input", str(src), "--format", fmt, "--output", str(dst)])
    assert peak < 24 * 1024  # kB
    assert dst.stat().st_size > 1 << 20


def seeded_signal(path):
    """65,536 samples ``randint(-9, 9)`` of ``random.Random(7)``, one a line."""
    rng = random.Random(7)
    write_samples(path, [str(rng.randint(-9, 9)) for _ in range(1 << 16)])


@PROCFS
def test_expand_memory_of_2_16_samples(tmp_path):
    # the blocks kept as arrays and a two-buffer butterfly: about 2.6 MB;
    # int lists of every sample and three arrays a stage took about 3.5 MB
    src, dst = tmp_path / "sig.csv", tmp_path / "out"
    seeded_signal(src)
    assert main_peak_kb(["expand", "--input", str(src), "--output", str(dst)]) < 3 * 1024


class TestEntropyCommand:
    def test_tree_dump(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "1", "-1", "-1"])
        assert main(["entropy", "--input", str(src), "--depth", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "word,mass,entropy,best_leaf"
        assert len(lines) == 1 + 1 + 2 + 4

    def test_json_contains_best_basis(self, tmp_path):
        src = tmp_path / "sig.csv"
        write_samples(src, ["3", "1", "-1", "5"])
        dst = tmp_path / "tree.json"
        assert main(["entropy", "--input", str(src), "--depth", "3",
                     "--output", str(dst), "--format", "json"]) == 0
        data = json.loads(dst.read_text())
        assert set(data) == {"depth", "nodes", "levelEntropy", "bestCost"}
        assert any(node["bestLeaf"] for node in data["nodes"])

    def test_zero_signal_rejected(self, tmp_path):
        src = tmp_path / "sig.csv"
        write_samples(src, ["0", "0"])
        assert main(["entropy", "--input", str(src)]) == 2


    def test_digit_limit_exits_2_naming_the_node(self, tmp_path, capsys):
        # the mass of word 0 is (10**5000 + 1)**2 / (2 (10**10000 + 1)), whose
        # num/den text passes the int to str digit limit
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        write_samples(src, ["1e5000", "1"])
        for output in ([], ["--output", str(dst)]):
            assert main(["entropy", "--input", str(src), "--depth", "1", *output]) == 2
            assert capsys.readouterr() == (
                "", f"error: mass of word 0 has more than {sys.get_int_max_str_digits()} digits\n")
            assert not dst.exists()
        # --float and JSON write the masses as floats
        assert main(["entropy", "--input", str(src), "--depth", "1", "--float"]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("0,0.5,")

    @pytest.mark.parametrize("flags, digest", [
        (["--depth", "16"], "a133122aaa293f9e01a19ca0d7944c697639b4a8b8d1106253dff2ec53982e17"),
        (["--depth", "16", "--float"],
         "8798cdef1df612f74b1135a1dd127e803a98f46117afba9d11f758697788f424"),
        (["--depth", "12", "--format", "json"],
         "872a100d3dec4d711f7e755eb008d2b6a6f65fcd2babfcd58bc00c5214d716d2"),
        (["--depth", "16", "--format", "json"],
         "89d5251fab8f304d8a13174562dc7c69ba2f734a32be87009188d0b9574b8021"),
    ], ids=["csv-16", "float-16", "json-12", "json-16"])
    def test_seeded_outputs_pinned(self, tmp_path, flags, digest):
        # the bytes the tree wrote when every node was a Fraction and a word
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        seeded_signal(src)
        assert main(["entropy", "--input", str(src), *flags, "--output", str(dst)]) == 0
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest

    @PROCFS
    def test_memory_of_depth_16(self, tmp_path):
        # 2**17 - 1 nodes; a Fraction and a row per node raised the peak by
        # about 100 MB, the integer levels and blockwise rows by about 16 MB
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        seeded_signal(src)
        assert main_peak_kb(["entropy", "--input", str(src), "--depth", "16",
                             "--output", str(dst)]) < 40 * 1024  # kB

    @PROCFS
    def test_json_memory_of_depth_16(self, tmp_path):
        # the JSON of one dict per node through json.dump raised it by about
        # 50 MB; streamed like the CSV, it is held to the CSV's bound
        src, dst = tmp_path / "sig.csv", tmp_path / "out"
        seeded_signal(src)
        assert main_peak_kb(["entropy", "--input", str(src), "--depth", "16",
                             "--format", "json", "--output", str(dst)]) < 40 * 1024  # kB

    def test_depth_bounded_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        for depth in ("0", "17", "40"):
            assert main(["entropy", "--input", missing, "--depth", depth]) == 2
            assert "--depth must be between 1 and 16" in capsys.readouterr().err


class TestCantorCommand:
    def test_spectrum_values(self, tmp_path, capsys):
        assert main(["cantor", "spectrum", "--p", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [int(line.split(",")[0]) for line in lines[1:]]
        assert values == [0, 1, 4, 5, 16, 17, 20, 21]

    def test_spectrum_digits(self, capsys):
        assert main(["cantor", "spectrum", "--p", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["0,00", "1,01", "4,10", "5,11"]

    def test_gram_passes(self, capsys):
        assert main(["cantor", "gram", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "spectrum-orthogonality-p5" in out

    def test_partition_table(self, tmp_path):
        dst = tmp_path / "orbits.csv"
        assert main(["cantor", "partition", "--p", "3", "--output", str(dst)]) == 0
        body = dst.read_text().strip().splitlines()
        assert body[0] == "lambda,odd_m,power"
        assert "4,1,1" in body and "20,5,1" in body

    def test_gram_json_report(self, capsys):
        assert main(["cantor", "gram", "--p", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["maxViolation"] == 0.0


    def test_gram_output_pinned(self, capsys):
        assert main(["cantor", "gram", "--p", "11"]) == 0
        assert capsys.readouterr().out == (
            "relation,maxViolation,witness,passed,checked\n"
            "spectrum-orthogonality-p11,0.0,,1,2096128\n")
        assert main(["cantor", "gram", "--p", "8", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '{\n'
            '  "checked": 32640,\n'
            '  "maxViolation": 0.0,\n'
            '  "passed": true,\n'
            '  "relation": "spectrum-orthogonality-p8",\n'
            '  "tol": 0.0,\n'
            '  "witness": null\n'
            '}\n')

    def test_spectrum_and_partition_output_pinned(self, capsys):
        def out(*argv):
            assert main(["cantor", *argv]) == 0
            return capsys.readouterr().out

        assert out("spectrum", "--p", "0") == "lambda,digits\n0,0\n"
        assert out("spectrum", "--p", "0", "--format", "json") == (
            '[\n  {\n    "digits": "0",\n    "lambda": 0\n  }\n]\n')
        assert out("spectrum", "--p", "2") == "lambda,digits\n0,00\n1,01\n4,10\n5,11\n"
        assert out("spectrum", "--p", "2", "--format", "json") == "[\n" + ",\n".join(
            f'  {{\n    "digits": "{d}",\n    "lambda": {v}\n  }}'
            for v, d in ((0, "00"), (1, "01"), (4, "10"), (5, "11"))) + "\n]\n"
        assert out("partition", "--p", "2") == "lambda,odd_m,power\n1,1,0\n4,1,1\n5,5,0\n"
        assert out("partition", "--p", "2", "--format", "json") == (
            '{\n  "orbits": [\n' + ",\n".join(
                f'    {{\n      "lambda": {v},\n      "odd": {m},\n      "power": {j}\n    }}'
                for v, m, j in ((1, 1, 0), (4, 1, 1), (5, 5, 0))) +
            '\n  ],\n  "report": {\n    "checked": 3,\n    "maxViolation": 0.0,\n'
            '    "passed": true,\n    "relation": "spectrum-odd-orbit-partition-p2",\n'
            '    "tol": 0.0,\n    "witness": null\n  }\n}\n')
        digests = {(sub, fmt): hashlib.sha256(out(sub, "--p", "11", "--format", fmt)
                                              .encode("utf-8")).hexdigest()
                   for sub in ("spectrum", "partition") for fmt in ("csv", "json")}
        assert digests == {
            ("spectrum", "csv"): "8579d8b1b2540a8aa3509f53d1238276928329c3979ac5ba59cab59874da522d",
            ("spectrum", "json"): "04a604b3c16fae5e74b3e0495a278dccb9441411b4edf56033a4c25698cc2189",
            ("partition", "csv"): "3650f8d8f2bfcfcc60d2721d05fec156578756c77d77d4700ef875e974816883",
            ("partition", "json"): "2dc9d0ed9d935156ed4ca2c7bad80d0f48a6ddb2ab9dc359e593834a0c1874a8"}

    def test_p_bounded(self, capsys):
        for sub in ("spectrum", "gram", "partition"):
            for p in ("-1", "12"):
                assert main(["cantor", sub, "--p", p]) == 2
                assert "--p must be between 0 and 11" in capsys.readouterr().err


# a cheap check of each group: the child's (walsh, cantor) and this process's
CHILD_CHECK = ("cantor", verification.check_cell_scaling)
PARENT_CHECK = ("cuntz", verification.check_unitary_filters)


def failing_check():
    tally = Tally()
    tally.record(0.0, "case 0")
    tally.record(0.5, "case 1")
    return tally.report("always-fails", 1e-12)


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "entropy"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8
        assert "FAIL" not in out
        # each count is the number of cases the check's loop recorded
        assert [int(n) for n in re.findall(r", (\d+) checks\)", out)] == [
            20 * 3, 20 * 15, 100 * 4, 10 * 3, 20 * 3, 10, 10 * 5, 10 * 3]

    def test_text_report_goes_to_output_file(self, tmp_path, capsys):
        assert main(["verify", "--suite", "entropy"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "report.txt"
        assert main(["verify", "--suite", "entropy", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed

    def test_full_suite_output_is_pinned(self, capsys):
        # the bytes of verify --suite all, as text and as JSON
        digests = []
        for extra in ([], ["--format", "json"]):
            assert main(["verify", "--suite", "all", *extra]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
        assert digests == [
            "449b342d0f776bbe984fe9a896b2e7116c84ff58aaffb76bee2475e84d5ace18",
            "4c054617be1aca88ece3aa10b5aeb1970b75d25b4772459dd6ab2447faaaf1bb"]

    def test_json_format(self, capsys):
        assert main(["verify", "--suite", "cantor", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in data)
        assert [r["checked"] for r in data] == [
            256 * 255 // 2, 1000, 2001, 126, 8, 7, 5 * 5, 6 * 2]

    def test_sine_suite_output_pinned(self, capsys):
        # the two float residues are the last bits of hybrid_inner's rounding
        assert main(["verify", "--suite", "sine"]) == 0
        assert capsys.readouterr().out == (
            "PASS odd-sine-adjoint-kernel-exact (max violation 0.000e+00, 50 checks)\n"
            "PASS even-sine-adjoint-halving-exact (max violation 0.000e+00, 49 checks)\n"
            "PASS sine-vs-shifted-sine-inners (max violation 4.510e-17, 2000 checks)\n"
            "PASS sine-family-frame-orthogonality (max violation 4.684e-17, 4005 checks)\n"
            "PASS trig-parseval (max violation 0.000e+00, 5 checks)\n"
            "PASS hybrid-inner-matches-exact-on-steps (max violation 0.000e+00, 10 checks)\n"
            "PASS reflection-classifier-cases (max violation 0.000e+00, 5 checks)\n"
            "PASS adjoint-decimates-fourier-coefficients (max violation 0.000e+00, 42 checks)\n")

    def test_default_output_has_no_timings(self, capsys):
        assert main(["verify", "--suite", "cuntz", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for report in data:
            assert set(report) == {"relation", "maxViolation", "witness", "passed",
                                   "tol", "checked"}
        # relations: 64 vectors x 5, then 100 vectors x (N^2 + 1) for N = 3, 4
        assert [r["checked"] for r in data] == [
            320, 320, 1000, 1700, 16 + 50 + 50, 25 * 2, 25, 64, 1, 20]
        assert main(["verify", "--suite", "cuntz"]) == 0
        assert all(line.endswith("checks)") for line in capsys.readouterr().out.splitlines())

    def test_timings_flag(self, capsys):
        assert main(["verify", "--suite", "cuntz", "--timings"]) == 0
        *lines, total = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert all(re.fullmatch(r"PASS .*checks\) \d+\.\d{3}s", line) for line in lines)
        assert re.fullmatch(r"total \d+\.\d{3}s for 10 checks", total)
        assert main(["verify", "--suite", "cuntz", "--timings", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["elapsedSeconds"] >= sum(r["elapsedSeconds"] for r in data["reports"]) > 0

    def test_report_time_is_not_part_of_the_report(self):
        timed = VerificationReport("r", True, 0.0, checked=3, elapsed_s=1.5)
        plain = VerificationReport("r", True, 0.0, checked=3)
        assert timed == plain
        assert str(timed) == str(plain)
        assert timed.to_json() == plain.to_json()
        assert timed.to_json(timings=True)["elapsedSeconds"] == 1.5

    def test_failed_check_names_its_witness(self, capsys):
        cuntz = [entry for entry in verification.CHECKS if entry[0] == "cuntz"]
        with mock.patch.object(verification, "CHECKS", [*cuntz[:3], ("cuntz", failing_check)]):
            assert main(["verify", "--suite", "cuntz"]) == 1
            out, err = capsys.readouterr()
            assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
                "FAIL always-fails (max violation 5.000e-01, 2 checks) witness: case 1"]
            assert err == "1 of 4 checks failed\n"
            # JSON names the witness of a failed report only
            assert main(["verify", "--suite", "cuntz", "--format", "json"]) == 1
            reports = json.loads(capsys.readouterr().out)
        assert [r["passed"] for r in reports] == [True, True, True, False]
        assert [r["witness"] for r in reports] == [None, None, None, "case 1"]

    def test_float_checks_name_their_worst_cases(self):
        # judged at 1e-17 in place of their own 1e-12, these passing checks
        # fail and name their worst cases
        class Strict(Tally):
            def report(self, relation, tol=0):
                return super().report(relation, 1e-17 if tol else tol)

        with mock.patch.object(verification, "Tally", Strict), \
                mock.patch.object(operators, "Tally", Strict):
            reports = [verification.check_general_relations3(),
                       verification.check_unitary_filters(),
                       verification.check_general_projections()]
        assert not any(r.passed for r in reports)
        assert reports[0].witness == "sum_k S_k S_k* on vector 74"
        assert reports[1].witness.startswith("N3: x = ")
        assert reports[2].witness == "vector 15"



class LocalError(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


class TestSuiteSplit:
    """``run_suite`` runs the walsh and cantor checks in one forked child."""

    @pytest.fixture(autouse=True)
    def _no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == 0

    def test_all_equals_the_checks_run_serially(self):
        reports = verification.run_suite("all")
        assert reports == [fn() for _suite, fn in verification.CHECKS]
        assert len(reports) == 42 and all(r.elapsed_s > 0 for r in reports)

    def test_child_failure_prints_in_its_registry_position(self, capsys):
        checks = [PARENT_CHECK, ("walsh", failing_check), CHILD_CHECK,
                  ("entropy", verification.check_entropy_bounds)]
        with mock.patch.object(verification, "CHECKS", checks), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert main(["verify", "--suite", "all"]) == 1
        assert fork.call_count == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["PASS", "unitary-filter-matrices-n2-n3-n4"], ["FAIL", "always-fails"],
            ["PASS", "cell-mass-diameter-square-root-scaling"], ["PASS", "entropy-number-range"]]
        assert lines[1] == "FAIL always-fails (max violation 5.000e-01, 2 checks) witness: case 1"
        assert err == "1 of 4 checks failed\n"

    @pytest.mark.parametrize("error, raised, message", [
        (ValueError("cell 7 out of range"), ValueError, "cell 7 out of range"),
        (KeyError("lambda"), KeyError, "'lambda'"),
        (LocalError(3, "no spectrum"), RuntimeError, "LocalError('3: no spectrum')"),
    ])
    def test_child_exception_raises_in_the_caller(self, error, raised, message):
        def raising():
            raise error

        with mock.patch.object(verification, "CHECKS", [PARENT_CHECK, ("cantor", raising)]):
            with pytest.raises(raised) as info:
                verification.run_suite("all")
        assert type(info.value) is raised and str(info.value) == message
        assert info.value.__notes__[0].startswith("raised in the forked verify process")

    def test_parent_exception_kills_and_reaps_the_child(self):
        def raising():
            raise ArithmeticError("parent side")

        slow_child = ("walsh", verification.check_walsh_gram)
        with mock.patch.object(verification, "CHECKS", [("sine", raising), slow_child]):
            with pytest.raises(ArithmeticError, match="^parent side$"):
                verification.run_suite("all")

    def test_single_suite_does_not_fork(self):
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            reports = verification.run_suite("walsh")
        assert len(reports) == 8 and all(r.passed for r in reports)

    def test_no_fork_with_a_second_thread_or_without_os_fork(self, monkeypatch):
        monkeypatch.setattr(verification, "CHECKS", [CHILD_CHECK, PARENT_CHECK])
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
                assert [r.passed for r in verification.run_suite("all")] == [True, True]
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert [r.relation for r in verification.run_suite("all")] == [
            "cell-mass-diameter-square-root-scaling", "unitary-filter-matrices-n2-n3-n4"]

    def test_buffered_output_and_atexit_run_once(self):
        out = fresh_python(["-c", (
            "import atexit, sys\n"
            "from cuntz_bases import verification\n"
            "atexit.register(print, 'at exit')\n"
            "sys.stdout.write('before the run\\n')\n"
            "print(len(verification.run_suite('all')))\n")])
        assert out == "before the run\n42\nat exit\n"
