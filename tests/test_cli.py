"""Command-line interface: exit codes, file formats, determinism."""

import json
import re

from cuntz_bases.cli import MAX_WALSH_FILES, MAX_WALSH_INDEX, main
from cuntz_bases.reporting import VerificationReport


def write_samples(path, values):
    path.write_text("\n".join(values) + "\n", encoding="utf-8")


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

    def test_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["walsh", "--range", "0..7", "--output", str(out_a)])
        main(["walsh", "--range", "0..7", "--output", str(out_b)])
        for f in sorted(out_a.iterdir()):
            assert f.read_bytes() == (out_b / f.name).read_bytes()


class TestExpandCommand:
    def test_flip_signal(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1"])
        assert main(["expand", "--input", str(src)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["index,num,den", "0,0,1", "1,1,1"]

    def test_level_mismatch(self, tmp_path):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1"])
        assert main(["expand", "--input", str(src), "--level", "2"]) == 2

    def test_huge_or_negative_level_rejected_by_message(self, tmp_path, capsys):
        # the message once formatted 1 << level: 100000 overflowed the int
        # to str limit, and -1 raised on a negative shift
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "-1"])
        for command in ("expand", "entropy"):
            for level in ("100000", "-1"):
                assert main([command, "--input", str(src), "--level", level]) == 2
                err = capsys.readouterr().err
                assert err == (f"error: --level {level} does not match the file's "
                               f"2 samples (level 1)\n")

    def test_bad_row_cites_line(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        write_samples(src, ["1", "oops", "3", "4"])
        assert main(["expand", "--input", str(src)]) == 2
        assert "line 2" in capsys.readouterr().err

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

    def test_p_bounded(self, capsys):
        for sub in ("spectrum", "gram", "partition"):
            for p in ("-1", "12"):
                assert main(["cantor", sub, "--p", p]) == 2
                assert "--p must be between 0 and 11" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "entropy"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        assert main(["verify", "--suite", "cantor", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in data)

    @staticmethod
    def _outputs_with_threads_env(capsys, monkeypatch, value):
        # the pair scans once read a thread count from CUNTZ_BASES_THREADS;
        # returns (output without the variable, output with it set to value)
        outputs = []
        for setting in (None, value):
            if setting is None:
                monkeypatch.delenv("CUNTZ_BASES_THREADS", raising=False)
            else:
                monkeypatch.setenv("CUNTZ_BASES_THREADS", setting)
            assert main(["verify", "--suite", "cantor"]) == 0
            assert main(["verify", "--suite", "entropy"]) == 0
            assert main(["cantor", "gram", "--p", "6"]) == 0
            outputs.append(capsys.readouterr())
        return outputs

    def test_threads_env(self, capsys, monkeypatch):
        without, with_env = self._outputs_with_threads_env(capsys, monkeypatch, "2")
        assert without == with_env

    def test_bad_threads_env(self, capsys, monkeypatch):
        # a value that is not a count is ignored too, it no longer exits 2
        without, with_env = self._outputs_with_threads_env(capsys, monkeypatch, "many")
        assert without == with_env
        assert with_env.err == ""

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
        for report in json.loads(capsys.readouterr().out):
            assert set(report) == {"relation", "maxViolation", "witness", "passed",
                                   "tol", "checked"}
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

    def test_tol_override_loosens_float_checks(self, capsys):
        assert main(["verify", "--suite", "sine", "--tol", "1e-6"]) == 0
        # exact checks are untouched by the override
        out = capsys.readouterr().out
        assert "odd-sine-adjoint-kernel-exact" in out
