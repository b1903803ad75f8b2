"""Smoke test of the narrative demos: each script runs to the end in this
process and prints, so a changed library signature cannot silently break
one."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [path.name for path in DEMOS] == [
        "cantor_spectrum.py", "entropy_best_basis.py", "sine_generators.py",
        "waveform_family.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
