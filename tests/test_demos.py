"""The narrative demos: each script runs to the end in this process and
prints exactly its pinned output, so neither a changed library signature
nor a changed result can slip through."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout
DEMO_DIGESTS = {
    "cantor_spectrum": "8bdea94722dbbb9cdd6a0768400698ccaa64d48f9408adc87112e52ce48d075b",
    "entropy_best_basis": "2a44d2f5b4ca8b1c925205017d97a58f471d7d3fd47d8fefb372298f33a96342",
    "sine_generators": "084721ffb421f51b10b96347b6173e9c0824aae9ef8243b2ef3bceff19afa49f",
    "waveform_family": "94db7c809ece3e99d50b3691493fbb9beb3e1a6d057a414d398a4f38ee8ac159",
}


def test_all_demos_found():
    assert [path.name for path in DEMOS] == [
        "cantor_spectrum.py", "entropy_best_basis.py", "sine_generators.py",
        "waveform_family.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_DIGESTS[path.stem]
