"""Fit reports of the shipped fixtures against stored golden reports.

Each case synthesizes a fixture map with ``magcav spectrum`` and fits it
with ``magcav fit``; every number in the report must match the golden
file to 1e-12 relative, and every other field exactly.  The path covers
map synthesis, CSV write and read, peak picking and the LM fits, so a
refactor of any of them cannot move a fitted number unnoticed.  The
golden files come from the same two commands; rewrite them only for a
deliberate change of results, e.g.

    magcav spectrum fixtures/bright_crossing.ini -o /tmp/bright
    magcav fit /tmp/bright.csv --kind two-mode > tests/golden/fit_bright_two_mode.txt
"""

import math
from pathlib import Path

import pytest

from magcav.cli import main

ROOT = Path(__file__).resolve().parent
FIXTURES = ROOT.parent / "fixtures"
GOLDEN = ROOT / "golden"

CASES = [
    ("bright_crossing.ini", ["--kind", "two-mode"], "fit_bright_two_mode.txt"),
    ("dark_doublet.ini", ["--kind", "three-mode", "--prominence", "0.02"],
     "fit_dark_three_mode.txt"),
]


def _report(text):
    pairs = (line.partition("=") for line in text.splitlines())
    return {key.strip(): value.strip() for key, _, value in pairs}


@pytest.mark.parametrize("fixture, fit_args, golden", CASES)
def test_fit_report_matches_golden(tmp_path, capsys, fixture, fit_args, golden):
    prefix = tmp_path / "map"
    assert main(["spectrum", str(FIXTURES / fixture), "-o", str(prefix)]) == 0
    capsys.readouterr()
    code = main(["fit", f"{prefix}.csv", *fit_args])
    got = _report(capsys.readouterr().out)
    want = _report((GOLDEN / golden).read_text())
    assert code == 0
    assert list(got) == list(want)
    for key, value in want.items():
        # fitted numbers to 1e-12 relative; counts and flags exactly
        if key == "residual_rms" or key.startswith(("param.", "stderr.")):
            assert math.isclose(float(got[key]), float(value), rel_tol=1e-12), key
        else:
            assert got[key] == value, key
