"""Fit reports and cavity designs of the shipped fixtures against golden output.

Each fit case synthesizes a fixture map with ``magcav spectrum`` and fits it
with ``magcav fit``; every number in the report must match the golden
file to 1e-12 relative, and every other field exactly.  The path covers
map synthesis, CSV write and read, peak picking and the LM fits, so a
refactor of any of them cannot move a fitted number unnoticed.  The
golden files come from the same two commands; rewrite them only for a
deliberate change of results, e.g.

    magcav spectrum fixtures/bright_crossing.ini -o /tmp/bright
    magcav fit /tmp/bright.csv --kind two-mode > tests/golden/fit_bright_two_mode.txt

The fixture maps are held by sha256 in ``maps.sha256``: the CSV and PGM
of ``magcav spectrum`` on the bright and dark fixtures and of ``magcav
predict --map`` on the prediction fixture, each written to an output
prefix named after its fixture (``sha256sum`` of the six files).

The ``cavity`` report and its three scans are held byte for byte: their
printed digits are the field-map quadrature's result, so a change in
how the maps are built must not move a single one.  Each golden file is
the stdout of the command in ``CAVITY_CASES``, e.g.

    magcav cavity fixtures/reference_cavity.ini --scan gap --start 10 --stop 150 \
        > tests/golden/cavity_scan_gap.txt

A scan's ``--csv`` file holds the same bytes as its stdout.

The ``predict`` report is held byte for byte too, as the stdout of
``magcav predict fixtures/optimized_prediction.ini`` (``predict.txt``):
its branch offsets are the Bogoliubov closed form's digits.
"""

import hashlib
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
    # no column carries three peaks: the three-mode fit falls back to two
    ("bright_crossing.ini", ["--kind", "three-mode"], "fit_bright_three_mode_fallback.txt"),
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


CAVITY_CASES = [
    ([], "cavity.txt"),
    (["--scan", "gap", "--start", "10", "--stop", "150"], "cavity_scan_gap.txt"),
    (["--scan", "spacing", "--start", "0.6", "--stop", "9.6", "--steps", "11"],
     "cavity_scan_spacing.txt"),
    (["--scan", "height", "--start", "0.05", "--stop", "3.05", "--steps", "11"],
     "cavity_scan_height.txt"),
]


@pytest.mark.parametrize("args, golden", CAVITY_CASES)
def test_cavity_output_matches_golden_bytes(capsys, args, golden):
    code = main(["cavity", str(FIXTURES / "reference_cavity.ini"), *args])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("args, golden", [c for c in CAVITY_CASES if "--scan" in c[0]])
def test_cavity_scan_csv_matches_golden_bytes(tmp_path, capsys, args, golden):
    # the scan table file holds the printed table's bytes, also when it
    # is written over a longer file
    csv = tmp_path / "scan.csv"
    csv.write_bytes(b"x" * 10_000)
    code = main(["cavity", str(FIXTURES / "reference_cavity.ini"), *args, "--csv", str(csv)])
    assert code == 0
    capsys.readouterr()
    assert csv.read_bytes() == (GOLDEN / golden).read_bytes()


def _map_sha256(tmp_path, capsys):
    """The golden and the written sha256 of the six fixture map files, as
    two ``{name: digest}`` dicts; the files are written to ``tmp_path``."""
    for stem in ("bright_crossing", "dark_doublet"):
        assert main(["spectrum", str(FIXTURES / f"{stem}.ini"), "-o", str(tmp_path / stem)]) == 0
    prefix = tmp_path / "optimized_prediction"
    assert main(["predict", str(FIXTURES / "optimized_prediction.ini"), "--map", str(prefix)]) == 0
    capsys.readouterr()
    want = {}
    for line in (GOLDEN / "maps.sha256").read_text().splitlines():
        digest, name = line.split()
        want[name] = digest
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    return want, got


def test_fixture_maps_match_golden_sha256(tmp_path, capsys):
    want, got = _map_sha256(tmp_path, capsys)
    assert got == want


@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_fixture_maps_over_old_files_match_golden_sha256(tmp_path, capsys, old):
    # an existing output, longer (sparse) or shorter, leaves no trace
    for line in (GOLDEN / "maps.sha256").read_text().splitlines():
        with open(tmp_path / line.split()[1], "wb") as fh:
            fh.truncate(64 << 20 if old == "longer" else 10)
    want, got = _map_sha256(tmp_path, capsys)
    assert got == want


def test_predict_output_matches_golden_bytes(capsys):
    assert main(["predict", str(FIXTURES / "optimized_prediction.ini")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "predict.txt").read_text()
