"""End-to-end command-line behavior on the shipped fixtures.

Exit codes are part of the public contract (0 ok, 1 non-converged fit,
2 config, 3 identifiability, 4 I/O), so every error path gets a test.
Commands run in-process through main(argv) with captured stdout.
"""

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from magcav import cli
from magcav.cli import main
from magcav.config import ConfigError, RunConfig, load_config
from magcav.presets import bright_crossing_model
from magcav.spectra import DensityMap, PortCouplings, density_map, lorentzian

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# cavity


def test_cavity_reference_values(capsys):
    code, out, _ = run_cli(capsys, "cavity", FIXTURES / "reference_cavity.ini")
    assert code == 0
    kv = {k: float(v) for k, v in parse_kv(out).items()}
    assert kv["f_dark_Hz"] == pytest.approx(13.75e9, rel=1e-2)
    assert kv["f_bright_Hz"] == pytest.approx(20.6e9, rel=1e-2)
    assert kv["xi_bright"] == pytest.approx(2.754669731288976e-2, rel=1e-9)
    assert kv["xi_dark"] == pytest.approx(6.845573657768668e-4, rel=1e-9)
    assert kv["G_dark_ohm"] == pytest.approx(46.47352434652992, rel=1e-9)
    assert kv["G_bright_ohm"] == pytest.approx(54.61320685469967, rel=1e-9)


def test_cavity_gap_scan(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, "cavity", FIXTURES / "reference_cavity.ini",
        "--scan", "gap", "--start", "10", "--stop", "150", "--steps", "5",
        "--csv", csv,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("wrote")]
    assert lines[0].startswith("value_m,")
    body = np.array([[float(tok) for tok in l.split(",")[:5]] for l in lines[1:]])
    assert body.shape[0] == 5
    # larger gap weakens the post capacitance: both modes rise
    assert np.all(np.diff(body[:, 1]) > 0)
    assert np.all(np.diff(body[:, 2]) > 0)
    # in-plane field does not depend on the gap at all
    assert np.allclose(body[:, 3], body[0, 3], rtol=1e-12)
    assert np.allclose(body[:, 4], body[0, 4], rtol=1e-12)
    assert csv.read_text().splitlines()[0] == lines[0]


def test_cavity_missing_geometry_block(capsys):
    code, _, err = run_cli(capsys, "cavity", FIXTURES / "bright_crossing.ini")
    assert code == 2
    assert "geometry" in err


def test_cavity_invalid_geometry_names_invariant(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    text = (FIXTURES / "reference_cavity.ini").read_text()
    bad.write_text(text.replace("post_spacing_mm = 2.3", "post_spacing_mm = 0.6"))
    code, _, err = run_cli(capsys, "cavity", bad)
    assert code == 2
    assert "post_spacing" in err


def test_cavity_prints_no_figure_before_an_overflow(tmp_path, capsys):
    # a finite radius whose field grid overflows: every figure is computed
    # first, so nothing is printed and no numpy warning escapes
    bad = tmp_path / "huge.ini"
    text = (FIXTURES / "reference_cavity.ini").read_text()
    bad.write_text(text.replace("cavity_radius_mm = 5", "cavity_radius_mm = 1e300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "cavity", bad)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


def test_cavity_scan_overflow_is_an_error_row_without_warnings(tmp_path, capsys):
    # the same overflowing radius in a scan: each row reports it in its
    # error column, the scan exits 0 and no numpy warning escapes
    bad = tmp_path / "huge.ini"
    text = (FIXTURES / "reference_cavity.ini").read_text()
    bad.write_text(text.replace("cavity_radius_mm = 5", "cavity_radius_mm = 1e300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "cavity", bad, "--scan", "gap",
                                 "--start", "10", "--stop", "150", "--steps", "2")
    assert code == 0 and err == ""
    header, *rows = out.splitlines()
    assert header.endswith(",error") and len(rows) == 2
    assert all(row.endswith(",filling factor nan outside [0; 1]") for row in rows)


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_cavity_scan_needs_a_step(tmp_path, capsys, steps):
    csv = tmp_path / "scan.csv"
    code, out, err = run_cli(
        capsys, "cavity", FIXTURES / "reference_cavity.ini",
        "--scan", "gap", "--start", "10", "--stop", "150", "--steps", steps, "--csv", csv,
    )
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and "--steps" in err
    assert not csv.exists()


@pytest.mark.parametrize("option", ["--start", "--stop"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_cavity_scan_needs_finite_ends(tmp_path, capsys, option, value):
    # the "--start=-inf" form; separate values are tested below
    ends = {"--start": "10", "--stop": "150", option: value}
    csv = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "cavity", FIXTURES / "reference_cavity.ini", "--scan", "gap",
            *(f"{name}={end}" for name, end in ends.items()), "--steps", "2", "--csv", csv,
        )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and option in err
    assert not csv.exists()


def test_cavity_scan_steps_are_bounded(tmp_path, capsys, monkeypatch):
    # one step past the bound is refused before the sweep is allocated
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep was allocated")

    monkeypatch.setattr(np, "linspace", forbidden)
    steps = cli._MAX_SCAN_STEPS + 1
    code, out, err = run_cli(
        capsys, "cavity", FIXTURES / "reference_cavity.ini",
        "--scan", "gap", "--start", "10", "--stop", "150", "--steps", steps,
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and f"--steps {steps}" in err


@pytest.mark.parametrize("start", ["-1e-3", "-2.5E+1", "-inf"])
def test_cavity_scan_takes_a_separate_negative_start(tmp_path, capsys, start):
    # a separate token that begins with "-" is --start's value, as after "="
    scan = ("cavity", FIXTURES / "reference_cavity.ini", "--scan", "gap")
    joined = run_cli(capsys, *scan, f"--start={start}", "--stop", "150", "--steps", "3")
    separate = run_cli(capsys, *scan, "--start", start, "--stop", "150", "--steps", "3")
    assert separate == joined
    code, out, err = separate
    if start == "-inf":
        assert code == 2 and out == "" and err == "config error: --start -inf is not finite\n"
    else:
        assert code == 0 and "gap must be > 0" in out.splitlines()[1]


@pytest.mark.parametrize("option, value, code", [
    ("--stop", "-1e-3", 0), ("--stop", "-nan", 2), ("--steps", "-3", 2), ("--sta", "-inf", 2),
])
def test_cavity_scan_options_take_separate_signed_values(capsys, option, value, code):
    # "--sta" is --start abbreviated, as argparse allows
    scan = ("cavity", FIXTURES / "reference_cavity.ini", "--scan", "gap", "--steps", "2")
    ends = ("--start", "10", "--stop", "150")
    separate = run_cli(capsys, *scan, *ends, option, value)
    assert separate == run_cli(capsys, *scan, *ends, f"{option}={value}")
    assert separate[0] == code
    if code == 2:
        name = "--start" if option == "--sta" else option
        assert separate[1] == "" and separate[2].startswith(f"config error: {name} ")
        assert len(separate[2].splitlines()) == 1


@pytest.mark.parametrize("option, value", [
    ("--start", "10"), ("--stop", "150"), ("--steps", "3"), ("--csv", "scan.csv"),
])
def test_cavity_scan_options_need_scan(tmp_path, capsys, option, value):
    # refused before the config is read: a missing config would exit 4
    if option == "--csv":
        value = tmp_path / value
    for config in (FIXTURES / "reference_cavity.ini", tmp_path / "missing.ini"):
        code, out, err = run_cli(capsys, "cavity", config, option, value)
        assert code == 2 and out == ""
        assert err == f"config error: {option} needs --scan\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--scan", "gap", "--start", "ten"], "argument --start: invalid float value: 'ten'"),
    (["--scan", "gap", "--start", "10", "--stop"], "argument --stop: expected one argument"),
    (["--scan", "width"], "argument --scan: invalid choice: 'width'"),
    (["--steps=2.5"], "argument --steps: invalid int value: '2.5'"),
    (["--frobnicate"], "unrecognized arguments: --frobnicate"),
])
def test_cavity_bad_command_line_is_one_config_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, "cavity", FIXTURES / "reference_cavity.ini", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {message}")


def test_missing_command_is_one_config_error_line(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2 and out == ""
    assert err == "config error: the following arguments are required: command\n"


# drawn option values: None leaves the option out, _MISSING gives it no
# value; finite ends, zero, negative and huge ones included, and short
# scans are drawn more often than the others so that scans run
_MISSING = object()
_FINITE_ENDS = st.sampled_from(
    ["10", "150", "1.8", "3.05", "0", "-0", "-1", "-2.5e-3", "1e308", "-1e308", "1e30"])
_ENDS = st.one_of(_FINITE_ENDS, _FINITE_ENDS, _FINITE_ENDS, _FINITE_ENDS, st.sampled_from(
    [None, _MISSING, "nan", "-nan", "inf", "-inf", "ten", "1,5", ""]))
# at most 5 rows, or past the bound: the property never runs a large scan
_STEPS = st.one_of(
    st.integers(1, 5).map(str),
    st.integers(1, 5).map(str),
    st.sampled_from([None, _MISSING, "0", "-3", "nan", "inf", "2.5", "1e3", "three", ""]),
    st.integers(10_001, 10**30).map(str),
)


def _parses(text, kind):
    """Whether argparse reads ``text`` with the option type ``kind``."""
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _expected_cavity_exit(config, scan, start, stop, steps, csv):
    """The exit code the README documents for one drawn ``cavity`` call."""
    options = {"--start": start, "--stop": stop, "--steps": steps, "--csv": csv}
    kinds = {"--start": float, "--stop": float, "--steps": int}
    if (_MISSING in options.values() or scan == "width" or any(
            options[o] is not None and not _parses(options[o], kind)
            for o, kind in kinds.items())):
        return 2  # argparse refuses the command line
    if scan is None:
        return 2 if any(v is not None for v in options.values()) else (0 if config.is_file() else 4)
    if start is None or stop is None:
        return 2
    if not (math.isfinite(float(start)) and math.isfinite(float(stop))):
        return 2
    if not 1 <= (11 if steps is None else int(steps)) <= 10_000:
        return 2
    if not config.is_file():
        return 4
    return 0 if csv is None or (csv.parent.is_dir() and not csv.is_dir()) else 4


@given(
    config=st.sampled_from(["fixture", "fixture", "missing", "directory"]),
    scan=st.sampled_from([None, "gap", "height", "spacing", "width"]),
    start=_ENDS, stop=_ENDS, steps=_STEPS,
    csv=st.sampled_from([None, None, None, _MISSING, "scan.csv", "directory",
                         "missing/scan.csv"]),
    order=st.permutations(range(5)),
    plain=st.sampled_from([True, False, False, False]),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cavity_command_line_property(tmp_path, capsys, config, scan, start, stop, steps,
                                      csv, order, plain):
    # any cavity command line ends in a documented exit code, with one
    # stderr line when it fails and no warning or traceback; a plain one
    # has no scan option
    if plain:
        scan = start = stop = steps = csv = None
    config = {"fixture": FIXTURES / "reference_cavity.ini", "missing": tmp_path / "none.ini",
              "directory": tmp_path}[config]
    if csv not in (None, _MISSING):
        csv = tmp_path if csv == "directory" else tmp_path / csv
    options = [("--scan", scan), ("--start", start), ("--stop", stop), ("--steps", steps),
               ("--csv", csv)]
    argv = []
    for name, value in (options[k] for k in order):
        if value is not None and value is not _MISSING:
            argv += [name, value]
    # an option with no value ends the command line
    argv += [name for name, value in options if value is _MISSING][:1]
    want = _expected_cavity_exit(config, scan, start, stop, steps, csv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "cavity", config, *argv)
    assert caught == []
    assert code == want, (argv, err)
    if code == 0:
        written = [] if csv is None else [f"wrote {csv}"]
        assert err.splitlines() == written
        lines = out.splitlines()
        if scan is None:
            assert [line.split(" = ")[0] for line in lines] == list(cli._CAVITY_FIGURES)
        else:
            assert lines[0].startswith("value_m,")
            assert len(lines) == 1 + (11 if steps is None else int(steps))
    else:
        assert out == ""
        prefix = "config error: " if code == 2 else "i/o error: "
        assert len(err.splitlines()) == 1 and err.startswith(prefix)


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text((FIXTURES / "reference_cavity.ini").read_text() + "\nwindage = 3\n")
    code, _, err = run_cli(capsys, "cavity", bad)
    assert code == 2
    assert "windage" in err


def test_unknown_section_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text((FIXTURES / "reference_cavity.ini").read_text() + "\n[magic]\nx = 1\n")
    code, _, err = run_cli(capsys, "cavity", bad)
    assert code == 2
    assert "magic" in err


def test_non_numeric_value_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    text = (FIXTURES / "reference_cavity.ini").read_text()
    bad.write_text(text.replace("gap_um = 73", "gap_um = wide"))
    code, _, err = run_cli(capsys, "cavity", bad)
    assert code == 2
    assert "gap_um" in err


def test_missing_config_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "cavity", "/no/such/file.ini")
    assert code == 4
    assert "file.ini" in err


def _run_edited(tmp_path, capsys, fixture, command, old, new):
    """Run ``command`` on a fixture with ``old`` replaced by ``new``."""
    path = tmp_path / "edited.ini"
    text = (FIXTURES / fixture).read_bytes()
    assert old in text
    path.write_bytes(text.replace(old, new))
    args = ["-o", tmp_path / "map"] if command == "spectrum" else []
    return run_cli(capsys, command, path, *args)


@pytest.mark.parametrize("fixture, command, old, new, named", [
    # a byte that is not UTF-8, in a comment
    ("reference_cavity.ini", "report", b"Copper", b"Copp\xe9r", "UTF-8"),
    ("bright_crossing.ini", "spectrum", b"sigma = 1e-3", b"sigma = nan", "sigma"),
    ("reference_cavity.ini", "report", b"rs_reference_mohm = 76", b"rs_reference_mohm = 0",
     "rs_reference_mohm"),
    ("reference_cavity.ini", "report", b"rs_reference_mohm = 76", b"rs_reference_mohm = nan",
     "rs_reference_mohm"),
    ("reference_cavity.ini", "report", b"power_dbm = -90", b"power_dbm = -inf", "power_dbm"),
    # finite values whose derived figures overflow, or underflow into a divisor
    ("reference_cavity.ini", "report", b"power_dbm = -90", b"power_dbm = 4000", "out of range"),
    ("reference_cavity.ini", "report", b"photon_q = 714", b"photon_q = 1e300", "out of range"),
    ("optimized_prediction.ini", "predict", b"g_over_pi_ghz = 2.05", b"g_over_pi_ghz = 1e150",
     "out of range"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, fixture, command, old, new, named):
    code, _, err = _run_edited(tmp_path, capsys, fixture, command, old, new)
    assert code == 2
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "map.csv").exists()


# values just past each bound, checked before anything is computed,
# printed or written
@pytest.mark.parametrize("fixture, command, old, new, named", [
    # finite as typed, inf Hz once scaled
    ("reference_cavity.ini", "report", b"bright_kappa_mhz = 27", b"bright_kappa_mhz = 1e303",
     "bright_kappa_mhz"),
    ("optimized_prediction.ini", "predict", b"b_start_t = 0.40\nb_stop_t = 1.10",
     b"b_start_t = -1e308\nb_stop_t = 1e308", "b_start_t"),
    # 8389 * 500 cells is one row past 2**22
    ("optimized_prediction.ini", "predict", b"b_steps = 120", b"b_steps = 8389", "b_steps"),
    ("reference_cavity.ini", "report", b"resolution = 257", b"resolution = 2050", "resolution"),
    ("reference_cavity.ini", "cavity", b"resolution = 257", b"resolution = 63", "resolution"),
    ("bright_crossing.ini", "spectrum", b"seed = 20260817", b"seed = -1", "seed"),
], ids=["kappa_overflow", "b_span_overflow", "cells", "resolution_high", "resolution_low",
        "seed"])
def test_value_past_a_bound_is_config_error(tmp_path, capsys, fixture, command, old, new, named):
    code, out, err = _run_edited(tmp_path, capsys, fixture, command, old, new)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and named in err
    assert list(tmp_path.iterdir()) == [tmp_path / "edited.ini"]


@pytest.mark.parametrize("fixture, command, old, new", [
    ("optimized_prediction.ini", "predict", b"b_steps = 120", b"b_steps = 8388"),
    ("reference_cavity.ini", "report", b"resolution = 257", b"resolution = 2049"),
    ("reference_cavity.ini", "cavity", b"resolution = 257", b"resolution = 64"),
    ("bright_crossing.ini", "spectrum", b"seed = 20260817", b"seed = 0"),
], ids=["cells", "resolution_high", "resolution_low", "seed"])
def test_value_at_a_bound_is_accepted(tmp_path, capsys, fixture, command, old, new):
    assert _run_edited(tmp_path, capsys, fixture, command, old, new)[0] == 0


_CONFIG_TOKENS = (
    "0", "-1", "2", "0.5", "nan", "inf", "-inf", "1e-320", "1e-300", "1e150", "1e300",
    "-1e300", "", "abc",
)


@st.composite
def _mutated_config(draw):
    """A fixture INI with one byte-level, line-level or value corruption."""
    data = (FIXTURES / draw(st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.ini"))))
            ).read_bytes()
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(
        ["replace", "delete", "insert", "truncate", "duplicate", "swap", "crlf", "value"]))
    at = draw(st.integers(0, len(data) - 1))
    row = draw(st.integers(0, len(lines) - 1))
    byte = bytes([draw(st.integers(0, 255) | st.sampled_from(b"[]=#;.-+eE0123456789\n\r "))])
    if kind == "replace":
        return data[:at] + byte + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    if kind == "insert":
        return data[:at] + byte + data[at:]
    if kind == "truncate":
        return data[:at]
    if kind == "duplicate":
        return b"".join(lines[:row + 1] + lines[row:])
    if kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[row], lines[other] = lines[other], lines[row]
        return b"".join(lines)
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    keyed = [i for i, line in enumerate(lines) if b" = " in line and not line.startswith(b"#")]
    i = draw(st.sampled_from(keyed))
    key = lines[i].split(b" = ")[0]
    lines[i] = key + b" = " + draw(st.sampled_from(_CONFIG_TOKENS)).encode() + b"\n"
    return b"".join(lines)


# cavity and spectrum, which compute a grid, run in the property below
@given(content=_mutated_config())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_config_ends_in_an_exit_code(tmp_path, capsys, content):
    path = tmp_path / "mutated.ini"
    path.write_bytes(content)
    try:
        assert isinstance(load_config(path), RunConfig)
    except (ConfigError, OSError):
        pass
    # a documented exit code, never a traceback: 0 ok, 2 config,
    # 3 unidentifiable, 4 i/o; an error is reported before any figure
    for command in ("report", "predict"):
        code = main([command, str(path)])
        out = capsys.readouterr().out
        assert code in (0, 2, 3, 4)
        assert code == 0 or out == ""


# the bounds on resolution and *_steps keep every grid these draw small;
# a draw that prints a numpy warning fails
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(content=_mutated_config())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_config_runs_cavity_and_spectrum_to_an_exit_code(tmp_path, capsys, content):
    path = tmp_path / "mutated.ini"
    path.write_bytes(content)
    for argv in (["cavity", path], ["spectrum", path, "-o", tmp_path / "map"]):
        assert main([str(a) for a in argv]) in (0, 2, 3, 4)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_writes_both_files_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli(capsys, "spectrum", FIXTURES / "bright_crossing.ini", "-o", out1)[0] == 0
    assert run_cli(capsys, "spectrum", FIXTURES / "bright_crossing.ini", "-o", out2)[0] == 0
    assert _sha(str(out1) + ".csv") == _sha(str(out2) + ".csv")
    assert _sha(str(out1) + ".pgm") == _sha(str(out2) + ".pgm")
    with open(str(out1) + ".pgm", "rb") as fh:
        assert fh.readline() == b"P5\n"


@pytest.mark.parametrize("f_steps, code", [("400", 2), ("2", 0)])
def test_spectrum_rejects_an_axis_finer_than_the_written_digits(tmp_path, capsys, f_steps, code):
    # 18.9 .. 18.9000001 GHz spans ten steps of the writer's tenth digit:
    # 400 steps would write 11 distinct f strings, a map fit cannot read
    fine = tmp_path / "fine.ini"
    text = (FIXTURES / "bright_crossing.ini").read_text()
    fine.write_text(text.replace("f_stop_ghz = 22.9", "f_stop_ghz = 18.9000001")
                    .replace("f_steps = 400", f"f_steps = {f_steps}"))
    got, out, err = run_cli(capsys, "spectrum", fine, "-o", tmp_path / "map")
    assert got == code
    if code == 2:
        assert out == "" and "f_steps" in err and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fine.ini"]
    else:
        assert DensityMap.read_csv(tmp_path / "map.csv").f_axis.size == 2


def test_spectrum_unwritable_output_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "spectrum", FIXTURES / "bright_crossing.ini",
        "-o", tmp_path / "nodir" / "x",
    )
    assert code == 4
    assert "nodir" in err


def test_spectrum_requires_model_block(capsys):
    code, _, err = run_cli(capsys, "spectrum", FIXTURES / "reference_cavity.ini", "-o", "/tmp/x")
    assert code == 2
    assert "model" in err


# a coupling whose square overflows gives the one config error line and
# no numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fixture, coupling", [("dark_doublet.ini", "0.143"),
                                               ("bright_crossing.ini", "2.05")])
def test_spectrum_overflowing_coupling_is_one_config_error(tmp_path, capsys, fixture, coupling):
    text = (FIXTURES / fixture).read_text()
    old = f"coupling_1_2_ghz = {coupling}\n"
    assert old in text
    cfg = tmp_path / fixture
    cfg.write_text(text.replace(old, "coupling_1_2_ghz = 1e150\n"))
    code, out, err = run_cli(capsys, "spectrum", cfg, "-o", tmp_path / "map")
    assert code == 2 and out == ""
    assert err.splitlines() == ["config error: map values must be finite"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [fixture]


# ---------------------------------------------------------------------------
# fit


def test_fit_two_mode_round_trip(tmp_path, capsys):
    prefix = tmp_path / "fig"
    run_cli(capsys, "spectrum", FIXTURES / "bright_crossing.ini", "-o", prefix)
    code, out, _ = run_cli(capsys, "fit", str(prefix) + ".csv", "--kind", "two-mode")
    assert code == 0
    kv = parse_kv(out)
    assert kv["converged"] == "true"
    assert float(kv["param.g_over_pi"]) == pytest.approx(2.05e9, rel=1e-2)


def _single_ridge_csv(path, n_cols=12):
    B = np.linspace(0.5, 0.6, n_cols)
    f = np.linspace(19.0e9, 21.0e9, 300)
    values = np.stack([lorentzian(f, 1.0, 19.8e9 + 2e9 * (b - 0.5), 3e7) for b in B])
    DensityMap(B, f, values).write_csv(path)


def test_fit_single_branch_exits_3(tmp_path, capsys):
    path = tmp_path / "one_branch.csv"
    _single_ridge_csv(path)
    code, _, err = run_cli(capsys, "fit", path)
    assert code == 3
    assert "identifiable" in err


def test_fit_sparse_ridge_exits_3(tmp_path, capsys):
    path = tmp_path / "sparse.csv"
    _single_ridge_csv(path, n_cols=5)
    code, _, err = run_cli(capsys, "fit", path)
    assert code == 3
    assert "at least 10" in err


@pytest.mark.parametrize("prominence", ["-1e-3", "-0.5"])
def test_fit_takes_a_separate_negative_prominence(tmp_path, capsys, prominence):
    path = tmp_path / "one_branch.csv"
    _single_ridge_csv(path)
    separate = run_cli(capsys, "fit", path, "--prominence", prominence)
    assert separate == run_cli(capsys, "fit", path, f"--prominence={prominence}")
    code, out, err = separate
    assert code == 2 and out == ""
    assert err == "config error: min_prominence_rel must lie in (0, 1)\n"


def test_signed_values_join_only_their_options():
    join = cli._join_signed_values
    assert join(["fit", "m.csv", "--prominence", "-1e-3"]) == ["fit", "m.csv", "--prominence=-1e-3"]
    assert join(["--start", "-1", "--stop", "-2"]) == ["--start=-1", "--stop=-2"]
    # other options, values that are long options, and all after "--" stay
    for argv in (["-o", "-x"], ["--csv", "-a.csv"], ["--start", "--stop", "3"],
                 ["--start", "5"], ["--", "--start", "-1"], ["--start"]):
        assert join(argv) == argv


def test_fit_missing_map_is_io_error(capsys):
    code, _, _ = run_cli(capsys, "fit", "/no/such/map.csv")
    assert code == 4


def _drop_row(lines):
    del lines[7]


def _duplicate_row(lines):
    lines.insert(7, lines[6])


def _hole_and_duplicate(lines):
    lines[7] = lines[6]


def _non_numeric(lines):
    lines[7] = lines[7].rsplit(",", 1)[0] + ",strong"


def _non_finite(lines):
    lines[7] = lines[7].rsplit(",", 1)[0] + ",nan"


def _short_row(lines):
    lines[7] = lines[7].rsplit(",", 1)[0]


def _two_columns(lines):
    lines[:] = [line.rsplit(",", 1)[0] for line in lines]


def _one_cell(lines):
    del lines[2:]


def _two_by_two(lines):
    # the first two f samples of the first two B columns
    lines[:] = [lines[0], lines[1], lines[2], lines[301], lines[302]]


@pytest.mark.parametrize("damage", [
    _drop_row, _duplicate_row, _hole_and_duplicate, _non_numeric,
    _non_finite, _short_row, _two_columns, _one_cell, _two_by_two,
])
def test_fit_malformed_map_is_io_error(tmp_path, capsys, damage):
    path = tmp_path / "map.csv"
    _single_ridge_csv(path)
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "fit", path)
    assert code == 4
    assert out == ""
    assert err.startswith(f"i/o error: {path}: ")


# a warning raised as an error would break the one-line stderr contract
@pytest.mark.filterwarnings("error")
def test_fit_header_only_map_is_io_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("B_T,f_Hz,s21_dB\n")
    code, out, err = run_cli(capsys, "fit", path)
    assert code == 4
    assert out == ""
    assert err == f"i/o error: {path}: no data rows\n"



# the all-positive map is in the writer's layout and read by the template
# reader; the other mixes signs and goes through np.loadtxt
@pytest.mark.parametrize("db", ["3.000000000e+01", "-3.000000000e+01"])
def test_fit_overflowing_map_is_one_io_error(tmp_path, capsys, db):
    path = tmp_path / "overflow.csv"
    rows = ["B_T,f_Hz,s21_dB"]
    for i in range(4):
        for j in range(4):
            cell = "1.000000000e+04" if (i, j) == (1, 2) else db
            rows.append(f"{0.5 + 0.1 * i:.9e},{1e9 + 1e6 * j:.9e},{cell}")
    path.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "fit", path)
    assert code == 4
    assert out == ""
    assert err == f"i/o error: {path}: map values must be finite\n"
    assert [str(w.message) for w in caught] == []


@pytest.fixture(scope="module")
def fit_paths(tmp_path_factory):
    """The map paths the fit property draws from, each written once: a
    small noiseless bright crossing that both kinds fit, its PGM, a copy
    with a CRLF header, a missing file and a directory."""
    root = tmp_path_factory.mktemp("fit")
    dmap = density_map(bright_crossing_model(), np.linspace(0.68, 0.80, 24),
                       np.linspace(19.5e9, 22.5e9, 120), PortCouplings())
    dmap.write_csv(root / "map.csv")
    dmap.write_pgm(root / "map.pgm")
    (root / "crlf.csv").write_bytes((root / "map.csv").read_bytes().replace(b"\n", b"\r\n", 1))
    return {"map": root / "map.csv", "crlf": root / "crlf.csv", "pgm": root / "map.pgm",
            "missing": root / "none.csv", "directory": root}


def _expected_fit_exit(path, kind, prominence):
    """The exit code the README documents for one drawn ``fit`` call on
    one of ``fit_paths``."""
    if (_MISSING in (kind, prominence) or kind not in (None, "two-mode", "three-mode")
            or (prominence is not None and not _parses(prominence, float))):
        return 2  # argparse refuses the command line
    if path not in ("map", "crlf"):
        return 4  # no file, a directory, or not a map CSV
    if not 0.0 < float(0.25 if prominence is None else prominence) < 1.0:
        return 2
    return 0


@given(
    path=st.sampled_from(["map", "map", "crlf", "pgm", "missing", "directory"]),
    kind=st.sampled_from([None, "two-mode", "three-mode", "five-mode", _MISSING]),
    prominence=st.sampled_from([None, None, "0.25", "0.25", "nan", "inf", "-inf", "0", "1",
                                "-0.5", "1e300", "ten", _MISSING]),
    order=st.permutations(range(3)),
)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fit_command_line_property(fit_paths, capsys, path, kind, prominence, order):
    # any fit command line ends in the documented exit code, checked in
    # order: argparse, the map read, the prominence range, the fit; a
    # failure prints one stderr line, and nothing warns
    groups = [[fit_paths[path]]]
    for name, value in (("--kind", kind), ("--prominence", prominence)):
        groups.append([] if value in (None, _MISSING) else [name, value])
    argv = [token for k in order for token in groups[k]]
    # an option with no value ends the command line
    argv += [name for name, value in (("--kind", kind), ("--prominence", prominence))
             if value is _MISSING][:1]
    want = _expected_fit_exit(path, kind, prominence)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_cli(capsys, "fit", *argv)
    assert caught == []
    code, out, err = got
    assert code == want, (argv, err)
    if code == 0:
        assert err == "" and parse_kv(out)["converged"] == "true"
        if path == "crlf":
            lf = [fit_paths["map"] if token == fit_paths["crlf"] else token for token in argv]
            assert run_cli(capsys, "fit", *lf) == got
    else:
        assert out == ""
        prefix = "config error: " if code == 2 else "i/o error: "
        assert len(err.splitlines()) == 1 and err.startswith(prefix)

# ---------------------------------------------------------------------------
# report


def test_report_reference_values(capsys):
    code, out, _ = run_cli(capsys, "report", FIXTURES / "reference_cavity.ini")
    assert code == 0
    kv = {k: float(v) for k, v in parse_kv(out).items()}
    assert kv["C_bright"] == pytest.approx(1.41498e5, rel=1e-4)
    assert kv["C_dark"] == pytest.approx(516.39, rel=1e-3)
    assert kv["N_spins"] == pytest.approx(5.6297e18, rel=1e-3)
    assert kv["g_per_spin_Hz"] == pytest.approx(0.432, rel=1e-2)
    assert kv["photons"] == pytest.approx(15.3968, rel=1e-4)
    assert kv["Rs_ohm"] == pytest.approx(0.0981, rel=1e-2)
    assert kv["Rs_over_reference"] == pytest.approx(0.0981 / 0.076, rel=1e-2)
    assert kv["ratio_modeled"] == pytest.approx(14.98, rel=1e-3)
    assert kv["ratio_measured"] == pytest.approx(14.34, rel=1e-3)


def test_report_zero_coupling_zeroes_derived_outputs(tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    text = (FIXTURES / "reference_cavity.ini").read_text()
    text = text.replace("bright_g_over_pi_ghz = 2.05", "bright_g_over_pi_ghz = 0")
    text = text.replace("dark_g_over_pi_mhz = 143", "dark_g_over_pi_mhz = 0")
    cfg.write_text(text)
    code, out, _ = run_cli(capsys, "report", cfg)
    assert code == 0
    kv = {k: float(v) for k, v in parse_kv(out).items()}
    assert kv["C_bright"] == 0.0
    assert kv["C_dark"] == 0.0
    assert kv["g_per_spin_Hz"] == 0.0
    assert kv["ratio_measured"] == 0.0
    assert kv["ratio_modeled"] > 0.0  # geometry-derived, independent of g


# each value outside its domain exits 2 before anything is printed
@pytest.mark.parametrize("old, new", [
    ("xi_dark = 3e-4", "xi_dark = -3e-4"),
    ("photon_beta = 0.01", "photon_beta = -0.3"),
    ("dark_g_over_pi_mhz = 143", "dark_g_over_pi_mhz = -143"),
    ("bright_g_over_pi_ghz = 2.05", "bright_g_over_pi_ghz = -2.05"),
    ("geometric_factor_ohm = 51", "geometric_factor_ohm = -51"),
    # C_bright overflows; photons is inf / inf
    ("bright_kappa_mhz = 27", "bright_kappa_mhz = 1e-305"),
    ("photon_q = 714", "photon_q = 1e-300"),
    # kappa * gamma overflows, so C_bright would read 0
    ("bright_kappa_mhz = 27", "bright_kappa_mhz = 1e300"),
])
def test_report_out_of_domain_value_prints_nothing(tmp_path, capsys, old, new):
    text = (FIXTURES / "reference_cavity.ini").read_text()
    assert old + "\n" in text
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.replace(old + "\n", new + "\n"))
    code, out, err = run_cli(capsys, "report", cfg)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# predict


def test_predict_reference_chain(capsys):
    code, out, _ = run_cli(capsys, "predict", FIXTURES / "optimized_prediction.ini")
    assert code == 0
    kv = {k: float(v) for k, v in parse_kv(out).items()}
    assert kv["g_opt_over_pi"] == pytest.approx(5.293077239816803e9, rel=1e-9)
    assert kv["cooperativity_opt"] == pytest.approx(1.1319865319865318e7, rel=1e-9)
    assert kv["branch_asymmetry"] > 0.01


# a warning raised as an error would break the one-line stderr contract
@pytest.mark.filterwarnings("error")
def test_predict_zero_coupling_prints_nan_without_warning(tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    text = (FIXTURES / "optimized_prediction.ini").read_text()
    cfg.write_text(text.replace("g_over_pi_ghz = 2.05", "g_over_pi_ghz = 0"))
    code, out, err = run_cli(capsys, "predict", cfg)
    assert code == 0 and err == ""
    kv = parse_kv(out)
    # one degenerate line: no splitting, so neither ratio has a value
    assert kv["branch_asymmetry"] == "nan" and kv["per_spin_scale"] == "nan"


def test_predict_map_output(tmp_path, capsys):
    prefix = tmp_path / "pred"
    code, out, _ = run_cli(
        capsys, "predict", FIXTURES / "optimized_prediction.ini", "--map", prefix
    )
    assert code == 0
    dmap = DensityMap.read_csv(str(prefix) + ".csv")
    assert dmap.B_axis.size == 120 and dmap.f_axis.size == 500
    assert (tmp_path / "pred.pgm").exists()
    # the two branch ridges sit asymmetrically about the bare cavity line
    i = int(np.argmin(np.abs(dmap.B_axis - 0.743)))
    col = dmap.values[i]
    f = dmap.f_axis
    upper = f[(f > 20.9e9)][np.argmax(col[f > 20.9e9])]
    lower = f[(f < 20.9e9)][np.argmax(col[f < 20.9e9])]
    asym = abs((upper - 20.9e9) - (20.9e9 - lower)) / (upper - lower)
    assert asym > 0.01


# (f - f0)**2 overflows on every cell of the map: its lines are 0 there,
# with no numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_map_on_an_overflowing_f_axis_prints_no_warning(tmp_path, capsys):
    text = (FIXTURES / "optimized_prediction.ini").read_text()
    assert "f_start_ghz = 10.0\n" in text and "f_stop_ghz = 32.0\n" in text
    cfg = tmp_path / "huge.ini"
    cfg.write_text(text.replace("f_start_ghz = 10.0\n", "f_start_ghz = 1e150\n")
                   .replace("f_stop_ghz = 32.0\n", "f_stop_ghz = 2e150\n"))
    prefix = tmp_path / "pred"
    want = run_cli(capsys, "predict", FIXTURES / "optimized_prediction.ini", "--map", prefix)
    got = run_cli(capsys, "predict", cfg, "--map", prefix)
    assert got == want and want[0] == 0 and want[2] == ""


# xi_bright = 50 puts g_opt/pi above f_b, where the lower Bogoliubov
# branch collapses; with --map the magnon line leaves f > 0 instead
@pytest.mark.parametrize("old, new, with_map", [
    ("[optimized]\nxi_bright = 0.2\n", "[optimized]\nxi_bright = 50\n", False),
    ("magnon_offset_ghz = 0\n", "magnon_offset_ghz = -20\n", True),
    # cooperativity_opt overflows
    ("kappa_mhz = 27\n", "kappa_mhz = 1e-300\n", False),
    # kappa_opt * gamma overflows, so cooperativity_opt would read 0
    ("linewidth_factor = 12\n", "linewidth_factor = 1e-300\n", False),
])
def test_predict_error_prints_nothing(tmp_path, capsys, old, new, with_map):
    text = (FIXTURES / "optimized_prediction.ini").read_text()
    assert old in text
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.replace(old, new))
    map_args = ["--map", tmp_path / "pred"] if with_map else []
    code, out, err = run_cli(capsys, "predict", cfg, *map_args)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


@given(
    config=st.sampled_from(["fixture", "fixture", "missing", "directory"]),
    prefix=st.sampled_from([None, "pred", "missing/pred", _MISSING]),
    map_first=st.booleans(),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_predict_command_line_property(tmp_path, capsys, config, prefix, map_first):
    # any predict command line ends in the documented exit code, checked
    # in order: argparse, the config read, the map write; a failure
    # prints one stderr line, and nothing warns
    argv = [{"fixture": FIXTURES / "optimized_prediction.ini",
             "missing": tmp_path / "none.ini", "directory": tmp_path}[config]]
    if prefix is _MISSING:
        argv.append("--map")  # an option with no value ends the command line
    elif prefix is not None:
        prefix = tmp_path / prefix
        argv = ["--map", prefix] + argv if map_first else argv + ["--map", prefix]
    if prefix is _MISSING:
        want = 2
    elif config != "fixture" or (prefix is not None and not prefix.parent.is_dir()):
        want = 4
    else:
        want = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "predict", *argv)
    assert caught == []
    assert code == want, (argv, err)
    if code == 0:
        assert err == "" and "g_opt_over_pi" in parse_kv(out)
        if prefix is not None:
            assert out.endswith(f"wrote {prefix}.csv\nwrote {prefix}.pgm\n")
    else:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: " if code == 2 else "i/o error: ")


_WRITES = {
    "predict": ["predict", FIXTURES / "optimized_prediction.ini", "--map"],
    "cavity": ["cavity", FIXTURES / "reference_cavity.ini", "--scan", "gap",
               "--start", "10", "--stop", "150", "--csv"],
}


@pytest.mark.parametrize("command", sorted(_WRITES))
def test_unwritable_output_prints_nothing(tmp_path, capsys, command):
    # the output file is written before anything is printed
    code, out, err = run_cli(capsys, *_WRITES[command], tmp_path / "nodir" / "x")
    assert code == 4 and out == ""
    assert err.startswith("i/o error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(_WRITES))
def test_written_output_is_reported_after_the_figures(tmp_path, capsys, command):
    argv = _WRITES[command]
    code, plain, _ = run_cli(capsys, *argv[:-1])
    assert code == 0
    code, out, err = run_cli(capsys, *argv, tmp_path / "x")
    assert code == 0
    if command == "predict":
        assert out == plain + f"wrote {tmp_path / 'x'}.csv\nwrote {tmp_path / 'x'}.pgm\n"
    else:
        assert out == plain and err == f"wrote {tmp_path / 'x'}\n"


def test_predict_requires_current_block(capsys):
    code, _, err = run_cli(capsys, "predict", FIXTURES / "bright_crossing.ini")
    assert code == 2
    assert "current" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
