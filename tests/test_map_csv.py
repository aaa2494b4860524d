"""Map CSV files: byte-for-byte against the per-cell writer, bit-for-bit
against the general reader, and round trips.

``oracles.write_map_csv_fstring`` is the one-f-string-per-cell writer
the file format was defined by; the production writer must emit the
same bytes for the same arrays.  ``oracles.read_map_loadtxt`` is the
``np.loadtxt`` reader every map file was once read with; the production
reader must return the same arrays bit for bit, or reject the same
files.  Tests that need value cells of any sign write their own cells
through ``_gridcsv.write_grid_csv`` with a copying conversion, and
compare with ``oracles.write_cells_csv_fstring``.
"""

import functools
import math
import os
import random
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from magcav import _gridcsv, spectra
from magcav.cli import main
from magcav.config import load_config
from magcav.presets import bright_crossing_model
from magcav.spectra import DensityMap, MapFormatError, PortCouplings, density_map

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# signed zeros, decade round-ups, three-digit exponents and subnormals
_SPECIAL = (
    0.0, -0.0, 1.0, -2.5, 9.9999999996e02, -9.9999999996e02, 9.99999999951e-01,
    1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
)
_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)
_SHAPES = st.one_of(
    st.sampled_from([(1, 1), (1, 7), (7, 1)]),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
_BYTES_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _floats(draw, shape):
    return draw(arrays(np.float64, shape, elements=_FLOATS))


def _copy(block, out):
    np.copyto(out, block)


def _write_cells(path, B, f, cells):
    """Write ``cells`` as the map CSV's dB column, whatever their sign, by the
    map writer's block loop."""
    _gridcsv.write_grid_csv(path, spectra._MAP_HEADER, B, f, cells, _copy)


def _same_as_fstring(tmp_path, B, f, cells):
    """The grid writer's bytes for ``cells`` are the f-string oracle's."""
    _write_cells(tmp_path / "new.csv", B, f, cells)
    oracles.write_cells_csv_fstring(tmp_path / "old.csv", B, f, cells)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@given(data=st.data())
@_BYTES_SETTINGS
def test_map_csv_matches_fstring_oracle(tmp_path, data):
    nB, nf = data.draw(_SHAPES)
    amplitude = np.abs(_floats(data.draw, (nB, nf)))
    dmap = DensityMap(_floats(data.draw, nB), _floats(data.draw, nf), amplitude)
    dmap.write_csv(tmp_path / "new.csv")
    oracles.write_map_csv_fstring(tmp_path / "old.csv", dmap)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@given(data=st.data())
@_BYTES_SETTINGS
def test_signed_db_csv_matches_fstring_oracle(tmp_path, data):
    # value cells of either sign, zeros and subnormals, not only dB levels
    nB, nf = data.draw(_SHAPES)
    B, f = _floats(data.draw, nB), _floats(data.draw, nf)
    _same_as_fstring(tmp_path, B, f, _floats(data.draw, (nB, nf)))


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_blocks_that_split_rows_match_fstring_oracle(tmp_path, monkeypatch, block):
    # blocks of whole rows, of one row, and of parts of a row
    monkeypatch.setattr(_gridcsv, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    shape = (5, 13)
    cells = rng.choice(np.r_[_SPECIAL, rng.normal(0.0, 1e3, 40)], (2,) + shape)
    dmap = DensityMap(rng.normal(size=5), rng.normal(size=13), np.abs(cells[0]))
    dmap.write_csv(tmp_path / "new.csv")
    oracles.write_map_csv_fstring(tmp_path / "old.csv", dmap)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    _same_as_fstring(tmp_path, dmap.B_axis, dmap.f_axis, cells[1])


def _block_paths(monkeypatch):
    """The way each block the writer assembles goes: "fixed" (exact-width
    copies, the rows as an array) or "masked" (padded copies, NULs dropped)."""
    paths = []
    rows_of = _gridcsv._rows

    def recording(*args):
        rows = rows_of(*args)
        paths.append("fixed" if rows.ndim == 3 else "masked")
        return rows

    monkeypatch.setattr(_gridcsv, "_rows", recording)
    return paths


# a positive dB near a rounding tie, which CPython's formatter writes
_TIE_DB = 1.2345678905


def _block_kinds_map():
    """B, f and dB of six 8 x 8 groups of rows, one kind of block each.

    All negative; all positive with one cell near a tie; both signs; one
    three-digit exponent among two-digit ones; three-digit exponents
    throughout; and one negative B row among positive ones.
    """
    rng = np.random.default_rng(16)
    group = (8, 8)
    negative = -rng.uniform(1.0, 99.0, group)
    positive = rng.uniform(1.0, 99.0, group)
    positive[3, 5] = _TIE_DB
    mixed = negative * np.where(rng.random(group) < 0.5, -1.0, 1.0)
    wide = negative.copy()
    wide[2, 6] = -1e-300
    db = np.concatenate([negative, positive, mixed, wide, negative * 1e-200, negative])
    B = np.linspace(0.1, 0.9, db.shape[0])
    B[-3] = -0.5
    return B, np.linspace(18.9e9, 22.9e9, group[1]), db


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_kinds_match_fstring_oracle(tmp_path, monkeypatch, block):
    # both ways of assembling a block, on blocks of one cell, of parts of a
    # row, and of eight whole rows
    tie = np.array([_TIE_DB])
    assert _gridcsv._sci9(tie, np.empty((1, 3), dtype=_gridcsv._WORD)) == 1
    monkeypatch.setattr(_gridcsv, "_BLOCK_CELLS", block)
    B, f, db = _block_kinds_map()
    paths = _block_paths(monkeypatch)
    _same_as_fstring(tmp_path, B, f, db)
    if block == 64:
        assert paths == ["fixed", "fixed", "masked", "masked", "fixed", "masked"]
    elif block == 1:
        assert set(paths) == {"fixed"}
    else:
        assert "fixed" in paths and "masked" in paths


def test_positive_block_with_a_tie_band_cell_takes_exact_copies(tmp_path, monkeypatch):
    # CPython's formatter puts an unsigned text at byte 1 of its slot, as
    # the array path does, so the block keeps one layout
    monkeypatch.setattr(_gridcsv, "_BLOCK_CELLS", 64)
    B, f, db = _block_kinds_map()
    cells = np.empty((64, 3), dtype=_gridcsv._WORD)
    assert _gridcsv._sci9(db[8:16].ravel(), cells) == 1
    assert _gridcsv._value_span(cells) == (1, 17)
    paths = _block_paths(monkeypatch)
    _write_cells(tmp_path / "map.csv", B[8:16], f, db[8:16])
    assert paths == ["fixed"]


def test_fixture_maps_take_the_fixed_layout_path(tmp_path, monkeypatch, capsys):
    paths = _block_paths(monkeypatch)
    runs = [
        ["spectrum", FIXTURES / "bright_crossing.ini", "-o", tmp_path / "bright"],
        ["spectrum", FIXTURES / "dark_doublet.ini", "-o", tmp_path / "dark"],
        ["predict", FIXTURES / "optimized_prediction.ini", "--map", tmp_path / "pred"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    # 200 x 400 cells in blocks of 40 rows, 220 x 1500 in blocks of 10, and
    # the prediction's map; no block is assembled by NUL compaction
    assert len(paths) > 5 + 22 and set(paths) == {"fixed"}


def test_fixture_maps_match_fstring_oracle(tmp_path, monkeypatch, capsys):
    runs = [
        ["spectrum", FIXTURES / "bright_crossing.ini", "-o"],
        ["spectrum", FIXTURES / "dark_doublet.ini", "-o"],
        ["predict", FIXTURES / "optimized_prediction.ini", "--map"],
    ]

    def write_all(tag):
        for k, argv in enumerate(runs):
            assert main([str(a) for a in argv] + [str(tmp_path / f"{tag}{k}")]) == 0

    write_all("new")
    monkeypatch.setattr(DensityMap, "write_csv", lambda self, path:
                        oracles.write_map_csv_fstring(path, self))
    write_all("old")
    capsys.readouterr()
    for k in range(len(runs)):
        new = (tmp_path / f"new{k}.csv").read_bytes()
        assert new == (tmp_path / f"old{k}.csv").read_bytes(), runs[k]


def _ulps(x, k):
    """x moved by k units in the last place (k < 0: towards -inf)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _near_ties(draw):
    """Doubles within 4 ulp of a 10-digit rounding tie or of a power of ten.

    Ties (n + 1/2) 10^(e-9) and powers 10^e are taken, correctly rounded,
    over every decade e that the writer formats by array arithmetic; these
    are the values on which the scaled q can round across a tie or a
    decade, so they exercise the writer's fallback band.
    """
    e = draw(st.integers(_gridcsv._E_MIN, _gridcsv._E_MAX))
    if draw(st.booleans()):
        n = draw(st.integers(10**9, 10**10 - 1))
        exact = Fraction(2 * n + 1, 2) * Fraction(10) ** (e - 9)
    else:
        exact = Fraction(10) ** e
    x = _ulps(float(exact), draw(st.integers(-4, 4)))
    return x if draw(st.booleans()) else -x


@given(data=st.data())
@_BYTES_SETTINGS
def test_tie_band_cells_match_percent_formatter(tmp_path, data):
    nB, nf = data.draw(_SHAPES)
    # axes and dB cells alike within a few ulp of a tie or a power of ten
    B, f = (data.draw(arrays(np.float64, n, elements=_near_ties())) for n in (nB, nf))
    db = data.draw(arrays(np.float64, (nB, nf), elements=_near_ties()))
    _same_as_fstring(tmp_path, B, f, db)
    for row, cell in zip((tmp_path / "new.csv").read_text().splitlines()[1:], db.ravel()):
        assert row.split(",")[2] == "%.9e" % cell


def test_dark_fixture_map_rarely_falls_back(tmp_path, monkeypatch):
    # a writer that sent every cell to CPython's formatter would still be
    # byte-exact; this bounds how many cells leave the array path
    cfg = load_config(FIXTURES / "dark_doublet.ini")
    dmap = density_map(cfg.require("model"), cfg.require("b_axis"),
                       cfg.require("f_axis"), cfg.ports)
    counted = []
    sci9 = _gridcsv._sci9

    def counting(*args):
        counted.append(sci9(*args))
        return counted[-1]

    monkeypatch.setattr(_gridcsv, "_sci9", counting)
    dmap.write_csv(tmp_path / "dark.csv")
    assert dmap.values.size == 330000
    assert sum(counted) <= dmap.values.size // 1000


@st.composite
def _increasing(draw, n, start, step):
    first = draw(st.floats(*start))
    steps = draw(arrays(np.float64, n, elements=st.floats(*step)))
    return first + np.cumsum(steps)


@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_round_trip_at_written_precision(tmp_path, data):
    nB, nf = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    # steps wide enough that no two axis values share a 10-digit string
    B = data.draw(_increasing(nB, (-1.0, 1.0), (1e-4, 0.1)))
    f = data.draw(_increasing(nf, (1e9, 3e10), (1e3, 1e8)))
    amplitude = data.draw(arrays(np.float64, (nB, nf), elements=st.floats(1e-10, 1.0)))
    dmap = DensityMap(B, f, amplitude)
    path = tmp_path / "map.csv"
    dmap.write_csv(path)
    back = DensityMap.read_csv(path)

    def written(x):
        return np.array([float(f"{v:.9e}") for v in np.ravel(x)]).reshape(np.shape(x))

    assert back.B_axis.tobytes() == written(B).tobytes()
    assert back.f_axis.tobytes() == written(f).tobytes()
    db = written(dmap.to_db())
    # the written dB is within half a unit in its 10th digit of the map's
    np.testing.assert_allclose(db, dmap.to_db(), rtol=5e-10, atol=0.0)
    # and the reader returns exactly the amplitude of the written dB
    assert back.values.tobytes() == (10.0 ** (db / 20.0)).tobytes()


def _small_dmap():
    """A 20 x 60 bright-crossing map on which ``fit --kind two-mode`` exits 0."""
    return density_map(bright_crossing_model(), np.linspace(0.6, 0.89, 20),
                       np.linspace(18.9e9, 22.9e9, 60), PortCouplings())


@functools.cache
def _small_map():
    """The bytes of ``_small_dmap()`` as a map CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.csv"
        _small_dmap().write_csv(path)
        return path.read_bytes()


_MUTATIONS = ["replace", "delete", "insert", "truncate", "duplicate", "swap", "crlf", "header"]


@st.composite
def _mutated_map(draw, kinds=tuple(_MUTATIONS)):
    """The small map with one byte-level or row-level corruption."""
    data = _small_map()
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(data) - 1))
    row = draw(st.integers(1, len(lines) - 1))
    byte = bytes([draw(st.integers(0, 255) | st.sampled_from(b",.-+eE\n\r "))])
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
        other = draw(st.integers(1, len(lines) - 1))
        lines[row], lines[other] = lines[other], lines[row]
        return b"".join(lines)
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    return lines[0] + data


def test_small_map_fits(tmp_path, capsys):
    (tmp_path / "map.csv").write_bytes(_small_map())
    assert main(["fit", str(tmp_path / "map.csv"), "--kind", "two-mode"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("header, code", [
    (b"B_T,f_Hz,s21_dB\r\n", 0),
    (b"x_m,y_m,Hx\n", 4),
    (b"B_T,f_Hz,s21_dB \n", 4),
    (b"b_t,f_hz,s21_db\n", 4),
    (b"B_T,f_Hz,s21_dB\r", 4),
    (b"", 4),
])
def test_fit_requires_the_map_header(tmp_path, capsys, header, code):
    path = tmp_path / "map.csv"
    data = _small_map()
    path.write_bytes(header + data[data.index(b"\n") + 1:])
    assert main(["fit", str(path), "--kind", "two-mode"]) == code
    err = capsys.readouterr().err
    if code == 4:
        assert err.startswith(f"i/o error: {path}: first line ")


@given(content=_mutated_map())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_map_ends_in_an_exit_code(tmp_path, capsys, content):
    path = tmp_path / "map.csv"
    path.write_bytes(content)
    # a documented exit code, never a traceback: 0 ok, 1 not converged,
    # 3 unidentifiable, 4 bad map content
    assert main(["fit", str(path), "--kind", "two-mode"]) in (0, 1, 3, 4)
    capsys.readouterr()


def _same_as_oracle(path):
    """``DensityMap.read_csv`` returns the oracle's arrays, or both raise."""
    try:
        want = oracles.read_map_loadtxt(path)
    except MapFormatError:
        with pytest.raises(MapFormatError):
            DensityMap.read_csv(path)
        return None
    got = DensityMap.read_csv(path)
    for name in ("B_axis", "f_axis", "values"):
        new, old = getattr(got, name), getattr(want, name)
        assert new.shape == old.shape and new.tobytes() == old.tobytes(), name
    return got


# dB cells at the exponents where the exact scaling ends (10^-13 and 10^31
# are the last decades with |k| <= 22) and beyond them
_DB_EDGES = (1.5e-13, -1.5e-13, 9.5e-14, -9.5e-14, 2.5e31, -2.5e31, 1e32, -1e32, -200.0, 3.0)
_DB = st.one_of(st.sampled_from(_SPECIAL + _DB_EDGES), st.floats(-300.0, 300.0))
_AMPLITUDES = st.one_of(st.sampled_from((0.0, 5e-324, 1e-300, 1e-11, 1.0)), st.floats(0.0, 2.0))


@given(data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_csv_matches_loadtxt_oracle(tmp_path, data):
    nB, nf = data.draw(st.one_of(_SHAPES, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    if data.draw(st.booleans()):
        # a grid in the writer's order; B may change sign (and field width)
        B = data.draw(_increasing(nB, (-0.05, 1.0), (1e-4, 0.1)))
        f = data.draw(_increasing(nf, (1e9, 3e10), (1e3, 1e8)))
    else:
        # any axes: repeated, unordered, of mixed widths or exponents
        B, f = _floats(data.draw, nB), _floats(data.draw, nf)
    path = tmp_path / "map.csv"
    with pytest.MonkeyPatch.context() as mp:
        # blocks of one outer row, of a few rows, and the default
        block = data.draw(st.sampled_from([1, 200, _gridcsv._BLOCK_BYTES]))
        mp.setattr(_gridcsv, "_BLOCK_BYTES", block)
        if data.draw(st.booleans()):
            amplitude = data.draw(arrays(np.float64, (nB, nf), elements=_AMPLITUDES))
            DensityMap(B, f, amplitude).write_csv(path)
        else:
            _write_cells(path, B, f, data.draw(arrays(np.float64, (nB, nf), elements=_DB)))
        _same_as_oracle(path)


@pytest.mark.parametrize("kind", _MUTATIONS)
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_map_reads_as_the_oracle(tmp_path, kind, data):
    path = tmp_path / "map.csv"
    path.write_bytes(data.draw(_mutated_map(kinds=(kind,))))
    _same_as_oracle(path)


@pytest.mark.parametrize("order", ["descending B", "descending f", "shuffled"])
def test_reordered_rows_read_as_the_oracle(tmp_path, order):
    # a complete grid in another row order is still a valid map
    head, *rows = _small_map().splitlines(keepends=True)
    nf = 60
    blocks = [rows[i:i + nf] for i in range(0, len(rows), nf)]
    if order == "descending B":
        rows = [row for block in reversed(blocks) for row in block]
    elif order == "descending f":
        rows = [row for block in blocks for row in reversed(block)]
    else:
        random.Random(7).shuffle(rows)
    (tmp_path / "sorted.csv").write_bytes(_small_map())
    path = tmp_path / "map.csv"
    path.write_bytes(head + b"".join(rows))
    got = _same_as_oracle(path)
    want = DensityMap.read_csv(tmp_path / "sorted.csv")
    assert got.values.tobytes() == want.values.tobytes()


def test_fixture_maps_take_the_template_path(tmp_path, monkeypatch, capsys):
    for name in ("bright_crossing", "dark_doublet"):
        assert main(["spectrum", str(FIXTURES / f"{name}.ini"), "-o", str(tmp_path / name)]) == 0
    capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("the general parser read a map in the writer's layout")

    monkeypatch.setattr(np, "loadtxt", forbidden)
    assert DensityMap.read_csv(tmp_path / "bright_crossing.csv").values.shape == (200, 400)
    assert DensityMap.read_csv(tmp_path / "dark_doublet.csv").values.shape == (220, 1500)


def _read_grid(path):
    """``read_grid_csv`` on ``path``, past its header line."""
    with open(path, "rb") as fh:
        assert fh.readline() == b"B_T,f_Hz,s21_dB\n"
        return _gridcsv.read_grid_csv(fh)


def test_writer_layout_map_is_opened_once(tmp_path, monkeypatch):
    # the header is checked and the rows read through one open file
    path = tmp_path / "map.csv"
    path.write_bytes(_small_map())
    opened = []

    def counting(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the general parser read a map in the writer's layout")

    for module in (spectra, _gridcsv):
        monkeypatch.setattr(module, "open", counting, raising=False)
    monkeypatch.setattr(np, "loadtxt", forbidden)
    assert DensityMap.read_csv(path).values.shape == (20, 60)
    assert opened == [path]


def test_reader_memory_stays_at_one_block(tmp_path, capsys):
    # the reader's own allocations on the dark map (220 x 1500 cells): one
    # block's bytes (1.5 MiB) and two word columns, not (cells, digits)
    # matrices; the bound is the peak above the arrays it returns
    assert main(["spectrum", str(FIXTURES / "dark_doublet.ini"), "-o", str(tmp_path / "dark")]) == 0
    capsys.readouterr()
    path = tmp_path / "dark.csv"
    _read_grid(path)  # imports and caches warm
    tracemalloc.start()
    try:
        grid = _read_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid[2].shape == (220, 1500)
    assert peak - sum(a.nbytes for a in grid) < 2.5 * 2**20


@pytest.mark.parametrize("row", [1, 4])
def test_single_byte_edits_meet_the_word_checks(tmp_path, monkeypatch, row):
    # blocks of one B row: row 1 is in the first block, row 4 in the second
    monkeypatch.setattr(_gridcsv, "_BLOCK_BYTES", 1)
    path = tmp_path / "map.csv"
    amplitude = np.array([[0.0123, 0.0456, 0.0789], [0.0321, 0.0654, 0.0987]])
    DensityMap(np.array([0.45, 0.46]), np.array([1.3e10, 1.31e10, 1.32e10]),
               amplitude).write_csv(path)
    head, *rows = path.read_bytes().splitlines(keepends=True)
    text = rows[row]
    c1 = text.index(b",") + 1
    c2 = text.index(b",", c1) + 1
    assert text[c2:c2 + 1] == b"-" and text.endswith(b"e+01\n")
    # the value text with its sign byte, and the first and last byte of
    # each 8-byte window of the axis strings and the sign byte
    edited_bytes = set(range(c2, len(text)))
    for lo, hi in ((0, c1), (c1, c2 + 1)):
        for start in _gridcsv._windows(lo, hi):
            edited_bytes |= {start, start + 7}
    offset = len(head) + sum(map(len, rows[:row]))
    accepted = 0
    with open(path, "r+b", buffering=0) as fh:
        for i in sorted(edited_bytes):
            for byte in range(256):
                rows[row] = text[:i] + bytes([byte]) + text[i + 1:]
                fh.seek(offset + i)
                fh.write(bytes([byte]))
                got = _read_grid(path)
                # the template: a negative value with a two-digit exponent
                # whose scale 10^(e - 9) is exact, and the row's axis strings
                value = rows[row][c2:-1]
                keeps = rows[row] == text or (
                    i >= c2 and rows[row][-1:] == b"\n" and value[:1] == b"-"
                    and _gridcsv._FIELD.fullmatch(value) and -13 <= int(value[-3:]) <= 31)
                assert (got is not None) == bool(keeps), (i, byte)
                if got is not None:
                    want = np.array([float(r.split(b",")[2]) for r in rows])
                    assert got[2].tobytes() == want.tobytes(), (i, byte)
                    accepted += 1
            fh.seek(offset + i)
            fh.write(text[i:i + 1])
    # besides each unchanged byte: 9 other digits in each of the ten
    # mantissa digits, "-" for "+" in the exponent, e+11, e+21, e+31, and
    # e+00, e+02 ... e+09
    assert accepted == len(edited_bytes) + 10 * 9 + 1 + 3 + 9


@pytest.mark.parametrize("layout, fallbacks", [
    ("writer", 0), ("crlf", 1), ("mixed sign", 1), ("plus sign", 1)])
def test_other_layouts_fall_back_once(tmp_path, monkeypatch, layout, fallbacks):
    path = tmp_path / "map.csv"
    data = _small_map()
    if layout == "mixed sign":
        # dB of both signs: the value field's width changes from row to row
        _write_cells(path, np.arange(1.0, 7.0), np.arange(1.0, 8.0) * 1e9,
                     np.linspace(-3.0, 3.0, 42).reshape(6, 7))
    elif layout == "plus sign":
        # one negative dB after the template row written "+d.ddd...":
        # as wide, but positive
        lines = data.splitlines(keepends=True)
        lines[5] = lines[5].replace(b",-", b",+")
        path.write_bytes(b"".join(lines))
    else:
        path.write_bytes(data.replace(b"\n", b"\r\n") if layout == "crlf" else data)
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "loadtxt", counting)
        DensityMap.read_csv(path)
    assert len(calls) == fallbacks
    _same_as_oracle(path)


# ---------------------------------------------------------------------------
# How an output file is written over an existing one (``_gridcsv.open_output``)


def _one_cell_map(value=0.25):
    return DensityMap([0.7], [20.9e9], [[value]])


# a new file is made only where os.listxattr can show the old file's ACLs
_renews = pytest.mark.skipif(not hasattr(os, "listxattr"), reason="needs os.listxattr")


def _other_group():
    """A group other than the effective one that this user may give a file,
    or None."""
    egid = os.getegid()
    other = [g for g in os.getgroups() if g != egid]
    if other:
        return other[0]
    return egid + 1 if os.geteuid() == 0 else None


def _written_in_place(path):
    """Write ``_small_dmap()`` over ``path``; whether the old file took the
    bytes.  A reader keeps the old inode in use, so a new file cannot get
    its number."""
    with open(path, "rb") as reader:
        _small_dmap().write_csv(path)
        return os.fstat(reader.fileno()).st_ino == path.stat().st_ino


def _set_xattr(path):
    try:
        os.setxattr(path, "user.magcav-test", b"1", follow_symlinks=False)
    except (OSError, AttributeError) as exc:
        pytest.skip(f"no user extended attributes here: {exc}")


@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_rewrite_gives_exactly_the_new_bytes(tmp_path, old):
    fresh, path = tmp_path / "fresh.csv", tmp_path / "map.csv"
    big, small = _small_dmap(), _one_cell_map()
    new, other = (small, big) if old == "longer" else (big, small)
    new.write_csv(fresh)
    other.write_csv(path)
    new.write_csv(path)
    assert path.read_bytes() == fresh.read_bytes()


@_renews
@pytest.mark.parametrize("mode", [0o640, 0o666, 0o600], ids=oct)
def test_rewrite_is_a_new_file_with_the_old_mode(tmp_path, mode):
    path = tmp_path / "map.csv"
    _one_cell_map(0.5).write_csv(path)
    os.chmod(path, mode)
    old = path.read_bytes()
    umask = os.umask(0o077)  # a new file would get 0o600 without the chmod
    try:
        # a reader of the old file keeps it, so its inode stays in use
        with open(path, "rb") as reader:
            _small_dmap().write_csv(path)
            assert reader.read() == old
            assert os.fstat(reader.fileno()).st_ino != path.stat().st_ino
    finally:
        os.umask(umask)
    assert path.stat().st_mode & 0o7777 == mode
    assert path.read_bytes() == _small_map()


def test_symlinked_output_is_written_through(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    _one_cell_map().write_csv(target)
    link.symlink_to(target)
    _small_dmap().write_csv(link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _small_map()


def test_hard_linked_output_is_written_in_place(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    _one_cell_map().write_csv(first)
    os.link(first, second)
    inode = first.stat().st_ino
    _small_dmap().write_csv(first)
    assert first.stat().st_ino == second.stat().st_ino == inode
    assert first.read_bytes() == second.read_bytes() == _small_map()


def test_read_only_output_keeps_its_inode(tmp_path, capsys):
    prefix = tmp_path / "optimized_prediction"
    csv = tmp_path / "optimized_prediction.csv"
    csv.write_bytes(b"old\n")
    csv.chmod(0o444)
    with open(csv, "rb") as reader:  # so a new file cannot take its inode's number
        code = main(["predict", str(FIXTURES / "optimized_prediction.ini"), "--map", str(prefix)])
        assert os.fstat(reader.fileno()).st_ino == csv.stat().st_ino
    err = capsys.readouterr().err
    assert csv.stat().st_mode & 0o777 == 0o444
    if os.geteuid() != 0:
        # root may write a file whatever its mode; any other user gets exit 4
        assert code == 4 and len(err.splitlines()) == 1 and err.startswith("i/o error:")
        assert csv.read_bytes() == b"old\n"
    else:
        assert code == 0 and csv.read_bytes().startswith(b"B_T,f_Hz,s21_dB\n")


def test_output_of_another_group_is_written_in_place(tmp_path):
    # a new file would get the effective group, so the old one is kept
    group = _other_group()
    if group is None:
        pytest.skip("the user has no second group")
    path = tmp_path / "map.csv"
    _one_cell_map().write_csv(path)
    os.chown(path, -1, group)
    os.chmod(path, 0o640)
    assert _written_in_place(path)
    st = path.stat()
    assert (st.st_gid, st.st_mode & 0o7777) == (group, 0o640)
    assert path.read_bytes() == _small_map()


@_renews
def test_new_file_in_a_set_group_id_directory_keeps_the_old_group(tmp_path):
    # the directory would give a new file its own group; the old file's
    # group, the effective one, is given back
    group = _other_group()
    if group is None:
        pytest.skip("the user has no second group")
    shared = tmp_path / "shared"
    shared.mkdir()
    os.chown(shared, -1, group)
    shared.chmod(0o2775)
    path = shared / "map.csv"
    _one_cell_map().write_csv(path)
    os.chown(path, -1, os.getegid())
    path.chmod(0o640)
    assert not _written_in_place(path)
    st = path.stat()
    assert (st.st_gid, st.st_mode & 0o7777) == (os.getegid(), 0o640)
    assert path.read_bytes() == _small_map()


@pytest.mark.parametrize("where", ["file", "directory"])
def test_extended_attributes_keep_the_output_in_place(tmp_path, where):
    # an ACL is an extended attribute; a new file would lose the file's,
    # or take the directory's default
    path = tmp_path / "map.csv"
    _one_cell_map().write_csv(path)
    _set_xattr(path if where == "file" else tmp_path)
    assert _written_in_place(path)
    if where == "file":
        assert os.getxattr(path, "user.magcav-test") == b"1"
    assert path.read_bytes() == _small_map()


@pytest.mark.parametrize("failing_block", [2, 40])
def test_write_that_stops_halfway_leaves_a_short_file(tmp_path, monkeypatch, capsys,
                                                      failing_block):
    # Truncation gave this too; the test guards against an overwrite in
    # place without it, which over an old file of the new map's grid would
    # leave a complete map of new rows followed by old rows.
    # Blocks of two cells: block 2 stops the write in the first B row,
    # block 40 in the second (the first row is 30 blocks).
    path = tmp_path / "map.csv"
    old = _small_dmap()
    DensityMap(old.B_axis, old.f_axis, 0.5 * old.values).write_csv(path)
    monkeypatch.setattr(_gridcsv, "_BLOCK_CELLS", 2)
    calls = []
    sci9 = _gridcsv._sci9

    def stopping(x, words):
        calls.append(x.size)
        if len(calls) == failing_block:
            raise RuntimeError("write stopped")
        return sci9(x, words)

    monkeypatch.setattr(_gridcsv, "_sci9", stopping)
    with pytest.raises(RuntimeError, match="write stopped"):
        old.write_csv(path)
    written = path.read_bytes()
    # the rows before the failing block, and nothing of the old file
    assert written == _small_map()[:len(written)]
    assert written.count(b"\n") == 1 + 2 * (failing_block - 1)
    assert main(["fit", str(path), "--kind", "two-mode"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:")
