"""Grid CSV files: byte-for-byte against the per-cell writers, and round trips.

``oracles.write_map_csv_fstring`` and ``oracles.write_field_csv_fstring``
are the one-f-string-per-cell writers the file format was defined by;
the production writers must emit the same bytes for the same arrays.
"""

from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from magcav.cavity import FieldMap, field_map
from magcav.cli import main
from magcav.presets import reference_cavity
from magcav.spectra import DensityMap

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
def test_field_csv_matches_fstring_oracle(tmp_path, data):
    nx, ny = data.draw(_SHAPES)
    fmap = FieldMap(
        _floats(data.draw, nx), _floats(data.draw, ny),
        _floats(data.draw, (nx, ny)), _floats(data.draw, (nx, ny)),
        energy=None, coverage=None, excluded=data.draw(arrays(np.bool_, (nx, ny))),
        mode="dark", current=1.0, geometry=None,
    )
    fmap.to_csv(tmp_path / "new.csv")
    oracles.write_field_csv_fstring(tmp_path / "old.csv", fmap)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_cavity_field_map_matches_fstring_oracle(tmp_path):
    fmap = field_map(reference_cavity(), "bright", resolution=65)
    fmap.to_csv(tmp_path / "new.csv")
    oracles.write_field_csv_fstring(tmp_path / "old.csv", fmap)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
