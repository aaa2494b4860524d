"""Transmission response, map serialization, and noise contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from magcav import spectra

from magcav.core import DomainError, HybridModel, ModeKind, OscillatorMode
from magcav.modes import rwa_two_mode
from magcav.presets import bright_crossing_model, dark_doublet_model
from magcav.spectra import (
    DensityMap,
    MapFormatError,
    PortCouplings,
    SingularResponseError,
    add_noise,
    density_map,
    lorentzian,
    s21,
)
from oracles import db_full, s21_star_formula, write_pgm_full

PORTS = PortCouplings()


def bare_cavity(fc=20.9e9, kappa=27e6):
    return HybridModel.two_mode(fc, kappa, 1.1e6, 0.0, magnon_offset=1.0e9)


def test_port_couplings_validation():
    with pytest.raises(DomainError):
        PortCouplings(-0.01, 0.01)
    with pytest.raises(DomainError):
        PortCouplings(0.5, 0.5)
    k1, k2 = PortCouplings(0.01, 0.03).external_rates(27e6)
    k0 = 27e6 / 1.04
    assert k1 == pytest.approx(0.01 * k0, rel=1e-14)
    assert k2 == pytest.approx(0.03 * k0, rel=1e-14)


def test_bare_cavity_peak_height():
    beta = 0.01
    model = bare_cavity()
    peak = abs(s21(20.9e9, model, PortCouplings(beta, beta)))
    assert peak == pytest.approx(2 * beta / (1 + 2 * beta), rel=1e-12)
    assert peak == pytest.approx(2 * beta, rel=2e-2)


def test_s21_matches_star_formula():
    # matrix response must reduce to the explicit star-topology sum
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(50):
        fc = rng.uniform(5e9, 25e9)
        kappa = rng.uniform(1e6, 80e6)
        n_mag = rng.integers(1, 4)
        mags = []
        modes = [OscillatorMode(fc, kappa, ModeKind.CAVITY_BRIGHT)]
        n = n_mag + 1
        g = np.zeros((n, n))
        for j in range(n_mag):
            fm = fc + rng.uniform(-3e9, 3e9)
            gamma = rng.uniform(5e5, 5e6)
            gj = rng.uniform(0.0, 2e9)
            mags.append((fm, gamma, gj))
            modes.append(OscillatorMode(fm, gamma, ModeKind.MAGNON))
            g[0, j + 1] = g[j + 1, 0] = gj
        model = HybridModel(tuple(modes), g, np.zeros(n))
        f = rng.uniform(fc - 4e9, fc + 4e9, size=16)
        k1, k2 = PORTS.external_rates(kappa)
        got = s21(f, model, PORTS)
        want = s21_star_formula(f, fc, kappa, k1, k2, mags)
        np.testing.assert_allclose(got, want, rtol=1e-11)


def test_resonant_hybridization_suppression():
    # magnon parked exactly on the cavity line splits it by g/pi
    model = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 2.05e9, magnon_offset=20.9e9)
    bare_peak = abs(s21(20.9e9, bare_cavity(), PORTS))
    center = abs(s21(20.9e9, model, PORTS))
    assert center <= 1e-2 * bare_peak  # >= 40 dB down
    for sign in (-1.0, 1.0):
        f_grid = 20.9e9 + sign * 1.025e9 + np.linspace(-40e6, 40e6, 4001)
        resp = np.abs(s21(f_grid, model, PORTS))
        f_peak = f_grid[int(np.argmax(resp))]
        assert f_peak == pytest.approx(20.9e9 + sign * 1.025e9, abs=5e6)


def test_s21_vanishes_far_away():
    model = bare_cavity()
    assert abs(s21(1e9, model, PORTS)) < 1e-4
    assert abs(s21(200e9, model, PORTS)) < 1e-4


def test_s21_reciprocity():
    model = bright_crossing_model()
    f = np.linspace(18e9, 23e9, 64)
    fwd = s21(f, model, PortCouplings(0.002, 0.015), B=0.7)
    rev = s21(f, model, PortCouplings(0.015, 0.002), B=0.7)
    np.testing.assert_array_equal(fwd, rev)


def test_s21_singular_without_damping():
    modes = (
        OscillatorMode(20.9e9, 0.0, ModeKind.CAVITY_BRIGHT),
        OscillatorMode(20.9e9, 1e6, ModeKind.MAGNON),
    )
    model = HybridModel(modes, np.array([[0.0, 1e9], [1e9, 0.0]]), np.zeros(2))
    with pytest.raises(SingularResponseError):
        s21(20.9e9, model, PORTS)


FC = st.floats(5e9, 25e9)
KAPPA = st.floats(1e6, 8e7)
BETA = st.floats(0.0, 0.49)


def _passive_and_reciprocal(model, f, b1, b2):
    fwd = s21(f, model, PortCouplings(b1, b2))
    rev = s21(f, model, PortCouplings(b2, b1))
    assert np.all(np.isfinite(fwd))
    assert np.all(np.abs(fwd) <= 1.0)
    np.testing.assert_array_equal(fwd, rev)
    return fwd


@given(FC, KAPPA, st.floats(1e5, 8e7), BETA, BETA)
@settings(max_examples=200, deadline=None)
def test_passive_and_reciprocal_at_exceptional_point(fc, kappa, gamma, b1, b2):
    # magnon on the cavity line with g/pi = |kappa - gamma|/2: the two
    # eigenmodes coalesce and Gamma/2 + iM is defective
    g = 0.5 * abs(kappa - gamma)
    model = HybridModel.two_mode(fc, kappa, gamma, g, magnon_offset=fc)
    f = fc + np.linspace(-3.0, 3.0, 61) * kappa
    got = _passive_and_reciprocal(model, f, b1, b2)
    k1, k2 = PortCouplings(b1, b2).external_rates(kappa)
    want = s21_star_formula(f, fc, kappa, k1, k2, [(fc, gamma, g)])
    np.testing.assert_allclose(got, want, rtol=1e-12)


@given(FC, KAPPA, st.floats(1e6, 5e9), BETA, BETA)
@settings(max_examples=200, deadline=None)
def test_passive_and_reciprocal_with_lossless_magnon(fc, kappa, g, b1, b2):
    model = HybridModel.two_mode(fc, kappa, 0.0, g, magnon_offset=fc)
    f = fc + np.linspace(-3.0, 3.0, 61) * max(kappa, g)
    got = _passive_and_reciprocal(model, f, b1, b2)
    # a lossless magnon exactly on resonance pins the cavity: no transmission
    assert got[30] == 0.0
    k1, k2 = PortCouplings(b1, b2).external_rates(kappa)
    off = f != fc
    want = s21_star_formula(f[off], fc, kappa, k1, k2, [(fc, 0.0, g)])
    np.testing.assert_allclose(got[off], want, rtol=1e-12)


def test_passivity_random_instances():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(100):
        fc = rng.uniform(5e9, 25e9)
        model = HybridModel.two_mode(
            fc,
            rng.uniform(1e5, 1e8),
            rng.uniform(1e5, 1e7),
            rng.uniform(0.0, 5e9),
            magnon_offset=fc + rng.uniform(-5e9, 5e9),
        )
        b1, b2 = rng.uniform(0.0, 0.49, size=2)
        f = np.linspace(fc - 6e9, fc + 6e9, 256)
        assert np.all(np.abs(s21(f, model, PortCouplings(b1, b2))) <= 1.0 + 1e-12)


def test_peak_positions_match_eigenfrequencies():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(100):
        fc = rng.uniform(10e9, 22e9)
        kappa = rng.uniform(1e6, 2e7)
        gamma = rng.uniform(2e5, 2e6)
        g = rng.uniform(2e8, 2e9)  # splitting far above the linewidths
        fm = fc + rng.uniform(-0.4, 0.4) * g
        model = HybridModel.two_mode(fc, kappa, gamma, g, magnon_offset=fm)
        eig = rwa_two_mode(fc, fm, g)
        for f_eig in eig.frequencies:
            grid = f_eig + np.linspace(-kappa, kappa, 401)
            resp = np.abs(s21(grid, model, PORTS))
            assert grid[int(np.argmax(resp))] == pytest.approx(f_eig, abs=0.5 * kappa)


def test_linewidth_additivity_at_resonance():
    # decoupled magnon leaves a pure cavity Lorentzian of FWHM kappa in power
    kappa = 27e6
    model = HybridModel.two_mode(20.9e9, kappa, 1.1e6, 0.0, magnon_offset=20.9e9)
    peak = abs(s21(20.9e9, model, PORTS)) ** 2
    for sign in (-1, 1):
        half = abs(s21(20.9e9 + sign * kappa / 2, model, PORTS)) ** 2
        assert half == pytest.approx(peak / 2, rel=1e-12)


def test_lorentzian_values():
    assert lorentzian(5e9, 2.0, 5e9, 1e6) == pytest.approx(2.0, rel=1e-15)
    assert lorentzian(5e9 + 0.5e6, 2.0, 5e9, 1e6) == pytest.approx(1.0, rel=1e-15)
    assert lorentzian(20.9e9 + 13.5e6, 1.0, 20.9e9, 27e6, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert lorentzian(20.9e9 - 13.5e6, 1.0, 20.9e9, 27e6, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert lorentzian(0.0, 2.0, 5e9, 1e6, baseline=0.25) == pytest.approx(0.25, rel=1e-4)
    with pytest.raises(DomainError):
        lorentzian(5e9, 1.0, 5e9, 0.0)


def fig5_map(nB=40, nf=120):
    model = bright_crossing_model()
    B = np.linspace(0.60, 0.89, nB)
    f = np.linspace(18.9e9, 22.9e9, nf)
    return model, density_map(model, B, f, PORTS)


def test_density_map_matches_s21():
    model, dmap = fig5_map(nB=12, nf=64)
    for i, b in enumerate(dmap.B_axis):
        direct = np.abs(s21(dmap.f_axis, model, PORTS, B=b))
        np.testing.assert_allclose(dmap.values[i], direct, rtol=1e-9, atol=1e-15)


def test_density_map_ridges_follow_branches():
    model, dmap = fig5_map(nB=24, nf=4000)
    df = dmap.f_axis[1] - dmap.f_axis[0]
    kappa = model.modes[0].linewidth
    for i, b in enumerate(dmap.B_axis):
        eig = rwa_two_mode(*model.frequencies_at(b), model.couplings[0, 1])
        col = dmap.values[i]
        for f_eig, w in zip(eig.frequencies, eig.weights):
            if w[0] < 0.05:  # nearly pure magnon: ridge too faint to resolve
                continue
            if f_eig - 5 * kappa < dmap.f_axis[0] or f_eig + 5 * kappa > dmap.f_axis[-1]:
                continue  # branch (or its search window) leaves the map
            lo = np.searchsorted(dmap.f_axis, f_eig - 5 * kappa)
            hi = np.searchsorted(dmap.f_axis, f_eig + 5 * kappa)
            f_peak = dmap.f_axis[lo + int(np.argmax(col[lo:hi]))]
            assert abs(f_peak - f_eig) <= df + kappa / 2


def test_density_map_zero_coupling_straight_ridges():
    model = bright_crossing_model(g_over_pi=0.0)
    B = np.linspace(0.60, 0.89, 16)
    f = np.linspace(18.9e9, 22.9e9, 1200)
    dmap = density_map(model, B, f, PORTS)
    cav_idx = [int(np.argmax(dmap.values[i])) for i in range(B.size)]
    assert len(set(cav_idx)) == 1  # horizontal cavity line
    assert dmap.f_axis[cav_idx[0]] == pytest.approx(20.9e9, abs=f[1] - f[0])


def test_density_map_spectator_ridge():
    model = dark_doublet_model()
    B0 = 0.471
    f = np.linspace(13.80e9, 14.00e9, 3000)
    dmap = density_map(model, np.array([B0]), f, PORTS)
    fm = model.frequencies_at(B0)[1]
    sel = np.abs(f - fm) < 4e6
    col = dmap.values[0]
    # a narrow spike at the bare magnon line pokes out of the suppression
    # valley between the doublet peaks
    spike = col[sel].max()
    valley_edge = max(col[sel][0], col[sel][-1])
    assert spike > 5 * valley_edge
    assert f[sel][int(np.argmax(col[sel]))] == pytest.approx(fm, abs=1e6)


def test_density_map_validation():
    model = bright_crossing_model()
    with pytest.raises(DomainError):
        density_map(model, np.array([0.7, 0.6]), np.array([19e9, 20e9]), PORTS)
    with pytest.raises(DomainError):
        density_map(model, np.array([]), np.array([19e9, 20e9]), PORTS)
    with pytest.raises(DomainError):
        DensityMap(np.array([0.7]), np.array([19e9]), np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        DensityMap(np.array([0.7]), np.array([19e9]), np.array([[-0.1]]))


def test_db_nonpositive_for_passive_maps():
    _, dmap = fig5_map(nB=8, nf=32)
    assert np.all(dmap.to_db() <= 0.0)
    assert np.all(np.isfinite(dmap.to_db()))
    assert dmap.to_db().tobytes() == db_full(dmap.values).tobytes()


def test_add_noise_contracts():
    _, dmap = fig5_map(nB=8, nf=32)
    clean = add_noise(dmap, seed=42, sigma=0.0)
    np.testing.assert_array_equal(clean.values, dmap.values)
    a = add_noise(dmap, seed=42, sigma=1e-3)
    b = add_noise(dmap, seed=42, sigma=1e-3)
    np.testing.assert_array_equal(a.values, b.values)
    c = add_noise(dmap, seed=43, sigma=1e-3)
    assert np.any(c.values != a.values)
    assert np.all(a.values >= 0.0)
    # amplitude scale: on a flat map far from zero there is no folding
    flat = DensityMap(dmap.B_axis, dmap.f_axis, np.full_like(dmap.values, 0.5))
    resid = add_noise(flat, seed=7, sigma=1e-3).values - 0.5
    assert np.std(resid) == pytest.approx(1e-3, rel=0.2)
    assert np.mean(resid) == pytest.approx(0.0, abs=2e-4)
    with pytest.raises(DomainError):
        add_noise(dmap, seed=1, sigma=-1.0)


def test_csv_round_trip(tmp_path):
    _, dmap = fig5_map(nB=6, nf=24)
    path = tmp_path / "map.csv"
    dmap.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "B_T,f_Hz,s21_dB"
    assert len(lines) == 1 + 6 * 24
    back = DensityMap.read_csv(path)
    np.testing.assert_allclose(back.B_axis, dmap.B_axis, rtol=1e-9)
    np.testing.assert_allclose(back.f_axis, dmap.f_axis, rtol=1e-9)
    np.testing.assert_allclose(back.values, dmap.values, rtol=1e-7)


def test_read_csv_rejects_duplicated_and_missing_rows(tmp_path):
    _, dmap = fig5_map(nB=6, nf=24)
    path = tmp_path / "map.csv"
    dmap.write_csv(path)
    lines = path.read_text().splitlines()
    # one row twice and another gone: row count and both axes still match
    lines[5] = lines[4]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MapFormatError, match="complete"):
        DensityMap.read_csv(path)


def test_read_csv_one_cell_map(tmp_path):
    path = tmp_path / "one.csv"
    DensityMap([0.7], [20.9e9], [[0.25]]).write_csv(path)
    back = DensityMap.read_csv(path)
    assert back.values.shape == (1, 1)
    assert back.B_axis.tolist() == [0.7] and back.f_axis.tolist() == [20.9e9]
    assert back.values[0, 0] == pytest.approx(0.25, rel=1e-9)


def test_pgm_output(tmp_path):
    _, dmap = fig5_map(nB=6, nf=24)
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    dmap.write_pgm(p1)
    dmap.write_pgm(p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    header, rest = b1.split(b"255\n", 1)
    assert header.startswith(b"P5\n# dB clamps [-120, 0]\n")
    assert header.split(b"\n")[2] == b"6 24"
    assert len(rest) == 6 * 24


# amplitudes 10^-m, whose dB -20 m is exact, and 0, which the -200 dB
# floor maps to exactly -200 dB
_POWERS = tuple(10.0 ** -m for m in range(11)) + (0.0,)


@st.composite
def _pgm_cases(draw):
    """A map and the block height (in B rows) of the writer.

    Between the -120 and 0 dB clamps a cell 10^-m is gray 255 - 42.5 m,
    so one cell with m = 0 or 6 lies on a clamp, and one with m = 1, 3
    or 5 meets ``rint`` on a tie.
    """
    nB, nf = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    cells = st.one_of(st.sampled_from(_POWERS), st.floats(0.0, 2.0))
    values = draw(arrays(np.float64, (nB, nf), elements=cells))
    edge = draw(st.integers(0, nB * nf - 1))
    values.flat[edge] = _POWERS[draw(st.sampled_from([0, 1, 3, 5, 6]))]
    return values, draw(st.sampled_from([1, 3, 7]))


@given(case=_pgm_cases())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pgm_matches_full_array_oracle(tmp_path, case):
    values, rows = case
    nB, nf = values.shape
    dmap = DensityMap(np.arange(nB) * 0.01, 1e10 + np.arange(nf) * 1e6, values)
    # the case meets a clamp or a rounding tie, as the oracle computes it
    db = db_full(values)
    x = (np.clip(db, -120.0, 0.0) + 120.0) * (255.0 / 120.0)
    assert np.any((db == -120.0) | (db == 0.0) | (x - np.floor(x) == 0.5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_BLOCK_CELLS", rows * nf)
        dmap.write_pgm(tmp_path / "new.pgm")
    write_pgm_full(tmp_path / "old.pgm", dmap)
    assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "old.pgm").read_bytes()


def _traced_peak(write):
    """tracemalloc's peak over one call of ``write``, caches warm."""
    write()
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", ["write_csv", "write_pgm"])
def test_map_writers_keep_their_memory_at_one_block(tmp_path, writer):
    # maps of 220 and 880 B rows of 1500 f samples (the dark map's width):
    # the writer's own memory does not grow with the map, and stays below
    # one float grid; the PGM's one full-size array is its image, one byte
    # a cell in the file's layout, which is left out of the comparison
    rng = np.random.default_rng(23)
    own = []
    for nB in (220, 880):
        dmap = DensityMap(np.linspace(0.45, 0.49, nB), np.linspace(13.65e9, 14.15e9, 1500),
                          rng.random((nB, 1500)))
        peak = _traced_peak(lambda: getattr(dmap, writer)(tmp_path / "map"))
        own.append(peak - (dmap.values.size if writer == "write_pgm" else 0))
    assert peak < dmap.values.nbytes
    assert own[1] <= 1.1 * own[0]

