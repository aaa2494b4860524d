"""Lumped-element and field-map checks for the double-post cavity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcav import _kernels, cavity
from magcav.cavity import (
    CavityGeometry,
    GeometryError,
    ScanRow,
    field_map,
    filling_factor,
    geometric_factor,
    geometry_scan,
    mode_frequencies,
    post_capacitance,
    post_inductance,
    surface_resistance,
)
from magcav.core import CONSTANTS, DomainError, SphereSample
from magcav.presets import reference_cavity, reference_sphere

from oracles import field_cells_meshgrid

BARE = CavityGeometry(
    cavity_radius=5.0e-3,
    height=1.4e-3,
    post_radius=0.4e-3,
    gap=73.0e-6,
    post_spacing=2.3e-3,
)


def test_post_capacitance_frozen():
    # eps0 * pi * (0.4 mm)^2 / 73 um, evaluated once and pinned
    assert post_capacitance(BARE) == pytest.approx(6.096712632591072e-14, rel=1e-12)
    wide = CavityGeometry(5.0e-3, 1.4e-3, 0.4e-3, 146.0e-6, 2.3e-3)
    assert post_capacitance(wide) == pytest.approx(post_capacitance(BARE) / 2, rel=1e-12)
    filled = CavityGeometry(5.0e-3, 1.4e-3, 0.4e-3, 73.0e-6, 2.3e-3, eps_r_gap=9.8)
    assert post_capacitance(filled) == pytest.approx(9.8 * post_capacitance(BARE), rel=1e-12)


def test_post_inductance_frozen():
    # mu0 * h * ln(R/r_p) / (2 pi) with no correction factor
    assert post_inductance(BARE) == pytest.approx(7.072040207912962e-10, rel=1e-12)
    scaled = CavityGeometry(5.0e-3, 1.4e-3, 0.4e-3, 73.0e-6, 2.3e-3, L_correction=2.248)
    assert post_inductance(scaled) == pytest.approx(2.248 * post_inductance(BARE), rel=1e-12)


def test_mode_frequencies_calibrated():
    f_dark, f_bright = mode_frequencies(reference_cavity())
    assert f_dark == pytest.approx(13746453426.036211, rel=1e-12)
    assert f_bright == pytest.approx(20580654077.041004, rel=1e-12)
    # calibration targets the measured pair
    assert f_dark == pytest.approx(13.75e9, rel=1e-2)
    assert f_bright == pytest.approx(20.6e9, rel=1e-2)


def test_mode_frequencies_uncoupled_degenerate():
    f_dark, f_bright = mode_frequencies(BARE)
    assert f_dark == f_bright
    f0 = 1.0 / (2 * math.pi * math.sqrt(post_inductance(BARE) * post_capacitance(BARE)))
    assert f_dark == pytest.approx(f0, rel=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cavity_radius=-1.0),
        dict(height=0.0),
        dict(post_radius=0.0),
        dict(gap=0.0),
        dict(gap=2.0e-3),  # taller than the cavity
        dict(post_spacing=0.7e-3),  # posts touch
        dict(post_radius=6.0e-3),  # post wider than the cavity
        dict(post_spacing=9.4e-3),  # posts poke through the wall
        dict(eps_r_gap=0.5),
        dict(L_correction=0.0),
        dict(coupling_k=1.0),
        dict(coupling_k=-0.1),
    ],
)
def test_geometry_invariants(kwargs):
    base = dict(
        cavity_radius=5.0e-3,
        height=1.4e-3,
        post_radius=0.4e-3,
        gap=73.0e-6,
        post_spacing=2.3e-3,
    )
    base.update(kwargs)
    with pytest.raises(GeometryError):
        CavityGeometry(**base)


def test_field_map_layout():
    fmap = field_map(BARE, "bright", resolution=129)
    assert fmap.xs.shape == (129,)
    assert fmap.energy.shape == (129, 129)
    dx = fmap.xs[1] - fmap.xs[0]
    assert dx == pytest.approx(2 * BARE.cavity_radius / 129, rel=1e-14)
    assert np.all(fmap.coverage >= 0.0) and np.all(fmap.coverage <= 1.0)
    assert np.all(fmap.energy >= 0.0)
    # node well inside the cavity and away from the posts: fully covered
    i = int(np.argmin(np.abs(fmap.xs)))
    j = int(np.argmin(np.abs(fmap.ys - 2.0e-3)))
    assert fmap.coverage[i, j] == 1.0
    assert not fmap.excluded[i, j]
    # corner nodes lie outside the wall
    assert fmap.excluded[0, 0]
    assert fmap.coverage[0, 0] == 0.0


def test_field_map_validation():
    with pytest.raises(DomainError):
        field_map(BARE, "leaky", resolution=129)
    with pytest.raises(DomainError):
        field_map(BARE, "dark", resolution=32)


# 257.5 used to build a 258-node grid whose last node sits on the wall
@pytest.mark.parametrize("resolution", [63, 2050, 257.5, 257.0, np.float64(129), True, "129"])
def test_resolution_must_be_an_integer_in_range(resolution):
    with pytest.raises(DomainError, match="resolution must be an integer in"):
        field_map(BARE, "dark", resolution=resolution)
    with pytest.raises(DomainError, match="resolution must be an integer in"):
        geometry_scan(reference_cavity(), "gap", [73e-6], reference_sphere(),
                      resolution=resolution)


def test_resolution_takes_numpy_integers():
    fmap = field_map(BARE, "bright", resolution=np.int64(129))
    assert fmap.xs.shape == (129,)
    assert fmap.energy is field_map(BARE, "bright", resolution=129).energy


def _midpoint_and_max_abs_H(fmap):
    """|H| at the node nearest the inter-post midpoint, and its maximum in the domain."""
    H = np.hypot(*_kernels.line_fields(fmap.xs[:, None], fmap.ys[None, :],
                                       fmap.geometry.post_positions,
                                       cavity._MODE_SIGNS[fmap.mode]))
    i = int(np.argmin(np.abs(fmap.xs)))
    j = int(np.argmin(np.abs(fmap.ys)))
    return H[i, j], H[~fmap.excluded].max()


def test_dark_mode_midpoint_null():
    mid, top = _midpoint_and_max_abs_H(field_map(BARE, "dark", resolution=257))
    # parallel currents cancel exactly on the symmetry axis
    assert mid == 0.0
    assert mid <= 1e-6 * top


def test_bright_mode_midpoint_strong():
    mid, top = _midpoint_and_max_abs_H(field_map(BARE, "bright", resolution=257))
    assert mid >= 0.1 * top


def test_far_field_closed_forms():
    # on the perpendicular bisector the unit-current pair field is
    # s/(2 pi (y^2+a^2)) x-hat-free
    a = 0.5 * BARE.post_spacing
    posts = BARE.post_positions
    y = 10.0 * BARE.post_spacing
    x0, y0 = np.array([0.0]), np.array([y])
    Hx, Hy = _kernels.line_fields(x0, y0, posts, (1.0, -1.0))
    expect = BARE.post_spacing / (2 * math.pi * (y * y + a * a))
    assert Hx[0] == pytest.approx(0.0, abs=1e-18)
    assert Hy[0] == pytest.approx(expect, rel=1e-12)
    # and approaches the 2-D dipole asymptote s/(2 pi y^2)
    dipole = BARE.post_spacing / (2 * math.pi * y * y)
    assert Hy[0] == pytest.approx(dipole, rel=5e-3)
    # parallel currents cancel on the bisector's axis component instead
    Hx, Hy = _kernels.line_fields(x0, y0, posts, (1.0, 1.0))
    assert Hy[0] == 0.0 and Hx[0] == pytest.approx(-2 * y / (2 * math.pi * (y * y + a * a)))


def test_mode_energy_complementarity():
    # |H_dark|^2 + |H_bright|^2 = 2 (|H_left|^2 + |H_right|^2) cell by cell
    R = BARE.cavity_radius
    n = 129
    dx = 2 * R / n
    centers = -R + (np.arange(n) + 0.5) * dx
    posts = BARE.post_positions

    cells = _kernels.field_cells(
        centers, centers, posts, [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)],
        BARE.post_radius, R,
    )
    dark, bright, left, right = (c[0] for c in cells)

    lhs = dark + bright
    rhs = 2.0 * (left + right)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_filling_factor_reference_frozen():
    ref = reference_cavity()
    sph = reference_sphere()
    xi_d = filling_factor(field_map(ref, "dark"), sph)
    xi_b = filling_factor(field_map(ref, "bright"), sph)
    assert xi_b == pytest.approx(2.754669731288976e-2, rel=1e-9)
    assert xi_d == pytest.approx(6.845573657768668e-4, rel=1e-9)
    # coarse anchors from the measured device
    assert 3e-2 / 3 < xi_b < 3e-2 * 3
    assert 1e-2 / 3 < xi_d / xi_b < 1e-2 * 3


def test_filling_factor_grid_doubling():
    ref = reference_cavity()
    sph = reference_sphere()
    for mode in ("dark", "bright"):
        coarse = filling_factor(field_map(ref, mode, resolution=257), sph)
        fine = filling_factor(field_map(ref, mode, resolution=513), sph)
        assert fine == pytest.approx(coarse, rel=1e-2)


def test_filling_factor_off_center():
    ref = reference_cavity()
    sph = reference_sphere()
    fmap = field_map(ref, "bright", resolution=129)
    centered = filling_factor(fmap, sph)
    shifted = filling_factor(fmap, sph, sphere_center=(0.0, 3.0e-3))
    assert 0.0 < shifted < centered  # field fades away from the posts



def _xi_full_grid(fmap, sphere, center):
    """Filling factor with the chord weight evaluated on every map cell."""
    rho2 = (fmap.xs[:, None] - center[0]) ** 2 + (fmap.ys[None, :] - center[1]) ** 2
    chord = 2.0 * np.sqrt(np.maximum(sphere.radius ** 2 - rho2, 0.0))
    sphere_integral = float((fmap.energy * fmap.coverage * chord).sum() * fmap.cell_area)
    whole = float((fmap.energy * fmap.coverage).sum() * fmap.cell_area)
    return sphere_integral / (whole * fmap.geometry.height)


def test_filling_factor_allocates_one_grid():
    # the sphere integral's products, written into one zero grid on the
    # sphere's index box; the cavity integral's sum is the map's own
    ref = reference_cavity()
    fmap = field_map(ref, "bright", resolution=257)
    sph = reference_sphere()
    xi = filling_factor(fmap, sph)  # imports and caches warm
    tracemalloc.start()
    try:
        assert filling_factor(fmap, sph) == xi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one full grid and the box's few small arrays
    assert peak < fmap.energy.nbytes * 17 // 16


@pytest.mark.parametrize("resolution", [65, 257])
@pytest.mark.parametrize("center", [
    (0.0, 0.0), (0.0, 3.0e-3), (-2.05e-3, 1.3e-3),
    # a cell or less from the wall, on the axes and off them
    (4.59e-3, 0.0), (0.0, -4.599e-3), (-3.25e-3, -3.25e-3),
])
def test_filling_factor_sphere_box_matches_full_grid(resolution, center):
    sph = reference_sphere()
    for mode in ("dark", "bright"):
        fmap = field_map(reference_cavity(), mode, resolution=resolution)
        assert filling_factor(fmap, sph, center) == _xi_full_grid(fmap, sph, center)

def test_filling_factor_geometry_errors():
    ref = reference_cavity()
    fmap = field_map(ref, "bright", resolution=129)
    tall = SphereSample(1.5e-3, 0.255, 2.1e28, {})
    with pytest.raises(GeometryError):
        filling_factor(fmap, tall)
    sph = reference_sphere()
    with pytest.raises(GeometryError):
        filling_factor(fmap, sph, sphere_center=(4.8e-3, 0.0))  # pokes the wall
    with pytest.raises(GeometryError):
        filling_factor(fmap, sph, sphere_center=(1.15e-3, 0.0))  # sits on a post


def test_geometric_factor_frozen():
    ref = reference_cavity()
    G_d = geometric_factor(field_map(ref, "dark"))
    G_b = geometric_factor(field_map(ref, "bright"))
    assert G_d == pytest.approx(46.47352434652992, rel=1e-9)
    assert G_b == pytest.approx(54.61320685469967, rel=1e-9)
    assert 51.0 / 2 < G_d < 51.0 * 2
    assert 59.0 / 2 < G_b < 59.0 * 2


def test_geometric_factor_length_scaling():
    # a uniform scale-up by lam multiplies volume/surface by lam and the
    # lumped f0 by 1/lam (L and C each grow by lam), so G stays put
    lam = 2.0
    ref = reference_cavity()
    big = dataclasses.replace(ref, **{
        name: lam * getattr(ref, name)
        for name in ("cavity_radius", "height", "post_radius", "gap", "post_spacing")
    })
    for mode, f_ref, f_big in zip(("dark", "bright"), mode_frequencies(ref),
                                  mode_frequencies(big)):
        assert f_big == pytest.approx(f_ref / lam, rel=1e-12)
        G_1 = geometric_factor(field_map(ref, mode, resolution=129))
        G_2 = geometric_factor(field_map(big, mode, resolution=129))
        assert G_2 == pytest.approx(G_1, rel=1e-9)


def test_surface_resistance():
    assert surface_resistance(51.0, 520.0) == pytest.approx(98.1e-3, rel=1e-2)
    assert surface_resistance(54.6, 1e12) < 1e-10
    with pytest.raises(DomainError):
        surface_resistance(51.0, 0.0)
    with pytest.raises(DomainError, match="G must be > 0"):
        surface_resistance(-51.0, 520.0)
    # field-model value against the measured milliohms
    ref = reference_cavity()
    G_b = geometric_factor(field_map(ref, "bright"))
    assert surface_resistance(G_b, 714.0) == pytest.approx(76e-3, rel=0.35)


def test_geometry_scan_gap():
    ref = reference_cavity()
    sph = reference_sphere()
    gaps = np.linspace(10e-6, 150e-6, 6)
    rows = geometry_scan(ref, "gap", gaps, sph, resolution=129)
    assert [r.value for r in rows] == pytest.approx(list(gaps))
    assert all(r.error is None for r in rows)
    f_d = [r.f_dark for r in rows]
    f_b = [r.f_bright for r in rows]
    # narrower gap -> more capacitance -> lower frequency
    assert all(a < b for a, b in zip(f_d, f_d[1:]))
    assert all(a < b for a, b in zip(f_b, f_b[1:]))
    # the in-plane field never sees the gap
    for r in rows[1:]:
        assert abs(r.xi_bright - rows[0].xi_bright) <= 1e-12 * rows[0].xi_bright
        assert abs(r.xi_dark - rows[0].xi_dark) <= 1e-12 * rows[0].xi_dark


def test_geometry_scan_error_rows():
    ref = reference_cavity()
    sph = reference_sphere()
    rows = geometry_scan(ref, "spacing", [0.7e-3, 2.3e-3, 1.1e-3], sph, resolution=129)
    assert rows[0].error is not None and "post_spacing" in rows[0].error
    assert math.isnan(rows[0].f_dark)
    assert rows[1].error is None
    # posts close enough to pinch the sphere: reported, not raised
    assert rows[2].error is not None and "sphere" in rows[2].error
    with pytest.raises(DomainError):
        geometry_scan(ref, "tilt", [1.0], sph)


# ---------------------------------------------------------------------------
# The one-entry field-cell memo behind field_map

_MAP_ARRAYS = ("xs", "ys", "energy", "coverage", "excluded")

# (cavity_radius, post_radius, post_spacing): two share the wall and posts
_IN_PLANE = [(5.0e-3, 0.4e-3, 2.3e-3), (5.0e-3, 0.4e-3, 1.8e-3), (4.0e-3, 0.3e-3, 2.6e-3)]


def _fresh_field_map(geom, mode, resolution):
    cavity._last_cells = None
    return field_map(geom, mode, resolution=resolution)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("resolution", [64, 65, 129, 257])
def test_field_map_node_fields_match_meshgrid_oracle(resolution):
    # a map keeps the oracle's cells; the node fields it does not keep are
    # line_fields on its grid, which the oracle zeroes outside the domain
    ref = reference_cavity()
    signs = [(1.0, 1.0), (1.0, -1.0)]
    fmaps = [field_map(ref, mode, resolution=resolution) for mode in ("dark", "bright")]
    xs = fmaps[0].xs
    want = field_cells_meshgrid(xs, xs, ref.post_positions, signs, ref.post_radius,
                                ref.cavity_radius)
    for fmap, row, row_signs in zip(fmaps, want, signs):
        for name, arr in zip(("energy", "coverage", "excluded"), row[2:]):
            assert getattr(fmap, name).tobytes() == arr.tobytes()
        inside = ~fmap.excluded
        got = _kernels.line_fields(xs[:, None], xs[None, :], ref.post_positions, row_signs)
        for H, arr in zip(got, row[:2]):
            assert H[inside].tobytes() == arr[inside].tobytes()


def test_field_map_quadrature_memory_stays_at_its_scratch():
    # a fresh 257-cell pass keeps each mode's energy, one coverage and one
    # node mask; above those it allocates at most its scratch (one post's
    # field and each mode's Hx, Hy for one block of points), since the
    # node fields of the whole grid are never formed
    ref = reference_cavity()
    _fresh_field_map(ref, "dark", 257)  # imports and caches warm
    cavity._last_cells = None
    tracemalloc.start()
    try:
        field_map(ref, "dark", resolution=257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    centers, cells = cavity._last_cells[1]
    kept = {id(a): a for row in cells.values() for a in row[:3]}
    kept_bytes = centers.nbytes + sum(a.nbytes for a in kept.values())
    assert kept_bytes == 257 * 257 * (3 * 8 + 1) + 257 * 8
    scratch_bytes = (2 + 2 * len(cells)) * _kernels._BLOCK_POINTS * 8
    assert peak - kept_bytes <= scratch_bytes


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_field_map_memo_is_invisible(data):
    resolutions = data.draw(st.lists(st.integers(64, 160), min_size=1, max_size=2))
    call = st.tuples(
        st.sampled_from(_IN_PLANE),
        st.sampled_from([(1.4e-3, 73e-6), (2.0e-3, 30e-6)]),
        st.sampled_from(resolutions),
        st.sampled_from(["dark", "bright"]),
    )
    calls = data.draw(st.lists(call, min_size=2, max_size=8))
    want = {}
    for c in calls:
        (R, rp, a), (h, gap), res, mode = c
        fm = _fresh_field_map(CavityGeometry(R, h, rp, gap, a), mode, res)
        want[c] = [getattr(fm, name).tobytes() for name in _MAP_ARRAYS]
    cavity._last_cells = None
    for c in calls:
        (R, rp, a), (h, gap), res, mode = c
        geom = CavityGeometry(R, h, rp, gap, a)
        fm = field_map(geom, mode, resolution=res)
        # bytes compare signed zeros too
        assert [getattr(fm, name).tobytes() for name in _MAP_ARRAYS] == want[c]
        assert fm.geometry is geom and fm.mode == mode
        for name in _MAP_ARRAYS:
            with pytest.raises(ValueError):
                getattr(fm, name)[0] = 0


def _scan_row_by_row(base, parameter, values, sphere, resolution):
    field = {"spacing": "post_spacing", "height": "height", "gap": "gap"}[parameter]
    rows = []
    for v in values:
        try:
            geom = dataclasses.replace(base, **{field: float(v)})
            f_dark, f_bright = mode_frequencies(geom)
            xi = [filling_factor(_fresh_field_map(geom, mode, resolution), sphere)
                  for mode in ("dark", "bright")]
            rows.append(ScanRow(float(v), f_dark, f_bright, *xi))
        except DomainError as exc:
            rows.append(ScanRow(float(v), error=str(exc)))
    return rows


# ranges reach gap >= height, a sphere taller than the cavity or touching
# a post, and posts outside the wall
_SCAN_RANGES = {"gap": (5e-6, 2e-3), "height": (0.03e-3, 3e-3), "spacing": (0.5e-3, 9.8e-3)}


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_geometry_scan_matches_row_by_row(data):
    parameter = data.draw(st.sampled_from(sorted(_SCAN_RANGES)))
    lo, hi = _SCAN_RANGES[parameter]
    values = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=5))
    resolution = data.draw(st.integers(64, 100))
    ref, sph = reference_cavity(), reference_sphere()
    # leave the memo holding whatever a previous call left there
    if data.draw(st.booleans()):
        field_map(ref, "bright", resolution=resolution)
    got = geometry_scan(ref, parameter, values, sph, resolution=resolution)
    want = _scan_row_by_row(ref, parameter, values, sph, resolution)
    assert [repr(r) for r in got] == [repr(r) for r in want]


def test_scans_share_one_pass_per_in_plane_geometry(monkeypatch):
    passes = []
    kernel = _kernels.field_cells

    def counting(*args, **kwargs):
        passes.append(args[3])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_kernels, "field_cells", counting)
    ref, sph = reference_cavity(), reference_sphere()
    cavity._last_cells = None
    heights = [1.0e-3, 1.4e-3, 2.0e-3, 2.8e-3]
    rows = geometry_scan(ref, "height", heights, sph, resolution=65)
    # one pass computes both modes of the one in-plane geometry
    assert len(passes) == 1 and len(passes[0]) == 2
    # the maps are shared, but xi still follows each row's own height
    for a, b in zip(rows, rows[1:]):
        assert b.xi_dark < a.xi_dark and b.xi_bright < a.xi_bright
    geometry_scan(ref, "gap", np.linspace(10e-6, 150e-6, 6), sph, resolution=65)
    assert len(passes) == 1
    geometry_scan(ref, "spacing", [1.8e-3, 2.3e-3, 3.6e-3], sph, resolution=65)
    assert len(passes) == 4
