"""Numeric kernels against independent implementations.

The transmission kernel is checked against a per-cell dense LAPACK solve
(``oracles.s21_point_solve``) and the field cells against the scalar
per-cell quadrature in ``oracles.py``.  Neither oracle shares code with
the implementation under test, so agreement on random inputs is a real
check, not a tautology.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcav import _kernels, spectra
from magcav._kernels import field_cells, s21_rows
from magcav.config import load_config

from oracles import _in_cavity_domain, _line_currents_H, field_cells_scalar, s21_point_solve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

AMP = 0.02
HALF_WIDTH = st.floats(1e5, 5e7)
COUPLING = st.floats(1e5, 2e8)
F_AXIS = np.linspace(1.0e9, 3.0e9, 11)
# the oracle's LU leaves rounding-level residue (~1e-27 here) where the
# kernel's exact zero-pivot rule gives 0; with lossy modes wider than
# 1e5 Hz, |S21| stays above ~1e-14
ATOL = 1e-12 * AMP / 1e5

# Topology -> (fewest modes, parent of the k-th non-driven mode as a
# position in ``order``, whether the modes at positions 1 and 2 are also
# coupled, closing a loop)
TOPOLOGIES = {
    "star": (1, lambda k: 0, False),
    "chain": (1, lambda k: k - 1, False),
    "branched": (4, lambda k: min(k - 1, 1), False),
    "triangle": (3, lambda k: 0, True),
    # loop drive-1-2, with the rest as leaves on mode 1: two lossless
    # leaves on one grid frequency make A exactly singular
    "loop_leaves": (5, lambda k: 0 if k < 3 else 1, True),
}


@st.composite
def coupled_modes(draw):
    """(freqs, half_widths, half_couplings, drive) on three field rows.

    Leaves may be lossless, and any mode may sit exactly on a grid
    frequency, so lossless leaves and grandchildren meet exact resonance.
    """
    n = draw(st.integers(1, 5))
    topo = draw(st.sampled_from([t for t, (n_min, _, _) in TOPOLOGIES.items() if n >= n_min]))
    _, parent_of, loop = TOPOLOGIES[topo]
    drive = draw(st.integers(0, n - 1))
    order = [drive] + draw(st.permutations([j for j in range(n) if j != drive]))
    h = np.zeros((n, n))
    edges = [(order[k], order[parent_of(k)]) for k in range(1, n)]
    if loop:
        edges.append((order[1], order[2]))
    for a, b in edges:
        h[a, b] = h[b, a] = draw(COUPLING)
    leaf = np.count_nonzero(h, axis=1) <= 1
    leaf[drive] &= n == 1
    half_widths = np.array(
        [0.0 if leaf[j] and draw(st.booleans()) else draw(HALF_WIDTH) for j in range(n)]
    )
    freq = st.sampled_from(F_AXIS.tolist()) | st.floats(1.0e9, 3.0e9)
    freqs = np.array([[draw(freq) for _ in range(n)] for _ in range(3)])
    return freqs, half_widths, h, drive


@given(coupled_modes())
@settings(max_examples=300, deadline=None)
def test_s21_rows_matches_point_solve(case):
    freqs, half_widths, h, drive = case
    got = s21_rows(freqs, half_widths, h, drive, F_AXIS, AMP)
    want = s21_point_solve(freqs, half_widths, h, drive, F_AXIS, AMP)
    # exact zero pivots are resolved, never NaN
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=ATOL)


@pytest.mark.parametrize("fixture", ["bright_crossing.ini", "dark_doublet.ini"])
def test_s21_rows_matches_point_solve_on_fixture_grid(fixture):
    cfg = load_config(FIXTURES / fixture)
    model = cfg.require("model")
    # every 4th field row and 8th frequency keeps the per-cell loop short
    freqs = model.frequencies_at(cfg.require("b_axis")[::4])
    f_axis = cfg.require("f_axis")[::8]
    args = (freqs, 0.5 * model.linewidths, 0.5 * model.couplings, model.cavity_index,
            f_axis, cfg.ports.amplitude(model.modes[model.cavity_index].linewidth))
    np.testing.assert_allclose(s21_rows(*args), s21_point_solve(*args), rtol=1e-12)


def test_response_map_singular_point_is_zero():
    # lossless single mode probed exactly on resonance: the response
    # matrix is singular and the point must come back 0, not inf
    freqs = np.array([[2.0e9]])
    out = s21_rows(freqs, np.array([0.0]), np.zeros((1, 1)), 0, np.array([2.0e9]), 1.0)
    assert out[0, 0] == 0.0


def test_singular_cell_of_loop_graph_is_zero():
    # loop 0-1-2 plus two lossless leaves on mode 1, both on resonance: A
    # is exactly singular, with a null vector that misses the driven mode.
    # LU meets a rounding-sized pivot there; the rank test gives the
    # documented 0, as the dense solve does.
    f = 2.0e9
    freqs = np.array([[2.415e9, 1.0024e9, 2.0067e9, f, f]])
    half_widths = np.array([4.478e7, 4.362e7, 1.024e6, 0.0, 0.0])
    h = np.zeros((5, 5))
    for (a, b), g in zip([(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)],
                         [1.7594e8, 1.2936e7, 1.3587e8, 1.7403e8, 4.554e7]):
        h[a, b] = h[b, a] = g
    args = (freqs, half_widths, h, 0, np.array([f - 1e6, f, f + 1e6]), AMP)
    got = s21_rows(*args)
    assert got[0, 1] == 0.0
    assert np.all(got[0, [0, 2]] != 0.0)
    np.testing.assert_allclose(got, s21_point_solve(*args), rtol=1e-12, atol=ATOL)


def test_lossless_grandchild_on_resonance_decouples():
    # cavity - R - L chain with L lossless and on resonance: L pins R, so
    # the cavity sees its bare line 1/d_c, exactly as the dense solve does
    f = 2.0e9
    freqs = np.array([[2.1e9, 1.9e9, f]])
    half_widths = np.array([1.5e7, 6e5, 0.0])
    h = np.zeros((3, 3))
    h[0, 1] = h[1, 0] = 7e7
    h[1, 2] = h[2, 1] = 6e6
    args = (freqs, half_widths, h, 0, np.array([f - 1e6, f, f + 1e6]), AMP)
    got = s21_rows(*args)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, s21_point_solve(*args), rtol=1e-12)
    np.testing.assert_allclose(got[0, 1], AMP / (1.5e7 + 1j * (2.1e9 - f)), rtol=1e-15)


def test_s21_and_density_map_share_the_kernel(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return s21_rows(*args)

    monkeypatch.setattr(_kernels, "s21_rows", counting)
    model = load_config(FIXTURES / "bright_crossing.ini").require("model")
    f = np.linspace(19e9, 22e9, 2000)
    spectra.s21(f, model, spectra.PortCouplings(), B=0.7)
    assert calls == [(1, 2)]
    spectra.density_map(model, np.linspace(0.6, 0.9, 20), f, spectra.PortCouplings())
    # 16k-cell blocks of whole rows: 8 rows of 2000 cells per call
    assert calls[1:] == [(8, 2), (8, 2), (4, 2)]


SIGN_ROWS = [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)]


def _reference_cells(resolution):
    r_cav, r_post, a = 5e-3, 0.4e-3, 1.15e-3
    dx = 2.0 * r_cav / resolution
    centers = -r_cav + (np.arange(resolution) + 0.5) * dx
    posts = np.array([[-a, 0.0], [a, 0.0]])
    return centers, centers, posts, r_post, r_cav


@pytest.mark.parametrize("resolution", [65, 129])
def test_field_cells_match_scalar_oracle(resolution):
    xc, yc, posts, r_post, r_cav = _reference_cells(resolution)
    cells = field_cells(xc, yc, posts, SIGN_ROWS, r_post, r_cav)
    assert len(cells) == len(SIGN_ROWS)
    for signs, (Hx, Hy, e, cov, _) in zip(SIGN_ROWS, cells):
        Hx_o, Hy_o, e_o, cov_o = field_cells_scalar(xc, yc, posts, signs, 1.0, r_post, r_cav)
        # coverage counts subsamples, an integer ratio: must match exactly
        np.testing.assert_array_equal(cov, cov_o)
        np.testing.assert_allclose(Hx, Hx_o, rtol=1e-12, atol=1e-9 * np.abs(Hx_o).max())
        np.testing.assert_allclose(Hy, Hy_o, rtol=1e-12, atol=1e-9 * np.abs(Hy_o).max())
        # cut-cell energies differ only by summation order
        np.testing.assert_allclose(e, e_o, rtol=1e-11, atol=1e-12 * e_o.max())
        # sums start from +0, as in the oracle: no cell holds a -0.0
        for arr in (Hx, Hy, e, cov):
            assert not np.signbit(arr[arr == 0.0]).any()
    # coverage and the node mask are properties of the geometry, shared by
    # every row
    assert all(c[3] is cells[0][3] and c[4] is cells[0][4] for c in cells)
    excluded = [
        [not _in_cavity_domain(x, y, posts, r_post * r_post, r_cav * r_cav) for y in yc]
        for x in xc
    ]
    np.testing.assert_array_equal(cells[0][4], excluded)


def test_field_cells_without_cut_cells_match_scalar_oracle():
    # a 9x9 patch of +-0.1 mm around the midpoint between the posts: every
    # cell lies wholly inside the domain, so none is cut
    _, _, posts, r_post, r_cav = _reference_cells(65)
    xc = yc = np.linspace(-1e-4, 1e-4, 9)
    cells = field_cells(xc, yc, posts, SIGN_ROWS, r_post, r_cav)
    for signs, (Hx, Hy, e, cov, excluded) in zip(SIGN_ROWS, cells):
        assert cov.min() == 1.0 and not excluded.any()
        oracle = field_cells_scalar(xc, yc, posts, signs, 1.0, r_post, r_cav)
        for arr, arr_o in zip((Hx, Hy, e, cov), oracle):
            np.testing.assert_array_equal(arr, arr_o)


def test_field_cells_rejects_bad_sign_rows():
    xc, yc, posts, r_post, r_cav = _reference_cells(65)
    for rows in ([(1.0,)], [(1.0, 0.5)], [(1.0, -1.0, 1.0)]):
        with pytest.raises(ValueError):
            field_cells(xc, yc, posts, rows, r_post, r_cav)


@given(
    half_spacing=st.floats(0.2e-3, 4e-3),
    radius=st.floats(0.05e-3, 5e-3),
    center=st.tuples(st.floats(-5e-3, 5e-3), st.floats(-5e-3, 5e-3)),
    signs=st.sampled_from([(1.0, 1.0), (1.0, -1.0), (-1.0, 0.0), (0.0, 1.0)]),
)
@settings(max_examples=60, deadline=None)
def test_signed_post_fields_match_scalar_oracle(half_spacing, radius, center, signs):
    # the evaluator of the wall and post circle integrals behind G
    posts = np.array([[-half_spacing, 0.0], [half_spacing, 0.0]])
    theta = (np.arange(64) + 0.5) * (2.0 * np.pi / 64)
    x = center[0] + radius * np.cos(theta)
    y = center[1] + radius * np.sin(theta)
    Hx, Hy = _kernels.signed_sum(signs, _kernels.post_fields(x, y, posts)[0])
    want = np.array([_line_currents_H(a, b, posts, signs, 1.0) for a, b in zip(x, y)])
    scale = np.abs(want).max()
    np.testing.assert_allclose(Hx, want[:, 0], rtol=1e-12, atol=1e-14 * scale)
    np.testing.assert_allclose(Hy, want[:, 1], rtol=1e-12, atol=1e-14 * scale)
