"""Numeric kernels against independent implementations.

The compiled transmission kernel is checked against its pure-numpy twin
(both exercised whichever one the environment selects), and the field
cells against the scalar per-cell oracle in ``oracles.py``.  Neither
comparison shares code with the implementation under test, so agreement
on random inputs is a real check, not a tautology.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from magcav import _kernels
from magcav._kernels import (
    HAVE_NUMBA,
    USE_NUMBA,
    field_cells,
    line_current_H,
    response_map,
    response_map_numpy,
)

from oracles import field_cells_scalar

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")

RNG = np.random.default_rng(20260817)


def _random_response_inputs(n_modes, nB=7, nf=53):
    freqs = RNG.uniform(1.0e9, 3.0e9, size=(nB, n_modes))
    half_widths = RNG.uniform(1e5, 5e7, size=n_modes)
    g = np.zeros((n_modes, n_modes))
    iu = np.triu_indices(n_modes, 1)
    g[iu] = RNG.uniform(0.0, 2e8, size=iu[0].size)
    g = g + g.T
    f_axis = np.linspace(0.5e9, 3.5e9, nf)
    return freqs, half_widths, 0.5 * g, 0, f_axis, 0.02


@needs_numba
@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_response_map_implementations_agree(n_modes):
    for _ in range(10):
        args = _random_response_inputs(n_modes)
        out_np = response_map_numpy(*args)
        out_nb = _kernels.response_map_numba(*args)
        np.testing.assert_allclose(out_nb, out_np, rtol=1e-10)


def test_response_map_singular_point_is_zero():
    # lossless single mode probed exactly on resonance: the response
    # matrix is singular and the point must come back 0, not inf
    freqs = np.array([[2.0e9]])
    args = (freqs, np.array([0.0]), np.zeros((1, 1)), 0, np.array([2.0e9]), 1.0)
    assert response_map_numpy(*args)[0, 0] == 0.0
    if HAVE_NUMBA:
        assert _kernels.response_map_numba(*args)[0, 0] == 0.0


SIGN_ROWS = [(1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)]


def _reference_cells(resolution):
    r_cav, r_post, a = 5e-3, 0.4e-3, 1.15e-3
    dx = 2.0 * r_cav / resolution
    centers = -r_cav + (np.arange(resolution) + 0.5) * dx
    posts = np.array([[-a, 0.0], [a, 0.0]])
    return centers, centers, posts, 1.0, r_post, r_cav


@pytest.mark.parametrize("resolution", [65, 129])
def test_field_cells_match_scalar_oracle(resolution):
    xc, yc, posts, current, r_post, r_cav = _reference_cells(resolution)
    cells = field_cells(xc, yc, posts, SIGN_ROWS, current, r_post, r_cav)
    assert len(cells) == len(SIGN_ROWS)
    for signs, (Hx, Hy, e, cov) in zip(SIGN_ROWS, cells):
        Hx_o, Hy_o, e_o, cov_o = field_cells_scalar(xc, yc, posts, signs, current, r_post, r_cav)
        # coverage counts subsamples, an integer ratio: must match exactly
        np.testing.assert_array_equal(cov, cov_o)
        np.testing.assert_allclose(Hx, Hx_o, rtol=1e-12, atol=1e-9 * np.abs(Hx_o).max())
        np.testing.assert_allclose(Hy, Hy_o, rtol=1e-12, atol=1e-9 * np.abs(Hy_o).max())
        # cut-cell energies differ only by summation order
        np.testing.assert_allclose(e, e_o, rtol=1e-11, atol=1e-12 * e_o.max())
        # sums start from +0, as in the oracle: no cell holds a -0.0
        for arr in (Hx, Hy, e, cov):
            assert not np.signbit(arr[arr == 0.0]).any()
    # coverage is a property of the geometry, shared by every row
    assert all(c[3] is cells[0][3] for c in cells)


def test_field_cells_rejects_bad_sign_rows():
    xc, yc, posts, current, r_post, r_cav = _reference_cells(65)
    for rows in ([(1.0,)], [(1.0, 0.5)], [(1.0, -1.0, 1.0)]):
        with pytest.raises(ValueError):
            field_cells(xc, yc, posts, rows, current, r_post, r_cav)


def test_dispatch_matches_selected_path():
    args = _random_response_inputs(2)
    expected = (
        _kernels.response_map_numba(*args) if USE_NUMBA else response_map_numpy(*args)
    )
    np.testing.assert_array_equal(response_map(*args), expected)


def _probe_flags(extra_env):
    code = "import magcav._kernels as k; print(int(k.USE_NUMBA), int(k.HAVE_NUMBA))"
    env = {k: v for k, v in os.environ.items() if k != "MAGCAV_DISABLE_NUMBA"}
    env.update(extra_env)
    # the child imports the same magcav as this process, also when only
    # pytest's own pythonpath setting put it on sys.path
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    use, have = (int(tok) for tok in out.stdout.split())
    return use, have


def test_env_flag_selects_numpy_path():
    use, _ = _probe_flags({"MAGCAV_DISABLE_NUMBA": "1"})
    assert use == 0
    use, have = _probe_flags({})
    assert use == have


def test_line_current_H_masks_post_interior():
    posts = np.array([[1e-3, 0.0]])
    H = line_current_H(np.array([[1.05e-3, 0.0], [3e-3, 0.0]]), posts, [1.0], r_post=2e-4)
    assert np.all(H[0] == 0.0)
    assert np.any(H[1] != 0.0)
