"""Coupled-mode eigensolvers against closed forms and the bisection oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcav.core import DomainError, HybridModel
from magcav.modes import (
    EigenResult,
    ModeCollapseError,
    bogoliubov_two_mode,
    dispersion_branches,
    eigenbranches,
    follow_branches,
    minimum_splitting,
    rwa_three_mode,
    rwa_two_mode,
)

import oracles
from magcav import modes


def test_rwa_two_mode_resonant():
    res = rwa_two_mode(20.9e9, 20.9e9, 2.05e9)
    assert np.allclose(res.frequencies, [19.875e9, 21.925e9], rtol=1e-12)
    # resonant splitting equals g/pi exactly and weights are half-half
    assert res.splitting == pytest.approx(2.05e9, rel=1e-12)
    assert np.allclose(res.weights, 0.25 + np.zeros((2, 2)) + 0.25, atol=1e-12)


def test_rwa_two_mode_zero_coupling():
    res = rwa_two_mode(5e9, 5e9, 0.0)
    assert np.array_equal(res.frequencies, [5e9, 5e9])
    # a tie keeps the bare order: the lower branch is the cavity
    assert np.array_equal(res.weights, np.eye(2))
    res = rwa_two_mode(7e9, 5e9, 0.0)
    assert np.array_equal(res.frequencies, [5e9, 7e9])
    assert np.array_equal(res.weights, [[0.0, 1.0], [1.0, 0.0]])


def test_rwa_two_mode_detuned_frozen():
    res = rwa_two_mode(13.9e9, 16.9e9, 0.286e9)
    assert np.allclose(
        res.frequencies, [13893199084.152122, 16906800915.847878], rtol=1e-12
    )
    lo, hi = oracles.eig2_bisect(13.9e9, 16.9e9, 0.143e9)
    assert abs(res.frequencies[0] - lo) < 1.0
    assert abs(res.frequencies[1] - hi) < 1.0


def test_rwa_two_mode_domain():
    with pytest.raises(DomainError):
        rwa_two_mode(-1.0, 5e9, 0.0)
    with pytest.raises(DomainError):
        rwa_two_mode(5e9, 5e9, -1.0)


def test_rwa_trace_conservation_sample():
    rng = np.random.default_rng(7)
    for _ in range(200):
        fc, fm = rng.uniform(1e9, 50e9, 2)
        g = rng.uniform(0.0, 5e9)
        res = rwa_two_mode(fc, fm, g)
        assert math.isclose(res.frequencies.sum(), fc + fm, rel_tol=1e-9)


def test_rwa_three_mode_degenerate_frozen():
    res = rwa_three_mode(13.9e9, 13.9e9, 13.9e9, 143e6, 12.5e6)
    s = math.hypot(71.5e6, 6.25e6)
    assert np.allclose(
        res.frequencies, [13.9e9 - s, 13.9e9, 13.9e9 + s], rtol=1e-12
    )
    # same closed form quoted to 0.1 MHz
    assert np.allclose(res.frequencies, [13.8282e9, 13.9e9, 13.9718e9], rtol=2e-5)
    # central branch: no weight on the bridging magnon, faint cavity weight
    assert res.weights[1, 1] == 0.0
    assert res.weights[1, 0] == pytest.approx((6.25e6 / s) ** 2, rel=1e-12)
    # interlacing: bare middle frequency between the outer eigenvalues
    assert res.frequencies[0] < 13.9e9 < res.frequencies[2]


def test_rwa_three_mode_uncoupled():
    res = rwa_three_mode(3e9, 2e9, 1e9, 0.0, 0.0)
    assert np.allclose(res.frequencies, [1e9, 2e9, 3e9], rtol=1e-15)


def test_rwa_three_mode_vs_oracle():
    res = rwa_three_mode(13.9e9, 13.9e9, 13.92e9, 143e6, 12.5e6)
    lo, mid, hi = oracles.eig3_bisect(13.9e9, 13.9e9, 13.92e9, 71.5e6, 6.25e6)
    assert abs(res.frequencies[0] - lo) < 1.0
    assert abs(res.frequencies[1] - mid) < 1.0
    assert abs(res.frequencies[2] - hi) < 1.0


def test_bisection_oracles_at_absolute_ghz():
    # clustered roots at 13 GHz, where the unshifted char polys lose the
    # splitting to cancellation (the chain's roots came out tens of Hz off)
    d, a, b = (1.3e10, 1.3002347e10, 1.3e10), 2.346825e6, 2.346875e6
    want = np.linalg.eigvalsh([[d[0], a, 0.0], [a, d[1], b], [0.0, b, d[2]]])
    got = oracles.eig3_bisect(*d, a, b)
    assert np.all(np.abs(np.array(got) - want) < 1.0)
    fc, fm, h = 1.4e10, 1.4e10 + 1e3, 5e2
    want = np.linalg.eigvalsh([[fc, h], [h, fm]])
    assert np.all(np.abs(np.array(oracles.eig2_bisect(fc, fm, h)) - want) < 1.0)


def test_bogoliubov_frozen_and_oracle():
    res = bogoliubov_two_mode(20.9e9, 20.9e9, 2.05e9)
    assert np.allclose(
        res.frequencies, [19848551584.4356, 21901027373.1622], rtol=1e-10
    )
    lo, hi = oracles.bogoliubov_eom(20.9e9, 20.9e9, 2.05e9)
    assert abs(res.frequencies[0] - lo) < 1.0
    assert abs(res.frequencies[1] - hi) < 1.0
    # downshifted asymmetry relative to the RWA pair (19.875, 21.925) GHz
    rwa = rwa_two_mode(20.9e9, 20.9e9, 2.05e9)
    assert res.frequencies[0] < rwa.frequencies[0]
    assert res.frequencies[1] < rwa.frequencies[1]
    up = res.frequencies[1] - 20.9e9
    down = 20.9e9 - res.frequencies[0]
    assert abs(up - down) > 0.01 * res.splitting


def test_bogoliubov_limits():
    res = bogoliubov_two_mode(5e9, 5e9, 0.0)
    assert np.array_equal(res.frequencies, [5e9, 5e9])
    with pytest.raises(ModeCollapseError):
        bogoliubov_two_mode(20.9e9, 20.9e9, 20.9e9)
    # RWA limit: tiny coupling, deviations below 1e-5 relative
    for fc, fm in [(5e9, 5e9), (10e9, 30e9)]:
        g = 1e-3 * math.sqrt(fc * fm)
        b = bogoliubov_two_mode(fc, fm, g).frequencies
        r = rwa_two_mode(fc, fm, g).frequencies
        assert np.all(np.abs(b - r) / r <= 1e-5)


def _fig5_model():
    return HybridModel.two_mode(
        f_cavity=20.9e9,
        cavity_fwhm=27e6,
        magnon_fwhm=1.1e6,
        g_over_pi=2.05e9,
        gyro=28.129e9,
    )


def test_dispersion_far_from_crossing():
    m = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 286e6, gyro=28.129e9)
    res = dispersion_branches(m, [0.05])[0]
    bare = sorted([20.9e9, 28.129e9 * 0.05])
    # far detuned: branches within one cavity linewidth of the bare lines
    assert abs(res.frequencies[0] - bare[0]) < 27e6
    assert abs(res.frequencies[1] - bare[1]) < 27e6


def test_dispersion_at_crossing():
    m = _fig5_model()
    B_star = 20.9e9 / 28.129e9
    res = dispersion_branches(m, [B_star])[0]
    assert res.splitting == pytest.approx(2.05e9, rel=1e-6)


def test_dispersion_spectator_branch():
    # L magnon decoupled: its line threads the crossing untouched
    m = HybridModel.chain(
        13.9e9, 33e6, 1.2e6, gc_over_pi=143e6, gRL_over_pi=0.0,
        gyro=28.129e9, offset_r=0.65e9, offset_l=0.65e9,
    )
    for B in np.linspace(0.46, 0.482, 21):
        fm = 0.65e9 + 28.129e9 * B
        res = dispersion_branches(m, [B])[0]
        assert np.min(np.abs(res.frequencies - fm)) < 1.0


def test_dispersion_errors_carry_field():
    m = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 2.05e9, magnon_offset=0.0)
    with pytest.raises(DomainError, match="B = 0"):
        dispersion_branches(m, [0.0, 0.1])
    # a magnon line tuning down reaches 0 Hz at 0.5 T: the first bad B of
    # the grid, not its first entry, is named
    down = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 2.05e9, gyro=-28e9, magnon_offset=14e9)
    with pytest.raises(DomainError, match=r"B = 0\.5 T"):
        dispersion_branches(down, [0.1, 0.3, 0.5, 0.7])
    with pytest.raises(DomainError):
        dispersion_branches(m, [])
    with pytest.raises(DomainError):
        dispersion_branches(m, [0.3, 0.2])


def test_follow_branches_through_crossing():
    # zero coupling: relabeled branches must be straight lines
    m = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 0.0, gyro=28.129e9)
    B = np.linspace(0.6, 0.9, 61)
    tracked = follow_branches(dispersion_branches(m, B))
    # branch 0 starts as the magnon (lowest at 0.6 T) and stays the magnon
    assert np.allclose(tracked[:, 0], 28.129e9 * B, rtol=1e-12)
    assert np.allclose(tracked[:, 1], 20.9e9, rtol=1e-12)


def test_minimum_splitting_two_mode():
    m = _fig5_model()
    res = minimum_splitting(m, (0.6, 0.9))
    assert res.unimodal
    assert res.B == pytest.approx(20.9e9 / 28.129e9, abs=1e-4)
    assert res.splitting == pytest.approx(2.05e9, rel=1e-9)


def test_minimum_splitting_refines_to_the_gap_resolution(monkeypatch):
    # the gap fixes B only to ~1e-8 T, so the golden section stops there
    # instead of chasing rounding noise down to 1e-12 T
    single_B = []
    evaluate = modes.eigenbranches

    def counting(m, weights=False):
        if m.ndim == 2:
            single_B.append(m)
        return evaluate(m, weights)

    monkeypatch.setattr(modes, "eigenbranches", counting)
    m = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 2.05e9, gyro=28.129e9, magnon_offset=0.3e9)
    res = minimum_splitting(m, (0.6, 0.9))
    # closed form: the bare lines cross where gyro * B + offset = f_cavity
    assert abs(res.B - (20.9e9 - 0.3e9) / 28.129e9) < 1e-7
    assert res.splitting == pytest.approx(2.05e9, rel=1e-12)
    # 2 + 24 golden-section steps and the final gap, not the ~47 of a
    # 1e-12 T stop
    assert len(single_B) <= 28


def test_minimum_splitting_zero_coupling():
    m = HybridModel.two_mode(20.9e9, 27e6, 1.1e6, 0.0, gyro=28.129e9)
    res = minimum_splitting(m, (0.6, 0.9))
    assert res.splitting < 1.0


def test_minimum_splitting_three_mode_vs_dense():
    m = HybridModel.chain(
        13.9e9, 33e6, 1.2e6, 143e6, 12.5e6,
        gyro=28.129e9, offset_r=0.65e9, offset_l=0.65e9,
    )
    res = minimum_splitting(m, (0.45, 0.49), branches=(1, 2))
    B = np.linspace(0.45, 0.49, 10_000)
    gaps = [
        r.frequencies[2] - r.frequencies[1] for r in dispersion_branches(m, B)
    ]
    assert res.splitting <= min(gaps) * 1.01


def test_eigenresult_validation():
    with pytest.raises(DomainError):
        EigenResult(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(DomainError):
        EigenResult(np.array([1.0, 2.0]), np.array([[0.5, 0.2], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# the eigen-branch evaluator against the bisection and equations-of-motion
# oracles

EPS = np.finfo(float).eps
FREQ = st.floats(1e9, 3e10)


def _stack2(a, b, h):
    """Stack of [[a, h], [h, b]], shape (k, 2, 2)."""
    return np.moveaxis(np.array([[a, h], [h, b]]), (0, 1), (-2, -1))


def _bisected(bisect, diag, *off):
    """Roots (k, n) by a char-poly ``bisect`` oracle, and their error bound.

    The oracle works in the frame shifted by the mean diagonal, which
    keeps the polynomial's coefficients small.  Evaluating a degree-n
    polynomial in floating point moves each root by a few eps * scale^n
    over |p'(root)|, with the scale taken in that frame, and a 1e-12
    relative floor covers the shifts.
    """
    roots = np.stack(bisect(*diag, *off), axis=-1)
    shift = np.mean(diag, axis=0)
    centred = roots - shift[:, None]
    n = roots.shape[-1]
    dp = np.ones_like(roots)
    for k in range(1, n):
        dp *= centred - np.roll(centred, k, axis=-1)
    scale = np.abs(centred).max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0: degenerate, uncoupled
        tol = 1e-12 * np.abs(shift)[:, None] + 32 * EPS * scale**n / np.abs(dp)
    return roots, tol


def _check_stack(m, vals, w):
    """Values-only and weighted calls agree, each matrix of a stack with
    any leading axes gives the same bits on its own, and the weight rows
    are unit-sum compositions that rebuild the diagonal,
    m[j, j] = sum_k vals[k] w[k, j]."""
    only = eigenbranches(m)
    assert only.shape == vals.shape
    for k in np.ndindex(m.shape[:-2]):
        v1, w1 = eigenbranches(m[k], weights=True)
        assert v1.tobytes() == vals[k].tobytes()
        assert w1.tobytes() == w[k].tobytes()
        assert eigenbranches(m[k]).tobytes() == only[k].tobytes()
    assert np.all(np.diff(vals, axis=-1) >= 0.0)
    assert np.all(w >= -1e-15)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    np.testing.assert_allclose(np.einsum("...k,...kj->...j", vals, w), diag, rtol=1e-12)


def _two_axes(m):
    """A stack (2, k, n, n) of m and m reversed, as the fits' stacked
    Jacobians make one, with its branches and weights."""
    m2 = np.stack([m, m[::-1]])
    return (m2, *eigenbranches(m2, weights=True))


@st.composite
def pair_stacks(draw):
    """(a, b, h) of 1-6 matrices, with ties a = b and uncoupled pairs h = 0."""
    k = draw(st.integers(1, 6))
    a = np.array([draw(FREQ) for _ in range(k)])
    b = np.array([draw(st.just(x) | FREQ) for x in a])
    h = np.array([draw(st.just(0.0) | st.floats(1e6, 5e9)) for _ in range(k)])
    return a, b, h


@given(pair_stacks())
@settings(max_examples=300, deadline=None)
def test_eigenbranches_pair_matches_bisection(case):
    a, b, h = case
    m = _stack2(a, b, h)
    vals, w = eigenbranches(m, weights=True)
    assert vals.shape == (a.size, 2) and w.shape == (a.size, 2, 2)
    _check_stack(m, vals, w)
    _check_stack(*_two_axes(m))
    free = h == 0.0
    # an uncoupled pair is exactly its sorted diagonal, with pure weights
    assert np.array_equal(vals[free], np.sort(np.stack([a, b], axis=-1)[free], axis=-1))
    assert np.all((w[free] == 0.0) | (w[free] == 1.0))
    want, tol = _bisected(oracles.eig2_bisect, (a, b), h)
    want = want[~free]
    assert np.all(np.abs(vals[~free] - want) <= tol[~free])
    # branch x has eigenvector (h, x - a), so its weight on a is
    # h^2 / (h^2 + (x - a)^2)
    cpl = h[~free, None]
    on_a = cpl**2 / (cpl**2 + (want - a[~free, None]) ** 2)
    np.testing.assert_allclose(w[~free][..., 0], on_a, rtol=0.0, atol=1e-6)


@st.composite
def chain_stacks(draw):
    """Cavity-R-L chains near 14 GHz, some of them exactly degenerate."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        f0 = draw(st.floats(1.3e10, 1.5e10))
        if draw(st.booleans()):
            fR = fL = f0
        else:
            fR, fL = (f0 + draw(st.floats(-5e8, 5e8)) for _ in range(2))
        rows.append((f0, fR, fL, draw(st.floats(1e6, 2e8)), draw(st.floats(1e6, 2e8))))
    return np.array(rows)


@given(chain_stacks())
@settings(max_examples=200, deadline=None)
def test_eigenbranches_chain_matches_bisection(rows):
    fc, fR, fL, a, b = rows.T
    zero = np.zeros_like(a)
    m = np.moveaxis(np.array([[fc, a, zero], [a, fR, b], [zero, b, fL]]), (0, 1), (-2, -1))
    vals, w = eigenbranches(m, weights=True)
    _check_stack(m, vals, w)
    _check_stack(*_two_axes(m))
    want, tol = _bisected(oracles.eig3_bisect, (fc, fR, fL), a, b)
    assert np.all(np.abs(vals - want) <= tol)
    # on the degenerate triple rwa_three_mode keeps its closed form; the
    # evaluator agrees with it
    for k in np.flatnonzero((fc == fR) & (fR == fL)):
        closed = rwa_three_mode(fc[k], fR[k], fL[k], 2 * a[k], 2 * b[k])
        np.testing.assert_allclose(vals[k], closed.frequencies, rtol=1e-12)


@given(
    FREQ,
    st.lists(FREQ, min_size=1, max_size=6),
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0 - 1e-6, 1.0 - 1e-9]),
)
@settings(max_examples=200, deadline=None)
def test_bogoliubov_stack_matches_equations_of_motion(fc, fm, frac):
    fm = np.array(fm)
    # from no coupling up to just below the collapse of the softest pair
    g = frac * np.sqrt(fc * fm).min()
    if g >= np.sqrt(fc * fm).min():
        return
    res = bogoliubov_two_mode(fc, fm, g)
    assert res.frequencies.shape == (fm.size, 2)
    assert res.weights.shape == (fm.size, 2, 2)
    for k, fm_k in enumerate(fm):
        one = bogoliubov_two_mode(fc, float(fm_k), g)
        assert one.frequencies.tobytes() == res.frequencies[k].tobytes()
        assert one.weights.tobytes() == res.weights[k].tobytes()
        # the closed form's rounding is eps * (wc^2 + wm^2) in the squared
        # frequencies, so compare those
        want = np.array(oracles.bogoliubov_eom(fc, fm_k, g))
        np.testing.assert_allclose(
            res.frequencies[k] ** 2, want**2, rtol=0.0, atol=1e-12 * (fc**2 + fm_k**2)
        )
    np.testing.assert_allclose(res.weights.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    if g == 0.0:
        # uncoupled: each branch is purely one bare mode
        assert np.all((res.weights == 0.0) | (res.weights == 1.0))


def test_bogoliubov_stack_collapse_rejects_the_stack():
    # one pair of the stack past collapse rejects the whole stack
    with pytest.raises(ModeCollapseError):
        bogoliubov_two_mode(20.9e9, np.array([20.9e9, 1e9]), 10e9)
