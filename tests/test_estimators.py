"""Peak finding, damped least-squares fits, and figure-of-merit chains."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from magcav import estimators
from magcav.cli import main
from magcav.core import DEFAULT_GYRO, DomainError
from magcav.estimators import (
    FitReport,
    UnidentifiableModelError,
    cooperativity,
    coupling_from_filling,
    coupling_per_spin,
    coupling_ratio,
    extract_ridge,
    find_peaks,
    fit_lorentzian,
    fit_three_mode,
    fit_two_mode,
    photon_number,
    predict_optimized,
    spin_count,
    susceptibility,
)
from magcav.modes import rwa_three_mode, rwa_two_mode
from magcav.presets import bright_crossing_model, dark_doublet_model
from magcav.spectra import DensityMap, PortCouplings, density_map, lorentzian, s21

try:
    from scipy.signal import peak_prominences
except ImportError:  # scipy is a test-only cross-check, not a dependency
    peak_prominences = None

PORTS = PortCouplings()
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# peaks


def test_find_peaks_single_lorentzian():
    f0, w = 20.9e9, 27e6
    f = np.linspace(f0 - 5 * w, f0 + 5 * w, 271)  # ~10 samples per FWHM
    y = lorentzian(f, 1.0, f0, w)
    peaks = find_peaks(f, y, 0.1)
    assert len(peaks) == 1
    grid = f[1] - f[0]
    assert peaks[0][0] == pytest.approx(f0, abs=grid / 10)
    assert peaks[0][1] == pytest.approx(1.0, rel=1e-3)


def test_find_peaks_synthetic_doublet():
    model = bright_crossing_model()
    B_cross = 20.9e9 / DEFAULT_GYRO
    f = np.linspace(18.9e9, 22.9e9, 6000)
    y = np.abs(s21(f, model, PORTS, B=B_cross))
    peaks = find_peaks(f, y, 0.3 * y.max())
    assert len(peaks) == 2
    split = peaks[1][0] - peaks[0][0]
    assert split == pytest.approx(2.05e9, rel=1e-2)


def test_find_peaks_flat_and_monotone():
    f = np.linspace(0.0, 1.0, 64)
    assert find_peaks(f, np.zeros(64), 0.0) == []
    assert find_peaks(f, f.copy(), 0.0) == []


def test_find_peaks_prominence_filter():
    f = np.linspace(0.0, 10.0, 1001)
    y = lorentzian(f, 1.0, 3.0, 0.5) + lorentzian(f, 0.05, 7.0, 0.5)
    assert len(find_peaks(f, y, 0.2)) == 1
    assert len(find_peaks(f, y, 0.01)) == 2


def test_find_peaks_validation():
    with pytest.raises(DomainError):
        find_peaks([0.0, 1.0], [0.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        find_peaks([0.0, 2.0, 1.0], [0.0, 1.0, 0.0], 0.0)


# few distinct levels, so ties, equal-height twins and plateaus are common
_LEVELS = st.integers(0, 6).map(float)
_SEGMENT = st.tuples(
    st.sampled_from(("flat", "up", "down", "free")), st.integers(1, 8), _LEVELS
)


def _run(draw, kind, length, level):
    """One constant, monotone or free run of ``length`` samples."""
    if kind == "flat":
        return [level] * length
    if kind == "up":
        return [level + k for k in range(length)]
    if kind == "down":
        return [level - k for k in range(length)]
    return draw(st.lists(
        # NaN ends a valley walk like strictly higher terrain
        st.one_of(_LEVELS, st.floats(-10.0, 10.0, allow_subnormal=False), st.just(np.nan)),
        min_size=length, max_size=length,
    ))


@st.composite
def peak_cases(draw):
    """(f, y, min_prominence) built from constant, monotone and free runs."""
    y = []
    for segment in draw(st.lists(_SEGMENT, min_size=1, max_size=10)):
        y += _run(draw, *segment)
    y = np.array(y + [0.0] * max(0, 3 - len(y)))
    steps = np.array(draw(st.lists(
        st.floats(0.1, 10.0), min_size=y.size, max_size=y.size
    )))
    # plain abscissae and GHz-scale ones, where the refinement is ill-posed
    scale, offset = draw(st.sampled_from(((1.0, 0.0), (1e6, 1.4e10))))
    f = offset + scale * np.cumsum(steps)
    i, j = draw(st.integers(0, y.size - 1)), draw(st.integers(0, y.size - 1))
    # the exact prominence of some peak lands on the floor itself
    p = draw(st.one_of(st.just(0.0), st.just(abs(y[i] - y[j])), st.floats(0.0, 12.0)))
    return f, y, p


def _same_peaks(got, want):
    assert np.array([x for x, _ in got]).tobytes() == np.array([x for x, _ in want]).tobytes()
    np.testing.assert_allclose(
        [h for _, h in got], [h for _, h in want], rtol=1e-12, atol=0.0
    )


@given(peak_cases())
@settings(max_examples=400, deadline=None)
def test_find_peaks_matches_scalar_oracle(case):
    f, y, p = case
    _same_peaks(find_peaks(f, y, p), oracles.find_peaks_scalar(f, y, p))


def test_find_peaks_many_blocks_match_scalar_oracle(monkeypatch):
    # a block of 3 candidates spreads a noisy trace over many blocks
    monkeypatch.setattr(estimators, "_PEAK_BLOCK_CELLS", 3 * 600)
    rng = np.random.default_rng(5)
    f = np.linspace(13.65e9, 14.15e9, 600)
    y = np.abs(lorentzian(f, 1.0, 13.9e9, 3.3e7) + rng.normal(0.0, 0.05, f.size))
    for p in (0.0, 0.01, 0.1, 0.5):
        _same_peaks(find_peaks(f, y, p), oracles.find_peaks_scalar(f, y, p))


@pytest.mark.skipif(peak_prominences is None, reason="scipy not installed")
# a plateau that steps up again is a maximum of prominence 0
@pytest.mark.filterwarnings("ignore:some peaks have a prominence of 0")
@given(peak_cases())
@settings(max_examples=200, deadline=None)
def test_find_peaks_prominence_matches_scipy(case):
    f, y, p = case
    mid = y[1:-1]
    maxima = np.flatnonzero((mid > y[:-2]) & (mid >= y[2:])) + 1
    prominence = peak_prominences(y, maxima)[0] if maxima.size else np.empty(0)
    kept = maxima[~(prominence < p)]
    got = find_peaks(f, y, p)
    assert len(got) == kept.size
    for (x, _), i in zip(got, kept):
        assert f[i - 1] <= x <= f[i + 1]


def _parabola_exact(xs, ys, x):
    """Lagrange interpolant through three points, in exact rationals."""
    xs, ys, x = [Fraction(v) for v in xs], [Fraction(v) for v in ys], Fraction(x)
    total = Fraction(0)
    for k in range(3):
        term = ys[k]
        for m in range(3):
            if m != k:
                term *= (x - xs[m]) / (xs[k] - xs[m])
        total += term
    return total


@given(
    st.floats(1e10, 2e10), st.floats(3.0, 6.0), st.floats(3.0, 6.0),
    st.floats(-3.0, 0.0), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0),
)
@settings(max_examples=500, deadline=None)
def test_find_peaks_vertex_height_exact(x0, log_h01, log_h12, log_y1, r0, r2):
    # GHz abscissae, 1 kHz to 1 MHz spacings, a maximum in the middle
    xs = (x0, x0 + 10.0**log_h01, x0 + 10.0**log_h01 + 10.0**log_h12)
    y1 = 10.0**log_y1
    ys = (r0 * y1, y1, r2 * y1)
    [(xv, height)] = find_peaks(xs, ys, 0.0)
    exact = _parabola_exact(xs, ys, xv)
    assert abs(Fraction(height) - exact) <= Fraction(1e-14) * abs(exact)


# ---------------------------------------------------------------------------
# Lorentzian fit


def test_fit_lorentzian_exact_roundtrip():
    f = np.linspace(20.8e9, 21.0e9, 401)
    y = lorentzian(f, 1.0, 20.9e9, 27e6, 0.0)
    rep = fit_lorentzian(f, y)
    assert rep.converged
    assert rep["amplitude"] == pytest.approx(1.0, rel=1e-6)
    assert rep["f0"] == pytest.approx(20.9e9, rel=1e-6)
    assert rep["fwhm"] == pytest.approx(27e6, rel=1e-6)
    assert rep["baseline"] == pytest.approx(0.0, abs=1e-6)
    assert rep.residual_rms < 1e-8


def test_fit_lorentzian_noisy_monte_carlo():
    f = np.linspace(20.8e9, 21.0e9, 401)
    clean = lorentzian(f, 1.0, 20.9e9, 27e6, 0.0)
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(100):
        rep = fit_lorentzian(f, clean + rng.normal(0.0, 1e-3, f.shape))
        assert rep.converged
        assert rep["fwhm"] == pytest.approx(27e6, rel=2e-2)
        assert rep.stderr("fwhm") > 0.0


def test_fit_lorentzian_flat_trace():
    f = np.linspace(0.0, 1.0, 11)
    rep = fit_lorentzian(f, np.zeros(11))
    assert not rep.converged
    assert "flat-trace" in rep.flags
    assert rep["amplitude"] == 0.0


def test_fit_lorentzian_validation():
    with pytest.raises(DomainError):
        fit_lorentzian([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# the shared fit path


def test_fit_squared_parameter_error_at_positive_g():
    # residual g^2 - y: g^2 is the mean of y, with its ordinary stderr
    y = np.array([4.0, 4.3, 3.8, 4.1, 3.9])

    def resid(p):
        return p[0] - y

    plain, _ = estimators._fit(resid, [1.0], ("g2",), y.size)
    rep, p = estimators._fit(resid, [1.0], ("g",), y.size, squared=("g",))
    assert p[0] == plain["g2"]
    assert rep["g"] == np.sqrt(plain["g2"])
    # d g = d(g^2) / (2 g), in the units of g
    assert rep.stderr("g") == plain.stderr("g2") / (2.0 * rep["g"])
    se = np.std(y, ddof=1) / np.sqrt(y.size)
    assert rep.stderr("g") == pytest.approx(se / (2.0 * np.sqrt(y.mean())), rel=1e-6)


def test_fit_squared_parameter_error_at_zero_g():
    # x . y = 0, so g^2 = 0 is exactly stationary: LM never leaves it,
    # and the residual left over gives g^2 a nonzero error
    x = np.array([1e20, -1e20, 1e20, -1e20])
    y = np.ones(4)

    def resid(p):
        return p[0] * x - y

    plain, _ = estimators._fit(resid, [0.0], ("g2",), y.size)
    rep, p = estimators._fit(resid, [0.0], ("g",), y.size, squared=("g",))
    assert p[0] == 0.0 and rep["g"] == 0.0
    err = plain.stderr("g2")
    assert err == pytest.approx(np.sqrt((4.0 / 3.0) / 4e40), rel=1e-9)
    # sqrt of the g^2 error, in the units of g, not err itself
    assert rep.stderr("g") == np.sqrt(err)


def test_nearest_ties_go_to_the_lowest_branch():
    branches = np.array([[0.0, 2.0, 4.0], [0.0, 2.0, 4.0], [1.0, 1.0, 5.0]])
    d, pick = estimators._nearest(np.array([1.0, 3.0, 1.5]), branches)
    assert pick.tolist() == [0, 1, 0]
    assert d.tolist() == [1.0, 1.0, 0.5]


# ---------------------------------------------------------------------------
# crossing fits


def synthetic_two_mode_ridge(g_over_pi, fc=20.9e9, gyro=DEFAULT_GYRO, n=50):
    B = np.linspace(0.60, 0.89, n)
    Bs, fs = [], []
    for b in B:
        eig = rwa_two_mode(fc, gyro * b, g_over_pi)
        Bs += [b, b]
        fs += list(eig.frequencies)
    return np.array(Bs), np.array(fs)


def test_fit_two_mode_exact_roundtrip():
    B, f = synthetic_two_mode_ridge(2.05e9)
    rep = fit_two_mode(B, f)
    assert rep.converged
    assert rep["g_over_pi"] == pytest.approx(2.05e9, rel=1e-3)
    assert rep["f_c"] == pytest.approx(20.9e9, rel=1e-6)
    assert rep["gyro"] == pytest.approx(DEFAULT_GYRO, rel=1e-6)
    assert rep["offset"] == pytest.approx(0.0, abs=1e3)


def test_fit_two_mode_null_coupling():
    B, f = synthetic_two_mode_ridge(0.0)
    rep = fit_two_mode(B, f)
    assert rep["g_over_pi"] < 1e-3 * rep["f_c"]


def test_fit_two_mode_jittered():
    B, f = synthetic_two_mode_ridge(2.05e9)
    rng = np.random.Generator(np.random.Philox(23))
    f_j = f * (1.0 + 0.01 * rng.standard_normal(f.shape))
    rep = fit_two_mode(B, f_j)
    assert rep["g_over_pi"] == pytest.approx(2.05e9, rel=5e-2)
    assert rep.stderr("g_over_pi") > 0.0


def test_fit_two_mode_one_branch_raises():
    B = np.linspace(0.60, 0.89, 50)
    upper = np.array(
        [rwa_two_mode(20.9e9, DEFAULT_GYRO * b, 2.05e9).frequencies[1] for b in B]
    )
    with pytest.raises(UnidentifiableModelError):
        fit_two_mode(B, upper)


def test_fit_two_mode_scale_equivariance():
    B, f = synthetic_two_mode_ridge(2.05e9)
    lam = 2.5
    rep1 = fit_two_mode(B, f)
    rep2 = fit_two_mode(lam * B, lam * f)
    assert rep2["f_c"] == pytest.approx(lam * rep1["f_c"], rel=1e-6)
    assert rep2["g_over_pi"] == pytest.approx(lam * rep1["g_over_pi"], rel=1e-4)
    assert rep2["offset"] == pytest.approx(lam * rep1["offset"], abs=lam * 1e4)
    assert rep2["gyro"] == pytest.approx(rep1["gyro"], rel=1e-6)


def synthetic_three_mode_ridge(gc, gRL, fc=13.9e9, gyro=DEFAULT_GYRO, n=60):
    offset = fc - 0.471 * gyro
    B = np.linspace(0.460, 0.482, n)
    Bs, fs = [], []
    for b in B:
        fm = gyro * b + offset
        eig = rwa_three_mode(fc, fm, fm, gc, gRL)
        Bs += [b] * 3
        fs += list(eig.frequencies)
    return np.array(Bs), np.array(fs)


def test_fit_three_mode_exact_roundtrip():
    B, f = synthetic_three_mode_ridge(143e6, 12.5e6)
    rep = fit_three_mode(B, f)
    assert rep.converged
    assert not rep.flags
    assert rep["g_c_over_pi"] == pytest.approx(143e6, rel=1e-2)
    assert rep["g_rl_over_pi"] == pytest.approx(12.5e6, rel=1e-2)
    assert rep["f_c"] == pytest.approx(13.9e9, rel=1e-6)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_three_mode_branches_per_column_match_per_point(data):
    # the crossing fits solve one eigenproblem per distinct B and expand it
    # to the ridge points; that must give the per-point branches bit for
    # bit, for the two-mode (k = 2) and the three-mode (k = 3) chain
    k = data.draw(st.sampled_from([2, 3]))
    n_cols = data.draw(st.integers(1, 12))
    cols = np.linspace(0.45, 0.49, n_cols) + data.draw(st.floats(-0.01, 0.01))
    B = cols[data.draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=40))]
    p = (
        data.draw(st.floats(13.0e9, 15.0e9)),
        data.draw(st.floats(2.0e10, 3.0e10)),
        *(data.draw(st.floats(-1.0e9, 1.0e9)) for _ in range(k - 1)),
        # squared couplings, either sign
        *(data.draw(st.floats(-1e18, 1e18)) for _ in range(k - 1)),
    )
    uniq, inv = np.unique(B, return_inverse=True)
    per_point = estimators._chain_branches(p, B)
    assert per_point.shape == (B.size, k)
    assert estimators._chain_branches(p, uniq)[inv].tobytes() == per_point.tobytes()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_chain_branches_at_zero_coupling_are_the_sorted_diagonal(data):
    # an uncoupled chain is exactly its bare lines, sorted; mean -+ half
    # the difference would give 0.10000000000000003 for the pair (1, 0.1)
    B = np.array([0.1])
    assert estimators._chain_branches((1.0, 1.0, 0.0, 0.0), B).tolist() == [[0.1, 1.0]]
    k = data.draw(st.sampled_from([2, 3]))
    B = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10)))
    fc = data.draw(st.floats(13.0e9, 15.0e9))
    gyro = data.draw(st.floats(2.0e10, 3.0e10))
    offsets = [data.draw(st.floats(-1.0e9, 1.0e9)) for _ in range(k - 1)]
    bare = np.stack([np.full(B.size, fc), *(gyro * B + o for o in offsets)], axis=-1)
    got = estimators._chain_branches((fc, gyro, *offsets, *[0.0] * (k - 1)), B)
    assert got.tobytes() == np.sort(bare, axis=-1).tobytes()


def test_fit_three_mode_asymptote_gap():
    B, f = synthetic_three_mode_ridge(143e6, 12.5e6)
    rep = fit_three_mode(B, f)
    # far detuned, the fitted doublet branches split by g_rl
    b_far = 10.0
    fm = rep["gyro"] * b_far + rep["offset_r"]
    eig = rwa_three_mode(rep["f_c"], fm, fm, rep["g_c_over_pi"], rep["g_rl_over_pi"])
    doublet = [x for x in eig.frequencies if abs(x - fm) < 1e9]
    gap = max(doublet) - min(doublet)
    assert gap == pytest.approx(rep["g_rl_over_pi"], rel=5e-2)


def test_fit_three_mode_fallback_without_central_branch():
    B, f = synthetic_two_mode_ridge(143e6, fc=13.9e9)
    rep = fit_three_mode(B, f)
    assert "two-mode-fallback" in rep.flags
    assert rep["g_c_over_pi"] == pytest.approx(143e6, rel=1e-2)
    assert rep["g_rl_over_pi"] == 0.0


def test_fit_three_mode_map_pipeline():
    model = dark_doublet_model()
    B = np.linspace(0.450, 0.492, 220)
    f = np.linspace(13.65e9, 14.15e9, 1500)
    ridge_B, ridge_f = extract_ridge(density_map(model, B, f, PORTS), 0.02)
    assert ridge_B.size >= 10
    rep = fit_three_mode(ridge_B, ridge_f)
    assert rep.converged
    assert rep["g_c_over_pi"] == pytest.approx(143e6, rel=2e-2)
    assert rep["g_rl_over_pi"] == pytest.approx(12.5e6, rel=2e-2)


def test_extract_ridge_basics():
    model = bright_crossing_model()
    B = np.linspace(0.60, 0.89, 40)
    f = np.linspace(18.9e9, 22.9e9, 400)
    dmap = density_map(model, B, f, PORTS)
    ridge_B, ridge_f = extract_ridge(dmap, 0.25)
    assert ridge_B.size >= 40
    assert set(np.unique(ridge_B)) <= set(B.tolist())
    assert np.all((ridge_f >= f[0]) & (ridge_f <= f[-1]))
    with pytest.raises(DomainError):
        extract_ridge(dmap, 0.0)
    with pytest.raises(DomainError):
        extract_ridge(dmap, 1.5)


@st.composite
def ridge_cases(draw):
    """(map, min_prominence_rel): a few columns of any kind on a short f axis.

    Columns are free traces with plateaus and NaN cells, all zero, all
    negative or all NaN; the f axis may repeat a sample, which is a
    DomainError exactly when some column's maximum is not <= 0.
    """
    n_f = draw(st.integers(1, 12))
    n_b = draw(st.integers(0, 5))
    rows = []
    for _ in range(n_b):
        kind = draw(st.sampled_from(("trace", "trace", "zero", "negative", "nan")))
        if kind == "trace":
            y = []
            while len(y) < n_f:
                y += _run(draw, *draw(_SEGMENT))
            rows.append(y[:n_f])
        elif kind == "zero":
            rows.append([0.0] * n_f)
        elif kind == "negative":
            rows.append([-draw(_LEVELS) for _ in range(n_f)])
        else:
            rows.append([np.nan] * n_f)
    steps = draw(st.lists(st.floats(0.1, 10.0), min_size=n_f, max_size=n_f))
    if n_f > 1 and draw(st.integers(0, 9)) == 0:
        steps[draw(st.integers(1, n_f - 1))] = 0.0
    scale, offset = draw(st.sampled_from(((1.0, 0.0), (1e6, 1.4e10))))
    dmap = DensityMap(0.5 + 0.01 * np.arange(n_b), offset + scale * np.cumsum(steps),
                      np.zeros((n_b, n_f)))
    # NaN and negative cells get past the constructor's checks this way
    dmap.values[...] = np.array(rows).reshape(n_b, n_f)
    rel = draw(st.one_of(st.sampled_from((0.02, 0.25, 0.5)),
                         st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    return dmap, rel


@given(ridge_cases(), st.integers(1, 40))
@settings(max_examples=400, deadline=None)
def test_extract_ridge_matches_column_oracle(case, block_cells):
    # a few cells per block split both the row blocks and the floor blocks
    dmap, rel = case
    try:
        want = oracles.extract_ridge_columns(dmap, rel)
    except DomainError:
        want = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_PEAK_BLOCK_CELLS", block_cells)
        if want is None:
            with pytest.raises(DomainError):
                extract_ridge(dmap, rel)
            return
        got = extract_ridge(dmap, rel)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("fixture, rel", [("bright_crossing.ini", 0.25),
                                          ("dark_doublet.ini", 0.02)])
def test_extract_ridge_fixture_maps_match_column_oracle(tmp_path, capsys, fixture, rel):
    assert main(["spectrum", str(FIXTURES / fixture), "-o", str(tmp_path / "map")]) == 0
    capsys.readouterr()
    dmap = DensityMap.read_csv(tmp_path / "map.csv")
    got = extract_ridge(dmap, rel)
    want = oracles.extract_ridge_columns(dmap, rel)
    assert got[0].size >= dmap.B_axis.size
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# figures of merit


def test_cooperativity_values():
    assert cooperativity(2.05e9, 27e6, 1.1e6) == pytest.approx(141498.3164983165, rel=1e-12)
    assert cooperativity(2.05e9, 27e6, 1.1e6) == pytest.approx(1.3e5, rel=0.15)
    assert cooperativity(143e6, 33e6, 1.2e6) == pytest.approx(516.3888888888889, rel=1e-12)
    assert cooperativity(0.0, 27e6, 1.1e6) == 0.0
    lam = 3.7
    assert cooperativity(lam * 2.05e9, lam * 27e6, lam * 1.1e6) == pytest.approx(
        cooperativity(2.05e9, 27e6, 1.1e6), rel=1e-12
    )
    with pytest.raises(DomainError):
        cooperativity(1e9, 0.0, 1e6)
    # g/pi is a splitting, never negative, as in predict_optimized
    with pytest.raises(DomainError, match="g_over_pi must be >= 0"):
        cooperativity(-143e6, 33e6, 1.2e6)


def test_spin_count_values():
    N = spin_count(2.1e28, 0.8e-3)
    assert N == pytest.approx(5.629734035232909e18, rel=1e-12)
    assert N == pytest.approx(5.63e18, rel=1e-3)
    assert spin_count(2.1e28, 0.0) == 0.0
    assert spin_count(2.1e28, 1.6e-3) == pytest.approx(8 * N, rel=1e-14)
    with pytest.raises(DomainError):
        spin_count(0.0, 1e-3)


def test_coupling_per_spin_values():
    N = spin_count(2.1e28, 0.8e-3)
    per = coupling_per_spin(2.05e9, N)
    assert per == pytest.approx(0.43199619976772113, rel=1e-12)
    assert per == pytest.approx(0.3, rel=1.0)  # convention gap, factor < 2
    assert coupling_per_spin(2.05e9, 1.0) == pytest.approx(1.025e9, rel=1e-14)
    ratio = coupling_per_spin(5.2e9, N) / per
    assert ratio == pytest.approx(2.5365853658536586, rel=1e-12)
    assert ratio == pytest.approx(2.57, rel=2e-2)
    with pytest.raises(DomainError):
        coupling_per_spin(1e9, 0.5)
    with pytest.raises(DomainError, match="g_over_pi must be >= 0"):
        coupling_per_spin(-2.05e9, N)


def test_coupling_from_filling_chain():
    chi = susceptibility(2.05e9, 20.9e9, 0.03)
    assert chi == pytest.approx(0.3206962600062575, rel=1e-12)
    assert coupling_from_filling(20.9e9, chi, 0.03) == pytest.approx(2.05e9, rel=1e-12)
    assert coupling_from_filling(20.9e9, chi, 0.0) == 0.0
    g_opt = coupling_from_filling(20.9e9, chi, 0.2)
    assert g_opt == pytest.approx(5.29e9, rel=1e-3)
    assert g_opt == pytest.approx(5.2e9, rel=2e-2)
    with pytest.raises(DomainError):
        susceptibility(2.05e9, 20.9e9, 0.0)
    with pytest.raises(DomainError):
        coupling_from_filling(20.9e9, -0.1, 0.03)


def test_coupling_ratio_values():
    modeled = coupling_ratio(20.6e9, 13.75e9, 3e-2, 3e-4)
    assert modeled == pytest.approx(14.981818181818182, rel=1e-12)
    assert modeled == pytest.approx(15.0, rel=5e-3)
    measured = 2.05e9 / 143e6
    assert abs(modeled - measured) / measured < 5e-2
    assert coupling_ratio(5e9, 5e9, 0.1, 0.1) == 1.0
    inv = coupling_ratio(13.75e9, 20.6e9, 3e-4, 3e-2)
    assert modeled * inv == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        coupling_ratio(0.0, 13.75e9, 3e-2, 3e-4)


def test_photon_number_values():
    n = photon_number(1e-12, 20.9e9, 714.0, 0.01, 0.01)
    assert n == pytest.approx(15.396767849827278, rel=1e-12)
    assert 15.0 / 2 < n < 15.0 * 2
    assert photon_number(0.0, 20.9e9, 714.0, 0.01, 0.01) == 0.0
    doubled = photon_number(2e-12, 20.9e9, 714.0, 0.01, 0.01)
    assert doubled == pytest.approx(2 * n, rel=1e-14)
    with pytest.raises(DomainError):
        photon_number(-1e-12, 20.9e9, 714.0, 0.01, 0.01)
    with pytest.raises(DomainError):
        photon_number(1e-12, 20.9e9, 0.0, 0.01, 0.01)
    # a negative port coupling, as PortCouplings rejects it
    for betas in ((-0.3, -0.3), (-0.3, 0.01), (0.01, -0.3)):
        with pytest.raises(DomainError, match="port couplings must be >= 0"):
            photon_number(1e-12, 20.9e9, 714.0, *betas)
    assert photon_number(1e-12, 20.9e9, 714.0, 0.0, 0.01) == 0.0


PAPER_CURRENT = dict(f_b=20.9e9, g_over_pi=2.05e9, kappa_b=27e6, gamma_m=1.1e6, xi_b=0.03)


def test_predict_optimized_chain():
    rep = predict_optimized(PAPER_CURRENT, dict(xi_b=0.2))
    assert rep["g_opt_over_pi"] == pytest.approx(5293077239.816803, rel=1e-12)
    assert rep["g_opt_over_pi"] == pytest.approx(5.2e9, rel=2e-2)
    assert rep["cooperativity_opt"] == pytest.approx(943322.1099887766, rel=1e-12)
    assert rep["cooperativity_opt"] == pytest.approx(9.1e5, rel=0.1)
    rep12 = predict_optimized(PAPER_CURRENT, dict(xi_b=0.2, linewidth_factor=12.0))
    assert rep12["cooperativity_opt"] == pytest.approx(11319865.319865318, rel=1e-12)
    assert rep12["cooperativity_opt"] == pytest.approx(1.1e7, rel=0.1)
    assert rep12["kappa_opt"] == pytest.approx(27e6 / 12, rel=1e-14)


def test_predict_optimized_identity_bit_exact():
    rep = predict_optimized(PAPER_CURRENT, dict(xi_b=0.03))
    assert rep["g_opt_over_pi"] == PAPER_CURRENT["g_over_pi"]
    assert rep["kappa_opt"] == PAPER_CURRENT["kappa_b"]
    assert rep["cooperativity_opt"] == rep["cooperativity_current"]
    assert rep["per_spin_scale"] == 1.0


def test_predict_optimized_validation():
    with pytest.raises(DomainError):
        predict_optimized(dict(PAPER_CURRENT, xi_b=0.0), dict(xi_b=0.2))
    with pytest.raises(DomainError):
        predict_optimized(PAPER_CURRENT, dict(xi_b=0.2, linewidth_factor=0.0))


def test_fit_report_serialization_stable():
    B, f = synthetic_two_mode_ridge(2.05e9)
    s1 = fit_two_mode(B, f).serialize()
    s2 = fit_two_mode(B, f).serialize()
    assert s1 == s2
    lines = s1.splitlines()
    assert lines[0].startswith("converged = ")
    assert any(line.startswith("param.g_over_pi = ") for line in lines)
    assert any(line.startswith("stderr.gyro = ") for line in lines)
    assert lines[-1].startswith("flags = ")
    rep = FitReport({"a": (1.0, 0.1)}, 0.0, 3, True, ("x", "y"))
    assert rep.serialize().splitlines()[-1] == "flags = x;y"
