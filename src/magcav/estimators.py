"""Parameter extraction and derived figures of merit.

Every fit runs through ``_fit``: damped least squares on the normal
equations (multiplicative damping of the scaled diagonal, adapted by
acceptance, so the accepted residual sequence is monotone by
construction), then standard errors and one report.  Couplings enter the
crossing fits as g^2 and are reported as g with error err/(2g), or
sqrt(err) at g = 0, which keeps them non-negative without constraints.

Ridge fits treat the data as unlabeled (B, f_peak) points and score each
against its nearest model branch (``_nearest``, ties to the lowest
branch); they never need branch assignments from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CONSTANTS, DEFAULT_GYRO, TWO_PI, DomainError
from .modes import eigenbranches
from .spectra import DensityMap, lorentzian

__all__ = [
    "UnidentifiableModelError",
    "FitReport",
    "find_peaks",
    "extract_ridge",
    "fit_lorentzian",
    "fit_two_mode",
    "fit_three_mode",
    "cooperativity",
    "spin_count",
    "coupling_per_spin",
    "coupling_from_filling",
    "susceptibility",
    "coupling_ratio",
    "photon_number",
    "predict_optimized",
]


class UnidentifiableModelError(RuntimeError):
    """The data cannot pin down the requested model parameters."""


@dataclass(frozen=True)
class FitReport:
    """Fit outcome: parameter -> (value, standard error), plus diagnostics."""

    parameters: dict
    residual_rms: float
    iterations: int
    converged: bool
    flags: tuple = ()

    def __getitem__(self, name: str) -> float:
        return self.parameters[name][0]

    def stderr(self, name: str) -> float:
        return self.parameters[name][1]

    def serialize(self) -> str:
        """Flat key-value block with stable ordering, for diffable logs."""
        lines = [
            f"converged = {'true' if self.converged else 'false'}",
            f"iterations = {self.iterations}",
            f"residual_rms = {self.residual_rms!r}",
        ]
        for name in sorted(self.parameters):
            value, err = self.parameters[name]
            lines.append(f"param.{name} = {value!r}")
            lines.append(f"stderr.{name} = {err!r}")
        lines.append("flags = " + ";".join(self.flags))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# damped least squares engine

_MAX_ITER = 200
_STEP_TOL = 1e-9
_RES_TOL = 1e-12


def _jacobian(fn, p, r0):
    J = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = 1e-7 * max(abs(p[j]), 1e-12)
        pp = p.copy()
        pp[j] += h
        J[:, j] = (fn(pp) - r0) / h
    return J


def _lm(fn, p0):
    """Minimize sum fn(p)^2; returns (p, r, iterations, converged)."""
    p = np.asarray(p0, dtype=float).copy()
    r = fn(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    while it < _MAX_ITER:
        if math.sqrt(cost / r.size) < _RES_TOL:
            converged = True
            break
        it += 1
        J = _jacobian(fn, p, r)
        JTJ = J.T @ J
        JTr = J.T @ r
        D = np.diag(np.maximum(np.diag(JTJ), 1e-300))
        accepted = False
        for _ in range(60):
            try:
                dp = np.linalg.solve(JTJ + lam * D, -JTr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = fn(p + dp)
            cost_new = float(r_new @ r_new)
            # strict decrease only: a zero step under huge damping must
            # not count as progress
            if cost_new < cost and np.isfinite(cost_new):
                rel_step = np.linalg.norm(dp) / max(np.linalg.norm(p), 1e-300)
                p = p + dp
                r = r_new
                cost = cost_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel_step < _STEP_TOL or math.sqrt(cost / r.size) < _RES_TOL:
                    converged = True
                break
            lam *= 5.0
            if lam > 1e16:
                break
        if not accepted or converged:
            break
    return p, r, it, converged


def _stderr(fn, p, r, n_data):
    """Diagonal of the scaled inverse normal matrix; zeros for exact fits."""
    k = p.size
    cost = float(r @ r)
    if n_data <= k or cost == 0.0:
        return np.zeros(k)
    J = _jacobian(fn, p, r)
    JTJ = J.T @ J
    s2 = cost / (n_data - k)
    try:
        cov = s2 * np.linalg.inv(JTJ)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(JTJ)
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


def _fit(resid, p0, names, n_data, squared=()):
    """Minimize sum resid(p)^2 from p0; returns (FitReport, final p).

    ``names`` label the entries of p.  A name in ``squared`` is fitted as
    g^2 and reported as g = sqrt|p| with error err/(2g), or sqrt(err) at
    g = 0, so both errors are in the units of g.
    """
    p, r, it, conv = _lm(resid, np.asarray(p0, dtype=float))
    err = _stderr(resid, p, r, n_data)
    params = {}
    for name, value, e in zip(names, p.tolist(), err.tolist()):
        if name in squared:
            value = math.sqrt(abs(value))
            e = e / (2.0 * value) if value > 0.0 else math.sqrt(e)
        params[name] = (value, e)
    return FitReport(params, float(np.sqrt(np.mean(r**2))), it, conv), p


def _nearest(f_peak, branches):
    """Signed distance of each peak to its nearest branch, and that branch.

    ``branches`` (..., n, k) holds k ascending branches at each of the n
    peaks; a tie goes to the lowest branch.
    """
    d = f_peak[:, None] - branches
    pick = np.argmin(np.abs(d), axis=-1)
    return np.take_along_axis(d, pick[..., None], axis=-1)[..., 0], pick


# ---------------------------------------------------------------------------
# peaks and ridges


# cells of one block: whole map rows in ``extract_ridge``, (peak, sample)
# pairs in the valley-floor search; bounds every temporary at a few
# hundred kB whatever the map size
_PEAK_BLOCK_CELLS = 1 << 16


def _check_axis(f, n):
    """``f`` as a float array, checked as the abscissa of n-sample traces."""
    f = np.asarray(f, dtype=float)
    if f.size != n or f.size < 3:
        raise DomainError("need at least three (f, y) samples")
    if np.any(np.diff(f) <= 0):
        raise DomainError("f samples must be strictly increasing")
    return f


def _valley_floors(Y, rows, peaks):
    """Higher of the two valley floors around each peak (rows[k], peaks[k]).

    Each floor is the minimum of the peak's row from the peak out to the
    nearest sample that is not <= the peak (strictly higher, or NaN), or
    to the row's edge.  Peaks go in blocks, each with a gathered copy of
    its rows, so temporaries stay O(_PEAK_BLOCK_CELLS), never
    O(len(peaks) * row length).
    """
    n = Y.shape[1]
    idx = np.arange(n)
    floors = np.empty(peaks.size)
    step = max(1, _PEAK_BLOCK_CELLS // n)
    for s in range(0, peaks.size, step):
        Z = Y[rows[s : s + step]]
        p = peaks[s : s + step]
        k = np.arange(p.size)
        wall = ~(Z <= Z[k, p][:, None])
        # nearest wall on each side: the first True of the masked row,
        # read forward on the right and backward on the left
        right_wall = wall & (idx > p[:, None])
        right = right_wall.argmax(axis=1)
        right = np.where(right_wall[k, right], right, n)
        left_wall = (wall & (idx < p[:, None]))[:, ::-1]
        left = left_wall.argmax(axis=1)
        left = np.where(left_wall[k, left], n - 1 - left, -1)
        # minima of (left, p] and [p, right) in one reduceat over the
        # flattened block; the appended +inf keeps an edge index in range
        at = k * n
        bounds = np.stack((at + left + 1, at + p + 1, at + p, at + right), axis=1)
        minima = np.minimum.reduceat(np.append(Z.ravel(), np.inf), bounds.ravel())
        floors[s : s + step] = np.maximum(minima[0::4], minima[2::4])
    return floors


def _peaks(f, Y, prominence, live):
    """Peaks of the ``live`` rows of a block Y (rows x len(f) samples).

    ``prominence`` holds each row's floor.  Returns (row, f_peak, height)
    arrays, in row order and sorted in f within a row; see ``find_peaks``.
    """
    mid = Y[:, 1:-1]
    mask = (mid > Y[:, :-2]) & (mid >= Y[:, 2:])
    mask &= live[:, None]
    rows, cand = np.divmod(np.flatnonzero(mask), mask.shape[1])
    cand += 1
    # drop only where "< prominence" holds, so NaN comparisons keep a
    # peak; no valley floor lies below the row minimum, so the first test
    # only drops peaks the second would
    floor = prominence[rows]
    keep = ~(Y[rows, cand] - Y.min(axis=1)[rows] < floor)
    rows, cand, floor = rows[keep], cand[keep], floor[keep]
    keep = ~(Y[rows, cand] - _valley_floors(Y, rows, cand) < floor)
    rows, cand = rows[keep], cand[keep]
    xs = []
    hs = []
    for r, i in zip(rows.tolist(), cand.tolist()):
        x0, x1, x2 = f[i - 1 : i + 2]
        y0, y1, y2 = Y[r, i - 1 : i + 2]
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        if den == 0.0:
            xs.append(float(x1))
            hs.append(float(y1))
            continue
        xv = x1 - 0.5 * num / den
        # vertex of the interpolating parabola, clamped to the bracket
        xv = min(max(xv, x0), x2)
        # its height, in Newton form about x1: exact to a few ulps even at
        # GHz abscissae, where a monomial-basis fit is ill-conditioned
        s01 = (y1 - y0) / (x1 - x0)
        c = ((y2 - y1) / (x2 - x1) - s01) / (x2 - x0)
        xs.append(float(xv))
        hs.append(float(y1 + (xv - x1) * (s01 + c * (xv - x0))))
    return rows, np.array(xs, dtype=float), np.array(hs, dtype=float)


def find_peaks(f, y, min_prominence):
    """Local maxima of (f, y) above a prominence floor, refined to sub-grid.

    Prominence of a peak is its height over the higher of the two valley
    floors separating it from taller terrain (or the trace edge).  Interior
    maxima only; returns (f_peak, height) pairs sorted in f.
    """
    y = np.asarray(y, dtype=float)
    f = _check_axis(f, y.size)
    _, xs, hs = _peaks(f, y.reshape(1, -1), np.full(1, min_prominence), np.ones(1, bool))
    return list(zip(xs.tolist(), hs.tolist()))


def extract_ridge(dmap: DensityMap, min_prominence_rel: float = 0.25):
    """Per-column peak positions of a map: arrays (B, f_peak), unlabeled.

    The prominence floor is relative to each column's maximum, so faint
    columns far from a crossing still contribute their ridge.  A column
    whose maximum is <= 0 has none.  The map goes through ``find_peaks``'s
    core in blocks of whole columns.
    """
    if not 0.0 < min_prominence_rel < 1.0:
        raise DomainError("min_prominence_rel must lie in (0, 1)")
    values = dmap.values
    if values.shape[0] == 0:
        return np.array([]), np.array([])
    top = values.max(axis=1)
    # NaN maxima stay live, as "not <= 0"
    live = ~(top <= 0.0)
    if not live.any():
        return np.array([]), np.array([])
    f = _check_axis(dmap.f_axis, values.shape[1])
    prominence = min_prominence_rel * top
    step = max(1, _PEAK_BLOCK_CELLS // f.size)
    Bs = []
    fs = []
    for s in range(0, values.shape[0], step):
        block = slice(s, s + step)
        rows, f_peak, _ = _peaks(f, values[block], prominence[block], live[block])
        Bs.append(dmap.B_axis[s + rows])
        fs.append(f_peak)
    return np.concatenate(Bs), np.concatenate(fs)


# ---------------------------------------------------------------------------
# line and crossing fits


def fit_lorentzian(f, y, initial=None) -> FitReport:
    """Fit baseline + Lorentzian (amplitude, f0, fwhm, baseline) to a trace."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if f.size != y.size or f.size < 5:
        raise DomainError("need at least five samples")
    span = float(f[-1] - f[0])
    if np.ptp(y) == 0.0:
        # nothing to fit: a width is undefined on a flat trace
        params = {
            "amplitude": (0.0, 0.0),
            "f0": (float(f[y.size // 2]), 0.0),
            "fwhm": (span, 0.0),
            "baseline": (float(y[0]), 0.0),
        }
        return FitReport(params, 0.0, 0, False, ("flat-trace",))
    if initial is None:
        base0 = float(y.min())
        amp0 = float(y.max() - base0)
        f00 = float(f[int(np.argmax(y))])
        above = y - base0 > 0.5 * amp0
        w0 = max(float(above.sum()) * span / f.size, span / f.size)
        initial = (amp0, f00, w0, base0)

    def resid(p):
        return lorentzian(f, p[0], p[1], abs(p[2]), p[3]) - y

    fit, _ = _fit(resid, initial, ("amplitude", "f0", "fwhm", "baseline"), f.size)
    # the model sees only |fwhm|
    fit.parameters["fwhm"] = (abs(fit["fwhm"]), fit.stderr("fwhm"))
    return fit


def _check_ridge(B, f):
    B = np.asarray(B, dtype=float)
    f = np.asarray(f, dtype=float)
    if B.shape != f.shape or B.ndim != 1:
        raise DomainError("ridge must be matching 1-D (B, f) arrays")
    if B.size < 6:
        raise DomainError("ridge needs at least six points")
    return B, f


def _initial_lines(B, f):
    """Rough cavity level and magnon line through the far-detuned points."""
    fc0 = float(np.median(f))
    spread = float(np.ptp(f))
    far = np.abs(f - fc0) > 0.25 * spread
    if far.sum() >= 2 and np.ptp(B[far]) > 0.0:
        gyro0, o0 = np.polyfit(B[far], f[far], 1)
    else:
        gyro0 = DEFAULT_GYRO
        o0 = fc0 - gyro0 * float(np.median(B))
    return fc0, float(gyro0), float(o0)


def _chain_branches(p, B):
    """(..., n, k) branches of a k-mode chain at the n fields B.

    ``p`` is (f_c, gyro, k-1 line offsets, k-1 squared couplings (g/pi)^2):
    the cavity couples to the first magnon line, each line to the next,
    and every line has slope gyro.  Entries of ``p`` may be arrays that
    broadcast with B.  The matrix is laid out as ``HybridModel.matrix_at``
    lays out its own: bare frequencies on the diagonal, half-splittings
    g/pi/2 beside it.
    """
    k = len(p) // 2
    lines = [p[0], *(p[1] * B + o for o in p[2:k + 1])]
    halves = [0.5 * np.sqrt(np.abs(g2)) for g2 in p[k + 1:]]
    m = np.zeros(np.broadcast(*lines, *halves).shape + (k, k))
    for j, line in enumerate(lines):
        m[..., j, j] = line
    for j, h in enumerate(halves):
        m[..., j, j + 1] = m[..., j + 1, j] = h
    return eigenbranches(m)


def fit_two_mode(B, f_peak) -> FitReport:
    """Fit the two-oscillator crossing; parameters (f_c, gyro, offset, g_over_pi).

    Each ridge point is scored against the nearer branch.  Data touching
    only one branch cannot identify g and raises instead of guessing.
    """
    B, f_peak = _check_ridge(B, f_peak)
    # identifiability needs the gap itself: some column must carry both
    # branches at once, otherwise a sheared line pair can thread any
    # single ridge with an arbitrary tiny g
    _, counts = np.unique(B, return_counts=True)
    if counts.max() < 2:
        raise UnidentifiableModelError(
            "no field column resolves both branches; coupling is not identifiable"
        )
    fc0, gyro0, o0 = _initial_lines(B, f_peak)
    g2_try = np.linspace(0.0, float(np.ptp(f_peak)), 33) ** 2
    d, _ = _nearest(f_peak, _chain_branches((fc0, gyro0, o0, g2_try[:, None]), B))
    initial = (fc0, gyro0, o0, g2_try[np.argmin(np.sum(d**2, axis=1))])

    def resid(p):
        return _nearest(f_peak, _chain_branches(p, B))[0]

    fit, p = _fit(resid, initial, ("f_c", "gyro", "offset", "g_over_pi"), B.size,
                  squared=("g_over_pi",))
    if np.ptp(_nearest(f_peak, _chain_branches(p, B))[1]) == 0:
        raise UnidentifiableModelError(
            "ridge touches a single branch; coupling is not identifiable"
        )
    return fit


def fit_three_mode(B, f_peak) -> FitReport:
    """Fit the chained three-oscillator crossing.

    Parameters (f_c, gyro, offset_r, offset_l, g_c_over_pi, g_rl_over_pi).
    The central pass-through branch is recognized structurally: columns
    carrying three or more peaks bracket it, and their middle peaks ride
    the bare magnon line.  Without such columns the model degrades to
    fit_two_mode and says so in the flags.
    """
    B, f_peak = _check_ridge(B, f_peak)
    uniq, inv = np.unique(B, return_inverse=True)
    central_B = []
    central_f = []
    outer_gaps = []
    for k in range(uniq.size):
        fs = np.sort(f_peak[inv == k])
        if fs.size >= 3:
            central_B.extend([uniq[k]] * (fs.size - 2))
            central_f.extend(fs[1:-1])
            outer_gaps.append(fs[-1] - fs[0])
    if len(outer_gaps) < 3:
        two = fit_two_mode(B, f_peak)
        flags = ("no-central-branch", "two-mode-fallback")
        params = dict(two.parameters)
        params["g_c_over_pi"] = params.pop("g_over_pi")
        params["offset_r"] = params["offset_l"] = params.pop("offset")
        params["g_rl_over_pi"] = (0.0, 0.0)
        return FitReport(params, two.residual_rms, two.iterations, two.converged, flags)

    gyro0, o0 = np.polyfit(central_B, central_f, 1)
    fc0 = float(np.median(f_peak))
    # smallest outer gap ~ the on-resonance splitting hypot(gc, gRL)
    gap = float(np.min(outer_gaps))
    p0 = np.array([fc0, gyro0, o0, o0, 0.95 * gap, 0.3 * gap])
    p0[4:] **= 2  # the couplings are fitted squared

    def resid(p):
        # one eigenproblem per field column, the same bits as per point
        return _nearest(f_peak, _chain_branches(p, uniq)[inv])[0]

    names = ("f_c", "gyro", "offset_r", "offset_l", "g_c_over_pi", "g_rl_over_pi")
    return _fit(resid, p0, names, B.size, squared=names[4:])[0]


# ---------------------------------------------------------------------------
# figures of merit


def cooperativity(g_over_pi: float, cavity_fwhm: float, magnon_fwhm: float) -> float:
    """(g/pi)^2 over the product of full linewidths, all in Hz."""
    if g_over_pi < 0.0:
        raise DomainError("g_over_pi must be >= 0")
    if cavity_fwhm <= 0.0 or magnon_fwhm <= 0.0:
        raise DomainError("linewidths must be > 0")
    product = cavity_fwhm * magnon_fwhm
    if not math.isfinite(product):
        raise DomainError("the product of the linewidths overflows")
    return g_over_pi**2 / product


def spin_count(density: float, diameter: float) -> float:
    """Spins in a sphere: density times pi/6 d^3."""
    if density <= 0.0 or diameter < 0.0:
        raise DomainError("density must be > 0 and diameter >= 0")
    return density * (math.pi / 6.0) * diameter**3


def coupling_per_spin(g_over_pi: float, N: float) -> float:
    """Single-spin vacuum coupling (g/pi/2)/sqrt(N), in Hz."""
    if g_over_pi < 0.0:
        raise DomainError("g_over_pi must be >= 0")
    if N < 1.0:
        raise DomainError("N must be at least 1")
    return 0.5 * g_over_pi / math.sqrt(N)


def coupling_from_filling(f_mode: float, chi: float, xi: float) -> float:
    """g/pi = f * sqrt(chi * xi) from susceptibility and filling factor."""
    if chi < 0.0 or xi < 0.0:
        raise DomainError("chi and xi must be >= 0")
    return f_mode * math.sqrt(chi * xi)


def susceptibility(g_over_pi: float, f_mode: float, xi: float) -> float:
    """Invert the coupling relation: chi = (g/pi / f)^2 / xi."""
    if f_mode <= 0.0 or xi <= 0.0:
        raise DomainError("f_mode and xi must be > 0")
    return (g_over_pi / f_mode) ** 2 / xi


def coupling_ratio(f_b: float, f_d: float, xi_b: float, xi_d: float) -> float:
    """(f_b/f_d) sqrt(xi_b/xi_d): modeled bright/dark coupling ratio."""
    if min(f_b, f_d, xi_b, xi_d) <= 0.0:
        raise DomainError("all inputs must be > 0")
    return (f_b / f_d) * math.sqrt(xi_b / xi_d)


def photon_number(P_inc: float, f0: float, Q_loaded: float, beta1: float, beta2: float) -> float:
    """Steady-state intracavity photons for on-resonance drive.

    kappa = f0/Q is the loaded linewidth in Hz; the input port passes
    kappa1 = beta1 kappa/(1+beta1+beta2).  Angular factors are kept
    explicit so the result is an honest quantum count.
    """
    if P_inc < 0.0:
        raise DomainError("incident power must be >= 0")
    if f0 <= 0.0 or Q_loaded <= 0.0:
        raise DomainError("f0 and Q_loaded must be > 0")
    if beta1 < 0.0 or beta2 < 0.0:
        raise DomainError("port couplings must be >= 0")
    kappa = f0 / Q_loaded
    kappa1 = beta1 * kappa / (1.0 + beta1 + beta2)
    return (
        4.0 * (TWO_PI * kappa1) * P_inc
        / (CONSTANTS.hbar * (TWO_PI * f0) * (TWO_PI * kappa) ** 2)
    )


def predict_optimized(current: dict, optimized: dict) -> dict:
    """Scale the measured system to an optimized filling factor.

    ``current`` needs keys f_b, g_over_pi, kappa_b, gamma_m, xi_b;
    ``optimized`` needs xi_b and optionally linewidth_factor (default 1).
    The coupling scales as sqrt(xi) at fixed susceptibility, so an
    identity optimization returns the inputs unchanged, bit for bit.
    """
    f_b = current["f_b"]
    g = current["g_over_pi"]
    kappa = current["kappa_b"]
    gamma = current["gamma_m"]
    xi_b = current["xi_b"]
    xi_opt = optimized["xi_b"]
    factor = optimized.get("linewidth_factor", 1.0)
    if min(f_b, kappa, gamma, xi_b, xi_opt) <= 0.0 or g < 0.0 or factor <= 0.0:
        raise DomainError("inputs must be positive (g may be zero)")
    chi = susceptibility(g, f_b, xi_b)
    g_opt = g * math.sqrt(xi_opt / xi_b)
    kappa_opt = kappa / factor
    return {
        "chi": chi,
        "g_opt_over_pi": g_opt,
        "kappa_opt": kappa_opt,
        "cooperativity_current": cooperativity(g, kappa, gamma),
        "cooperativity_opt": cooperativity(g_opt, kappa_opt, gamma),
        "per_spin_scale": g_opt / g if g > 0 else math.nan,
    }
