"""Parameter extraction and derived figures of merit.

Fitting is damped least squares on the normal equations: multiplicative
damping of the scaled diagonal, adapted by acceptance, so the accepted
residual sequence is monotone by construction.  Couplings enter the
avoided-crossing fits as g^2 internally and are reported as sqrt, which
keeps them non-negative without constraints.

Ridge fitting treats the data as unlabeled (B, f_peak) points and scores
each against the nearest model branch; it never needs branch assignments
from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CONSTANTS, DEFAULT_GYRO, TWO_PI, DomainError
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


def _solve_damped(JTJ, JTr, lam, D):
    return np.linalg.solve(JTJ + lam * D, -JTr)


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
                dp = _solve_damped(JTJ, JTr, lam, D)
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


# ---------------------------------------------------------------------------
# peaks and ridges


# cells of one (candidates, samples) block in the prominence test; bounds
# its temporaries at a few hundred kB whatever the trace length
_PEAK_BLOCK_CELLS = 1 << 16


def _valley_floors(y, peaks):
    """Higher of the two valley floors around each peak index.

    Each floor is the minimum of ``y`` from the peak out to the nearest
    sample that is not <= the peak (strictly higher, or NaN), or to the
    trace edge.  Candidates go in blocks so temporaries stay
    O(len(y) * block), never O(len(y) * len(peaks)).
    """
    n = y.size
    idx = np.arange(n)
    floors = np.empty(peaks.size)
    step = max(1, _PEAK_BLOCK_CELLS // n)
    for s in range(0, peaks.size, step):
        p = peaks[s : s + step, None]
        wall = ~(y <= y[p])
        left = np.where(wall & (idx < p), idx, -1).max(axis=1, keepdims=True)
        right = np.where(wall & (idx > p), idx, n).min(axis=1, keepdims=True)
        left_min = np.where((idx > left) & (idx <= p), y, np.inf).min(axis=1)
        right_min = np.where((idx >= p) & (idx < right), y, np.inf).min(axis=1)
        floors[s : s + step] = np.maximum(left_min, right_min)
    return floors


def find_peaks(f, y, min_prominence):
    """Local maxima of (f, y) above a prominence floor, refined to sub-grid.

    Prominence of a peak is its height over the higher of the two valley
    floors separating it from taller terrain (or the trace edge).  Interior
    maxima only; returns (f_peak, height) pairs sorted in f.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if f.size != y.size or f.size < 3:
        raise DomainError("need at least three (f, y) samples")
    if np.any(np.diff(f) <= 0):
        raise DomainError("f samples must be strictly increasing")
    mid = y[1:-1]
    cand = np.flatnonzero((mid > y[:-2]) & (mid >= y[2:])) + 1
    # drop only where "< min_prominence" holds, so NaN comparisons keep a
    # peak; no valley floor lies below the trace minimum, so the first
    # test only drops peaks the second would
    cand = cand[~(y[cand] - y.min() < min_prominence)]
    cand = cand[~(y[cand] - _valley_floors(y, cand) < min_prominence)]
    peaks = []
    for i in cand.tolist():
        x0, x1, x2 = f[i - 1 : i + 2]
        y0, y1, y2 = y[i - 1 : i + 2]
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        if den == 0.0:
            peaks.append((float(x1), float(y1)))
            continue
        xv = x1 - 0.5 * num / den
        # vertex of the interpolating parabola, clamped to the bracket
        xv = min(max(xv, x0), x2)
        # its height, in Newton form about x1: exact to a few ulps even at
        # GHz abscissae, where a monomial-basis fit is ill-conditioned
        s01 = (y1 - y0) / (x1 - x0)
        c = ((y2 - y1) / (x2 - x1) - s01) / (x2 - x0)
        peaks.append((float(xv), float(y1 + (xv - x1) * (s01 + c * (xv - x0)))))
    return peaks


def extract_ridge(dmap: DensityMap, min_prominence_rel: float = 0.25):
    """Per-column peak positions of a map: arrays (B, f_peak), unlabeled.

    The prominence floor is relative to each column's maximum, so faint
    columns far from a crossing still contribute their ridge.
    """
    if not 0.0 < min_prominence_rel < 1.0:
        raise DomainError("min_prominence_rel must lie in (0, 1)")
    Bs = []
    fs = []
    for i, b in enumerate(dmap.B_axis):
        col = dmap.values[i]
        top = float(col.max())
        if top <= 0.0:
            continue
        for f_peak, _ in find_peaks(dmap.f_axis, col, min_prominence_rel * top):
            Bs.append(float(b))
            fs.append(f_peak)
    return np.array(Bs), np.array(fs)


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

    p, r, it, conv = _lm(resid, np.asarray(initial, dtype=float))
    err = _stderr(resid, p, r, f.size)
    params = {
        "amplitude": (float(p[0]), float(err[0])),
        "f0": (float(p[1]), float(err[1])),
        "fwhm": (abs(float(p[2])), float(err[2])),
        "baseline": (float(p[3]), float(err[3])),
    }
    return FitReport(params, float(np.sqrt(np.mean(r**2))), it, conv)


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


def _two_mode_branches(fc, fm, g):
    mean = 0.5 * (fc + fm)
    half = np.hypot(0.5 * (fc - fm), 0.5 * g)
    return mean - half, mean + half


def fit_two_mode(B, f_peak, initial=None) -> FitReport:
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
    if initial is None:
        fc0, gyro0, o0 = _initial_lines(B, f_peak)
        spread = float(np.ptp(f_peak))
        best = (math.inf, 0.0)
        for g_try in np.linspace(0.0, spread, 33):
            lo, hi = _two_mode_branches(fc0, gyro0 * B + o0, g_try)
            sse = float(np.sum(np.minimum((f_peak - lo) ** 2, (f_peak - hi) ** 2)))
            if sse < best[0]:
                best = (sse, g_try)
        initial = (fc0, gyro0, o0, best[1] ** 2)

    def resid(p):
        fm = p[1] * B + p[2]
        lo, hi = _two_mode_branches(p[0], fm, math.sqrt(abs(p[3])))
        d_lo = f_peak - lo
        d_hi = f_peak - hi
        return np.where(np.abs(d_lo) < np.abs(d_hi), d_lo, d_hi)

    p, r, it, conv = _lm(resid, np.asarray(initial, dtype=float))
    fm = p[1] * B + p[2]
    lo, hi = _two_mode_branches(p[0], fm, math.sqrt(abs(p[3])))
    on_hi = np.abs(f_peak - hi) < np.abs(f_peak - lo)
    if on_hi.all() or (~on_hi).all():
        raise UnidentifiableModelError(
            "ridge touches a single branch; coupling is not identifiable"
        )
    err = _stderr(resid, p, r, B.size)
    g = math.sqrt(abs(p[3]))
    g_err = err[3] / (2.0 * g) if g > 0.0 else math.sqrt(err[3])
    params = {
        "f_c": (float(p[0]), float(err[0])),
        "gyro": (float(p[1]), float(err[1])),
        "offset": (float(p[2]), float(err[2])),
        "g_over_pi": (g, float(g_err)),
    }
    return FitReport(params, float(np.sqrt(np.mean(r**2))), it, conv)


def _three_mode_branches(fc, fmR, fmL, gc, gRL):
    n = fmR.size
    M = np.zeros((n, 3, 3))
    M[:, 0, 0] = fc
    M[:, 1, 1] = fmR
    M[:, 2, 2] = fmL
    M[:, 0, 1] = M[:, 1, 0] = 0.5 * gc
    M[:, 1, 2] = M[:, 2, 1] = 0.5 * gRL
    return np.linalg.eigvalsh(M)


def fit_three_mode(B, f_peak, initial=None) -> FitReport:
    """Fit the chained three-oscillator crossing.

    Parameters (f_c, gyro, offset_r, offset_l, g_c_over_pi, g_rl_over_pi);
    an explicit ``initial`` uses that order with plain (not squared)
    couplings.  The central pass-through branch is recognized
    structurally: columns carrying three or more peaks bracket it, and
    their middle peaks ride the bare magnon line.  Without such columns
    the model degrades to fit_two_mode and says so in the flags.
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

    if initial is None:
        gyro0, o0 = np.polyfit(central_B, central_f, 1)
        fc0 = float(np.median(f_peak))
        # smallest outer gap ~ the on-resonance splitting hypot(gc, gRL)
        gap = float(np.min(outer_gaps))
        initial = (fc0, float(gyro0), float(o0), float(o0), 0.95 * gap, 0.3 * gap)

    def resid(p):
        ev = _three_mode_branches(
            p[0], p[1] * B + p[2], p[1] * B + p[3],
            math.sqrt(abs(p[4])), math.sqrt(abs(p[5])),
        )
        d = f_peak[:, None] - ev
        pick = np.argmin(np.abs(d), axis=1)
        return d[np.arange(d.shape[0]), pick]

    p0 = np.asarray(initial, dtype=float)
    p0[4] = p0[4] ** 2
    p0[5] = p0[5] ** 2
    p, r, it, conv = _lm(resid, p0)
    err = _stderr(resid, p, r, B.size)
    gc = math.sqrt(abs(p[4]))
    gRL = math.sqrt(abs(p[5]))
    params = {
        "f_c": (float(p[0]), float(err[0])),
        "gyro": (float(p[1]), float(err[1])),
        "offset_r": (float(p[2]), float(err[2])),
        "offset_l": (float(p[3]), float(err[3])),
        "g_c_over_pi": (gc, float(err[4] / (2 * gc)) if gc > 0 else float(err[4])),
        "g_rl_over_pi": (gRL, float(err[5] / (2 * gRL)) if gRL > 0 else float(err[5])),
    }
    return FitReport(params, float(np.sqrt(np.mean(r**2))), it, conv)


# ---------------------------------------------------------------------------
# figures of merit


def cooperativity(g_over_pi: float, cavity_fwhm: float, magnon_fwhm: float) -> float:
    """(g/pi)^2 over the product of full linewidths, all in Hz."""
    if cavity_fwhm <= 0.0 or magnon_fwhm <= 0.0:
        raise DomainError("linewidths must be > 0")
    return g_over_pi**2 / (cavity_fwhm * magnon_fwhm)


def spin_count(density: float, diameter: float) -> float:
    """Spins in a sphere: density times pi/6 d^3."""
    if density <= 0.0 or diameter < 0.0:
        raise DomainError("density must be > 0 and diameter >= 0")
    return density * (math.pi / 6.0) * diameter**3


def coupling_per_spin(g_over_pi: float, N: float) -> float:
    """Single-spin vacuum coupling (g/pi/2)/sqrt(N), in Hz."""
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
        "cooperativity_current": cooperativity(g, kappa, gamma) if g > 0 else 0.0,
        "cooperativity_opt": cooperativity(g_opt, kappa_opt, gamma) if g_opt > 0 else 0.0,
        "per_spin_scale": g_opt / g if g > 0 else math.nan,
    }
