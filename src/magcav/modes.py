"""Eigenfrequency solvers for coupled photon-magnon systems.

Matrices live in linear-frequency units (Hz) with half-splitting
off-diagonals g/pi/2, so a resonant two-mode crossing splits by exactly
g/pi.  The rotating-wave solvers diagonalize those matrices directly; the
Bogoliubov solver keeps the counter-rotating coupling terms and is the one
to use once g/pi becomes a noticeable fraction of the mode frequency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DomainError, HybridModel

__all__ = [
    "ModeCollapseError",
    "EigenResult",
    "MinimumSplitting",
    "eigenbranches",
    "rwa_two_mode",
    "rwa_three_mode",
    "bogoliubov_two_mode",
    "dispersion_branches",
    "follow_branches",
    "minimum_splitting",
]


class ModeCollapseError(DomainError):
    """Coupling so strong the lower Bogoliubov branch loses stability."""


@dataclass(frozen=True)
class EigenResult:
    """Eigenfrequencies (Hz, ascending) and bare-mode composition.

    ``weights[..., k, j]`` is the fraction of eigenmode k residing in bare
    mode j; each row sums to 1.  Leading axes, if any, index a stack.
    """

    frequencies: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if np.any(np.diff(f, axis=-1) < 0.0):
            raise DomainError("eigenfrequencies must be sorted ascending")
        if w.shape != f.shape + f.shape[-1:]:
            raise DomainError("weights must be square, one row per eigenmode")
        if np.any(w < -1e-12) or np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9):
            raise DomainError("each weight row must be a unit-sum composition")
        f.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "weights", w)

    @property
    def splitting(self) -> float | np.ndarray:
        """Gap between the two lowest branches (Hz), an array for a stack."""
        return self.frequencies[..., 1] - self.frequencies[..., 0]


def eigenbranches(m, weights=False):
    """Ascending branches (..., n) of symmetric matrices (..., n, n).

    With ``weights`` also returns w (..., n, n), the share w[..., k, j] of
    branch k in bare mode j.  A 2x2 takes the closed form mean -+ s, with
    d = (a - b)/2 and s = hypot(d, h), and an uncoupled one (h = 0) is
    exactly its sorted diagonal; larger ones take batched ``eigvalsh``
    (``eigh`` for weights).  A stacked matrix gives the same bits as on
    its own.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1] == 2:
        a, b, h = m[..., 0, 0], m[..., 1, 1], m[..., 0, 1]
        mean = 0.5 * (a + b)
        d = 0.5 * (a - b)
        s = np.hypot(d, h)
        vals = np.stack([mean - s, mean + s], axis=-1)
        free = h == 0.0
        if free.any():
            vals[free] = np.sort(np.stack([a, b], axis=-1)[free])
        if not weights:
            return vals
        # the upper branch's eigenvector (h, s - d) puts (1 + d/s)/2 on a;
        # a degenerate uncoupled pair keeps the bare order
        c = np.divide(d, s, out=np.full(np.shape(s), -1.0), where=s > 0.0)
        w_hi = np.stack([0.5 + 0.5 * c, 0.5 - 0.5 * c], axis=-1)
        return vals, np.stack([w_hi[..., ::-1], w_hi], axis=-2)
    if not weights:
        return np.linalg.eigvalsh(m)
    vals, vecs = np.linalg.eigh(m)
    return vals, np.swapaxes(vecs, -1, -2) ** 2


def rwa_two_mode(fc: float, fm: float, g_over_pi: float) -> EigenResult:
    """Rotating-wave normal modes of one cavity and one magnon mode.

    f_pm = (fc + fm)/2 +- sqrt(((fc - fm)/2)^2 + (g_over_pi/2)^2); on
    resonance the branch gap equals g_over_pi exactly.
    """
    if not (fc > 0.0 and fm > 0.0):
        raise DomainError("mode frequencies must be > 0")
    if g_over_pi < 0.0:
        raise DomainError("g_over_pi must be >= 0")
    h = 0.5 * g_over_pi
    return EigenResult(*eigenbranches(np.array([[fc, h], [h, fm]]), weights=True))


def rwa_three_mode(
    fc: float, fR: float, fL: float, gc_over_pi: float, gRL_over_pi: float
) -> EigenResult:
    """Normal modes of the cavity - magnon R - magnon L chain.

    The coupling matrix is tridiagonal: the cavity talks only to R, and R
    talks to L.  For the fully degenerate input fc = fR = fL the spectrum
    is (f0 - s, f0, f0 + s) with s = sqrt((gc/2)^2 + (gRL/2)^2); the
    central mode has zero weight on the bridging magnon R and a small
    cavity weight (gRL/2)^2/s^2, which is what keeps the spectator branch
    faintly visible in transmission.  That case is evaluated in closed form
    to dodge eigensolver noise at the triple degeneracy.
    """
    if not (fc > 0.0 and fR > 0.0 and fL > 0.0):
        raise DomainError("mode frequencies must be > 0")
    if gc_over_pi < 0.0 or gRL_over_pi < 0.0:
        raise DomainError("couplings must be >= 0")
    a = 0.5 * gc_over_pi
    b = 0.5 * gRL_over_pi
    if fc == fR == fL:
        s = math.hypot(a, b)
        if s == 0.0:
            return EigenResult(np.full(3, fc), np.eye(3))
        s2 = s * s
        outer = np.array([a * a / (2.0 * s2), 0.5, b * b / (2.0 * s2)])
        central = np.array([b * b / s2, 0.0, a * a / s2])
        return EigenResult(
            np.array([fc - s, fc, fc + s]), np.vstack([outer, central, outer])
        )
    m = np.array([[fc, a, 0.0], [a, fR, b], [0.0, b, fL]])
    return EigenResult(*eigenbranches(m, weights=True))


def bogoliubov_two_mode(fc: float, fm: float, g_over_pi: float) -> EigenResult:
    """Normal modes keeping the counter-rotating coupling terms.

    Solves the quadratic two-oscillator problem with interaction
    g(a + a+)(b + b+), g = pi*g_over_pi in rad/s:

        Omega_pm^2 = (wc^2 + wm^2)/2 +- sqrt((wc^2 - wm^2)^2/4 + 4 g^2 wc wm)

    The pair is asymmetric about (fc + fm)/2, unlike the rotating-wave
    result, and the lower branch softens to zero at g_over_pi =
    sqrt(fc*fm), beyond which the system is unstable.  Arrays of fc and
    fm give a stacked result, one pair per element.
    """
    if not (np.all(fc > 0.0) and np.all(fm > 0.0)):
        raise DomainError("mode frequencies must be > 0")
    if g_over_pi < 0.0:
        raise DomainError("g_over_pi must be >= 0")
    if np.any(g_over_pi >= np.sqrt(fc * fm)):
        raise ModeCollapseError(
            "g_over_pi >= sqrt(fc*fm): lower branch frequency collapses to zero"
        )
    wc, wm = np.broadcast_arrays(TWO_PI * fc, TWO_PI * fm)
    g = math.pi * g_over_pi
    # eigenvalues of the symmetric matrix [[wc^2, h], [h, wm^2]] are Omega^2
    h = 2.0 * g * np.sqrt(wc * wm)
    m = np.moveaxis(np.array([[wc * wc, h], [h, wm * wm]]), (0, 1), (-2, -1))
    omega2, w = eigenbranches(m, weights=True)
    return EigenResult(np.sqrt(omega2) / TWO_PI, w)


def dispersion_branches(model: HybridModel, B_grid) -> list[EigenResult]:
    """Eigenfrequencies of the model at each bias field.

    Magnon modes tune along their field slopes; cavity modes stay put.
    Raises with the lowest offending B attached if a bare frequency is
    driven non-positive.
    """
    B_grid = np.atleast_1d(np.asarray(B_grid, dtype=float))
    if B_grid.size == 0:
        raise DomainError("B grid must be nonempty")
    if np.any(np.diff(B_grid) < 0.0):
        raise DomainError("B grid must be sorted ascending")
    vals, w = eigenbranches(model.matrix_at(B_grid), weights=True)
    return [EigenResult(*res) for res in zip(vals, w)]


def follow_branches(results: list[EigenResult]) -> np.ndarray:
    """Continuity-ordered branch frequencies, shape (nB, n).

    Row 0 is ascending; each later row is permuted to maximize the overlap
    of bare-mode compositions with the previous row, so a branch keeps its
    identity through crossings instead of swapping labels.
    """
    if not results:
        return np.empty((0, 0))
    n = results[0].frequencies.size
    perms = list(itertools.permutations(range(n)))
    out = np.empty((len(results), n))
    out[0] = results[0].frequencies
    prev_w = results[0].weights
    for i, res in enumerate(results[1:], start=1):
        overlap = prev_w @ res.weights.T  # (prev branch, new branch)
        best = max(perms, key=lambda p: sum(overlap[k, p[k]] for k in range(n)))
        out[i] = res.frequencies[list(best)]
        prev_w = res.weights[list(best)]
    return out


@dataclass(frozen=True)
class MinimumSplitting:
    """Location and size of the smallest branch gap over a field range."""

    B: float
    splitting: float
    unimodal: bool


_EPS = float(np.finfo(float).eps)


def _golden(fun, lo: float, hi: float, tol: float, flat_tol: float, noise: float) -> float:
    """Golden-section minimum of a unimodal ``fun`` on [lo, hi].

    Stops once the bracket is below ``tol``, or below ``flat_tol`` with
    the two inner values within ``noise`` of each other.  At a smooth
    minimum the function is flat to rounding on a bracket of about
    sqrt(eps), so later steps would only chase rounding; at a kink it
    is not, and the search goes on to ``tol``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc_, fd_ = fun(c), fun(d)
    while b - a > tol and not (b - a <= flat_tol and abs(fc_ - fd_) <= noise):
        if fc_ < fd_:
            b, d, fd_ = d, c, fc_
            c = b - invphi * (b - a)
            fc_ = fun(c)
        else:
            a, c, fc_ = c, d, fd_
            d = a + invphi * (b - a)
            fd_ = fun(d)
    return 0.5 * (a + b)


def minimum_splitting(
    model: HybridModel,
    B_range: tuple[float, float],
    branches: tuple[int, int] = (0, 1),
    coarse: int = 512,
) -> MinimumSplitting:
    """Locate the avoided-crossing center: min over B of a branch gap.

    A coarse scan checks that the gap is unimodal; if it is, golden-section
    search refines the minimum.  A multi-valley gap (possible for chains
    near degeneracy) falls back to the global minimum of a dense 10^4-point
    scan, flagged with ``unimodal=False``.  Each scan is one batched
    evaluation over its field grid; the refinement evaluates one B at a
    time.  It stops at a bracket of sqrt(eps) * max(|B_hi|, 1), about as
    finely as the gap's rounding fixes a smooth minimum, unless the gap
    still changes there (a kink, as for zero coupling); then it goes on to
    1e-12 * max(|B_hi|, 1).
    """
    lo, hi = float(B_range[0]), float(B_range[1])
    if not hi > lo:
        raise DomainError("B range must satisfy lo < hi")
    i, j = branches

    def gap(B):
        f = eigenbranches(model.matrix_at(B))
        return f[..., j] - f[..., i]

    Bs = np.linspace(lo, hi, coarse)
    f = eigenbranches(model.matrix_at(Bs))
    gaps = f[:, j] - f[:, i]
    interior_min = np.nonzero(
        (gaps[1:-1] < gaps[:-2]) & (gaps[1:-1] <= gaps[2:])
    )[0]
    if interior_min.size > 1:
        Bd = np.linspace(lo, hi, 10_000)
        gd = gap(Bd)
        k = int(np.argmin(gd))
        return MinimumSplitting(float(Bd[k]), float(gd[k]), unimodal=False)
    # one interior minimum, or a monotone gap whose minimum is an endpoint
    k = int(interior_min[0]) + 1 if interior_min.size == 1 else int(np.argmin(gaps))
    a, b = Bs[max(k - 1, 0)], Bs[min(k + 1, coarse - 1)]
    # a gap is a difference of two branches, each rounded to about eps of
    # its size; near a smooth minimum it moves by curvature * dB^2, so B
    # is fixed only to about sqrt(eps) relative
    scale = max(abs(hi), 1.0)
    noise = 4.0 * _EPS * float(np.abs(f[k, [i, j]]).max())
    B_min = _golden(gap, float(a), float(b), tol=1e-12 * scale,
                    flat_tol=math.sqrt(_EPS) * scale, noise=noise)
    return MinimumSplitting(B_min, float(gap(B_min)), unimodal=True)
