"""Magnetostatic (Walker) mode frequencies of a magnetized sphere.

Only the m = n branch with the lowest radial solution is implemented; its
frequency is linear in both the bias field and the saturation
magnetization,

    f_m = gyro * (B + mu0_Ms * c_m),    c_m = m/(2m + 1) - 1/3,

with c_1 = 0 (the uniform Kittel precession, whose frequency is blind to
the sphere's own magnetization) and c_m increasing toward 1/6.  Fitting a
set of observed crossings on different branches therefore separates the
gyromagnetic slope from mu0*Ms by plain linear least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError

__all__ = [
    "UnderdeterminedError",
    "WalkerFit",
    "walker_offset",
    "walker_frequency",
    "fit_gyro_and_Ms",
]


class UnderdeterminedError(DomainError):
    """The crossing set cannot separate the fit parameters."""


def walker_offset(m: int) -> float:
    """Dimensionless magnetization offset c_m of the (m, m) branch."""
    if int(m) != m or m < 1:
        raise DomainError("branch index m must be an integer >= 1")
    return m / (2.0 * m + 1.0) - 1.0 / 3.0


def walker_frequency(m: int, B: float, mu0_Ms: float, gyro: float) -> float:
    """Frequency (Hz) of the (m, m) mode at bias B (T).

    mu0_Ms is the saturation magnetization as mu0*M in tesla; gyro the
    slope in Hz/T.
    """
    return gyro * (B + mu0_Ms * walker_offset(m))


@dataclass(frozen=True)
class WalkerFit:
    """Linear fit of crossings to f = gyro*B + gyro*mu0_Ms*c_m."""

    gyro: float
    mu0_Ms: float
    residual_rms: float


def fit_gyro_and_Ms(crossings) -> WalkerFit:
    """Least-squares (gyro, mu0_Ms) from observed mode crossings.

    Parameters
    ----------
    crossings : iterable of (m, B, f)
        Branch index, bias field (T), and frequency (Hz) of each observed
        crossing.

    The model is linear in (gyro, gyro*mu0_Ms) with regressors (B, c_m).
    A set containing only c_m = 0 branches (all Kittel points) still
    determines the slope; mu0_Ms is then reported as 0.  Any other rank
    deficiency (e.g. duplicated points) raises UnderdeterminedError.
    """
    rows = [(int(m), float(B), float(f)) for m, B, f in crossings]
    if len(rows) < 2:
        raise UnderdeterminedError("need at least two crossings")
    c = np.array([walker_offset(m) for m, _, _ in rows])
    B = np.array([b for _, b, _ in rows])
    f = np.array([fr for _, _, fr in rows])

    if np.all(c == 0.0):
        # pure Kittel data: slope through the origin, no Ms information
        if np.all(B == 0.0):
            raise UnderdeterminedError("all crossings at zero field")
        gyro = float(B @ f / (B @ B))
        resid = f - gyro * B
        return WalkerFit(gyro, 0.0, float(np.sqrt(np.mean(resid**2))))

    A = np.column_stack([B, c])
    if np.linalg.matrix_rank(A) < 2:
        raise UnderdeterminedError(
            "crossings do not separate gyro from mu0_Ms (rank-deficient design)"
        )
    (gyro, gms), res, _, _ = np.linalg.lstsq(A, f, rcond=None)
    resid = f - A @ np.array([gyro, gms])
    if gyro <= 0.0:
        raise UnderdeterminedError("fitted slope is non-positive")
    return WalkerFit(
        float(gyro), float(gms / gyro), float(np.sqrt(np.mean(resid**2)))
    )
