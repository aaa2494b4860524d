"""Lumped-element double-post re-entrant cavity and its 2.5-D field model.

The two capacitive posts form an LC pair whose symmetric/antisymmetric
current configurations give a dark mode (parallel currents, field null on
the symmetry axis) and a bright mode (antiparallel currents, field focused
between the posts):

    C = eps0 * eps_r * pi * r_post^2 / gap          (parallel plate)
    L = alpha_L * mu0 * h * ln(R / r_post) / (2 pi)  (coaxial return)
    f0 = 1 / (2 pi sqrt(L C));  f_dark = f0/sqrt(1+k);  f_bright = f0/sqrt(1-k)

alpha_L absorbs the unknown effective return path, k the mutual
inductance; both are calibration constants, not predictions.  In-plane
fields are modeled as two infinite line currents (field uniform over the
height), which is enough for energy ratios like the filling factor and the
geometric factor at the documented factor-level tolerances.

Quadrature note: every map cell stores the mean of |H|^2 over its covered
fraction (subsampled along post and wall circles), so integrals over the
midplane are plain coverage-weighted sums and converge despite the 1/rho
field blowup at the post surface.  A quadrature pass keeps only what
those sums read: each mode's cell energies, the coverage, the mask of
excluded nodes and the coverage-weighted sum over the whole grid.  The
grid is exactly antisymmetric and the posts lie on y = 0, where y enters
the field only through y^2 and the sign of Hx, so a pass computes the
y >= 0 half plane and reflects it: the map is byte for byte the whole
plane's on the same grid, except at a point that lies on a circle to
rounding, where the whole-plane pass can classify the two sides apart.
G's wall and post circles take the line-current field at their own
points.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import CONSTANTS, TWO_PI, DomainError, SphereSample

__all__ = [
    "GeometryError",
    "CavityGeometry",
    "FieldMap",
    "ScanRow",
    "post_capacitance",
    "post_inductance",
    "mode_frequencies",
    "field_map",
    "filling_factor",
    "geometric_factor",
    "surface_resistance",
    "geometry_scan",
]

# Points per circle for the wall and post line integrals entering G.
_N_THETA = 4096

# Field-map cells across the cavity diameter: the default, and the range
# within which the quadrature contracts downstream hold.
RESOLUTION = 257
MIN_RESOLUTION = 64
MAX_RESOLUTION = 2049


class GeometryError(DomainError):
    """Geometry violates a stated dimensional invariant."""


@dataclass(frozen=True)
class CavityGeometry:
    """Double-post re-entrant cavity dimensions and calibration.

    Parameters
    ----------
    cavity_radius, height, post_radius, gap, post_spacing : float
        Dimensions in m; post_spacing is center-to-center.
    eps_r_gap : float
        Relative permittivity of the gap dielectric (default vacuum).
    L_correction : float
        Multiplicative inductance calibration alpha_L (1 = bare coaxial
        formula).
    coupling_k : float
        Mutual-inductance ratio k in [0, 1) splitting dark and bright.
    """

    cavity_radius: float
    height: float
    post_radius: float
    gap: float
    post_spacing: float
    eps_r_gap: float = 1.0
    L_correction: float = 1.0
    coupling_k: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cavity_radius", "height", "post_radius", "gap", "post_spacing"):
            if not getattr(self, name) > 0.0:
                raise GeometryError(f"{name} must be > 0")
        if not self.post_spacing > 2.0 * self.post_radius:
            raise GeometryError("post_spacing must exceed the post diameter")
        if not self.gap < self.height:
            raise GeometryError("gap must be smaller than the cavity height")
        if not self.post_radius < self.cavity_radius:
            raise GeometryError("post_radius must be below cavity_radius")
        if not self.post_spacing + 2.0 * self.post_radius <= 2.0 * self.cavity_radius:
            raise GeometryError("posts must fit inside the cavity wall")
        if not self.eps_r_gap >= 1.0:
            raise GeometryError("eps_r_gap must be >= 1")
        if not self.L_correction > 0.0:
            raise GeometryError("L_correction must be > 0")
        if not 0.0 <= self.coupling_k < 1.0:
            raise GeometryError("coupling_k must lie in [0, 1)")

    @property
    def post_positions(self) -> np.ndarray:
        """Post centers (m), on the x axis, symmetric about the origin."""
        a = 0.5 * self.post_spacing
        return np.array([[-a, 0.0], [a, 0.0]])


def post_capacitance(geometry: CavityGeometry) -> float:
    """Parallel-plate capacitance (F) of one post gap, no fringing."""
    return (
        CONSTANTS.eps0
        * geometry.eps_r_gap
        * math.pi
        * geometry.post_radius**2
        / geometry.gap
    )


def post_inductance(geometry: CavityGeometry) -> float:
    """Calibrated coaxial-return inductance (H) of one post."""
    return (
        geometry.L_correction
        * CONSTANTS.mu0
        * geometry.height
        * math.log(geometry.cavity_radius / geometry.post_radius)
        / TWO_PI
    )


def mode_frequencies(geometry: CavityGeometry) -> tuple[float, float]:
    """(f_dark, f_bright) in Hz from the coupled-LC model."""
    f0 = 1.0 / (TWO_PI * math.sqrt(post_inductance(geometry) * post_capacitance(geometry)))
    return (
        f0 / math.sqrt(1.0 + geometry.coupling_k),
        f0 / math.sqrt(1.0 - geometry.coupling_k),
    )


@dataclass(frozen=True, eq=False)
class FieldMap:
    """Midplane in-plane H field on a uniform cell-center grid.

    The posts carry 1 A each; every figure taken from a map is a ratio of
    integrals of |H|^2, in which the current cancels.  ``energy`` is the
    cell-mean |H|^2 over the covered fraction of each cell and
    ``coverage`` that fraction, which together define all integrals;
    ``energy_sum`` is the sum of their product over the grid.
    ``excluded`` marks node centers inside a post or outside the cavity
    wall.  The node field itself is not kept.

    Maps from ``field_map`` share their arrays: the maps of one in-plane
    geometry hold the same grid, ``excluded`` and ``coverage`` arrays, and
    repeated calls return the same ``energy`` arrays.  The arrays are
    read-only; copy one before changing it.
    """

    xs: np.ndarray
    ys: np.ndarray
    energy: np.ndarray
    coverage: np.ndarray
    excluded: np.ndarray
    energy_sum: float
    mode: str
    geometry: CavityGeometry

    @property
    def cell_area(self) -> float:
        return (self.xs[1] - self.xs[0]) ** 2


_MODE_SIGNS = {"dark": (1.0, 1.0), "bright": (1.0, -1.0)}

# (key, (centers, {mode: (energy, coverage, excluded, energy_sum)})) of
# the last in-plane geometry, or None.  One entry, so scans over gap or
# height reuse one quadrature pass while the arrays of two geometries are
# never held at once.
_last_cells = None


def _check_resolution(resolution) -> int:
    """``resolution`` as an int; DomainError unless an integer in range."""
    if (isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral)
            or not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION):
        raise DomainError(
            f"resolution must be an integer in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]"
        )
    return int(resolution)


def _reflected(half: np.ndarray, n: int) -> np.ndarray:
    """The (n, n) array whose columns from n // 2 on are ``half`` and whose
    column j equals column n - 1 - j."""
    m = n // 2
    full = np.empty((n, n), dtype=half.dtype)
    full[:, m:] = half
    full[:, m - 1::-1] = half[:, n % 2:]
    return full


def _mode_cells(geometry: CavityGeometry, resolution: int):
    """Read-only field cells of both modes for the in-plane geometry."""
    global _last_cells
    key = (geometry.cavity_radius, geometry.post_radius, geometry.post_spacing, resolution)
    last = _last_cells
    if last is not None and last[0] == key:
        return last[1]
    # drop every reference to the old arrays before the new ones exist
    last = _last_cells = None
    R = geometry.cavity_radius
    n = resolution
    dx = 2.0 * R / n
    # exactly antisymmetric: centers[n - 1 - i] == -centers[i]
    centers = (np.arange(n) - 0.5 * (n - 1)) * dx
    half = _kernels.field_cells(centers, centers[n // 2:], geometry.post_positions,
                                list(_MODE_SIGNS.values()), geometry.post_radius, R)
    # coverage and excluded are the same arrays in both modes' rows
    energies = [_reflected(row[0], n) for row in half]
    coverage, excluded = (_reflected(arr, n) for arr in half[0][1:])
    # the half-plane arrays go before the sums below make their temporaries
    del half
    cells = [(energy, coverage, excluded) for energy in energies]
    for arr in (centers, *(a for row in cells for a in row)):
        arr.flags.writeable = False
    # the midplane integral's sum, formed once instead of in every call
    # of filling_factor and geometric_factor
    found = (centers, {mode: (*row, (row[0] * row[1]).sum())
                       for mode, row in zip(_MODE_SIGNS, cells)})
    _last_cells = (key, found)
    return found


def field_map(geometry: CavityGeometry, mode: str, resolution: int = RESOLUTION) -> FieldMap:
    """Two-line-current field map of the chosen cavity mode.

    ``resolution`` counts grid cells across the cavity diameter, an
    integer in [``MIN_RESOLUTION``, ``MAX_RESOLUTION``], the range of the
    quadrature contracts downstream.  The node grid is exactly
    antisymmetric, ``xs == -xs[::-1]``; odd values put a node exactly on
    the inter-post midpoint.  Every array is exactly symmetric in y: the
    y >= 0 columns are computed and the others are their mirror images.
    Both modes of the last in-plane geometry
    (cavity radius, post radius and spacing, resolution) are kept, so
    repeated calls share read-only arrays.
    """
    if mode not in _MODE_SIGNS:
        raise DomainError("mode must be 'dark' or 'bright'")
    centers, cells = _mode_cells(geometry, _check_resolution(resolution))
    energy, coverage, excluded, energy_sum = cells[mode]
    return FieldMap(
        xs=centers,
        ys=centers,
        energy=energy,
        coverage=coverage,
        excluded=excluded,
        energy_sum=energy_sum,
        mode=mode,
        geometry=geometry,
    )


# The perfbench tracer binds each field_map call's arguments through
# inspect.signature, which rebuilds the signature on every call unless
# the function carries one: about 40 us a call with the caches cold after
# a quadrature pass, 46 calls in a design pass, none of it in any span.
field_map.__signature__ = inspect.signature(field_map)


def _midplane_energy_integral(fmap: FieldMap) -> float:
    """Integral of |H|^2 over the midplane domain (A^2/m^2 * m^2)."""
    return float(fmap.energy_sum * fmap.cell_area)


def filling_factor(
    fmap: FieldMap,
    sphere: SphereSample,
    sphere_center: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Fraction of the mode's magnetic energy stored inside the sphere.

    Both integrals ride on the map grid: the sphere volume integral
    weights each midplane cell by its chord length through the sphere,
    the cavity integral by the full height.
    """
    geom = fmap.geometry
    r = sphere.radius
    cx, cy = float(sphere_center[0]), float(sphere_center[1])
    if sphere.diameter > geom.height:
        raise GeometryError("sphere diameter exceeds the cavity height")
    if math.hypot(cx, cy) + r > geom.cavity_radius:
        raise GeometryError("sphere extends beyond the cavity wall")
    for px, py in geom.post_positions:
        if math.hypot(cx - px, cy - py) < r + geom.post_radius:
            raise GeometryError("sphere overlaps a post")

    # the chord is 0 off the sphere's index box; one cell of margin keeps
    # every cell whose rounded distance can fall below r inside the box
    xs, ys = fmap.xs, fmap.ys
    i0 = max(int(np.searchsorted(xs, cx - r)) - 1, 0)
    i1 = int(np.searchsorted(xs, cx + r, side="right")) + 1
    j0 = max(int(np.searchsorted(ys, cy - r)) - 1, 0)
    j1 = int(np.searchsorted(ys, cy + r, side="right")) + 1
    # energy * coverage * chord is +0 off the box; the sum runs over the
    # whole grid so that its rounding is the full grid's
    rho2 = (xs[i0:i1, None] - cx) ** 2 + (ys[None, j0:j1] - cy) ** 2
    box = np.s_[i0:i1, j0:j1]
    weighted = np.zeros(fmap.energy.shape)
    inner = np.multiply(fmap.energy[box], fmap.coverage[box], out=weighted[box])
    inner *= 2.0 * np.sqrt(np.maximum(r * r - rho2, 0.0))
    sphere_integral = float(weighted.sum() * fmap.cell_area)
    cavity_integral = _midplane_energy_integral(fmap) * geom.height
    xi = sphere_integral / cavity_integral
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"filling factor {xi} outside [0, 1]")
    return xi


def _circle_energy(fmap: FieldMap, center: tuple[float, float], radius: float) -> float:
    """Line integral of |H|^2 around a circle (A^2/m^2 * m)."""
    theta = (np.arange(_N_THETA) + 0.5) * (TWO_PI / _N_THETA)
    hx, hy = _kernels.line_fields(center[0] + radius * np.cos(theta),
                                  center[1] + radius * np.sin(theta),
                                  fmap.geometry.post_positions, _MODE_SIGNS[fmap.mode])
    e = hx * hx
    e += hy * hy
    return float(e.sum() * radius * TWO_PI / _N_THETA)


def geometric_factor(fmap: FieldMap) -> float:
    """G = omega0 * mu0 * volume integral / surface integral, in ohm.

    The volume term is the height-weighted midplane energy; the surface
    collects the two end plates, the outer wall, and the post barrels,
    all sampled from the same 2.5-D field.  omega0 is the lumped
    frequency of the map's own mode.
    """
    geometry = fmap.geometry
    f_dark, f_bright = mode_frequencies(geometry)
    f0 = f_dark if fmap.mode == "dark" else f_bright
    area_integral = _midplane_energy_integral(fmap)
    volume = area_integral * geometry.height
    plates = 2.0 * area_integral
    wall = _circle_energy(fmap, (0.0, 0.0), geometry.cavity_radius) * geometry.height
    posts = sum(
        _circle_energy(fmap, (px, py), geometry.post_radius) * geometry.height
        for px, py in geometry.post_positions
    )
    return TWO_PI * f0 * CONSTANTS.mu0 * volume / (plates + wall + posts)


def surface_resistance(G: float, Q: float) -> float:
    """Effective surface resistance (ohm) from G = Q * Rs."""
    if not G > 0.0:
        raise DomainError("G must be > 0")
    if not Q > 0.0:
        raise DomainError("Q must be > 0")
    return G / Q


@dataclass(frozen=True)
class ScanRow:
    """One geometry-scan result; ``error`` holds the message for bad rows."""

    value: float
    f_dark: float = math.nan
    f_bright: float = math.nan
    xi_dark: float = math.nan
    xi_bright: float = math.nan
    error: str | None = None


_SCAN_FIELDS = {"spacing": "post_spacing", "height": "height", "gap": "gap"}


def geometry_scan(
    base: CavityGeometry,
    parameter: str,
    values,
    sphere: SphereSample,
    sphere_center: tuple[float, float] = (0.0, 0.0),
    resolution: int = RESOLUTION,
) -> list[ScanRow]:
    """Re-evaluate frequencies and filling factors along one dimension.

    Invalid rows (geometry invariant violations, sphere collisions) are
    reported in-row and the scan continues; row order follows ``values``.
    """
    if parameter not in _SCAN_FIELDS:
        raise DomainError(f"parameter must be one of {sorted(_SCAN_FIELDS)}")
    resolution = _check_resolution(resolution)
    rows = []
    for v in values:
        try:
            geom = dataclasses.replace(base, **{_SCAN_FIELDS[parameter]: float(v)})
            f_dark, f_bright = mode_frequencies(geom)
            # no map outlives its row: the next row may need new cells
            xi = {
                mode: filling_factor(field_map(geom, mode, resolution=resolution),
                                     sphere, sphere_center)
                for mode in ("dark", "bright")
            }
            rows.append(ScanRow(float(v), f_dark, f_bright, xi["dark"], xi["bright"]))
        except DomainError as exc:
            rows.append(ScanRow(float(v), error=str(exc)))
    return rows
