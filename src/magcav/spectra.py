"""Transmission synthesis: S21 lines, density maps, noise injection.

The response is the standard input-output form for one driven cavity mode
dressed by loss-laden magnon oscillators.  All rates are linear-frequency
Hz: the loaded cavity linewidth kappa splits as kappa = kappa0 (1 + beta1
+ beta2) into internal and per-port external parts, and

    S21(f) = sqrt(kappa1 kappa2) * [A(f)^-1]_cc,
    A(f)   = Gamma/2 + i (M - f I)

with M the frequency matrix (bare frequencies on the diagonal, g/pi/2 off
it).  ``s21`` (one field) and ``density_map`` (a (B, f) grid, in blocks of
field rows) both evaluate it with ``_kernels.s21_rows``.  For a star of
magnons on the cavity [A^-1]_cc is 1/(i (f_c - f) + kappa/2 + sum of
(g/2)^2 / (i (f_j - f) + gamma_j/2)); chains nest one such fraction per
level, and any other coupling graph is solved as a matrix.

A map is written as long-form CSV (``DensityMap.write_csv``) and as an
8-bit PGM (``DensityMap.write_pgm``), whose gray levels run linearly
from -120 dB to 0 dB.  Each writer converts |S21| to dB a block at a
time, into one reused float buffer, with the one dB formula of
``_to_db``, which ``DensityMap.to_db`` also uses: 20 log10 of |S21|
clipped below at -200 dB.  Neither writer makes a full-size float
temporary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from ._gridcsv import open_output, read_grid_csv, write_grid_csv
from .core import DomainError, HybridModel

__all__ = [
    "SingularResponseError",
    "MapFormatError",
    "PortCouplings",
    "DensityMap",
    "s21",
    "density_map",
    "lorentzian",
    "add_noise",
]


class SingularResponseError(DomainError):
    """The response has no damping to regularize it."""


class MapFormatError(DomainError):
    """A map file's content does not describe a complete (B, f) grid."""


@dataclass(frozen=True)
class PortCouplings:
    """Dimensionless input/output port couplings beta_i = kappa_i/kappa_0."""

    beta1: float = 0.01
    beta2: float = 0.01

    def __post_init__(self) -> None:
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise DomainError("port couplings must be >= 0")
        if not self.beta1 + self.beta2 < 1.0:
            raise DomainError("beta1 + beta2 must stay below 1")

    def external_rates(self, kappa: float) -> tuple[float, float]:
        """(kappa1, kappa2) in Hz given the loaded linewidth kappa."""
        # beta1 + beta2 first, so swapping the ports is bit-for-bit symmetric
        kappa0 = kappa / (1.0 + (self.beta1 + self.beta2))
        return self.beta1 * kappa0, self.beta2 * kappa0

    def amplitude(self, kappa: float) -> float:
        """sqrt(kappa1 kappa2), the transmission numerator (Hz)."""
        k1, k2 = self.external_rates(kappa)
        return math.sqrt(k1 * k2)


def s21(f, model: HybridModel, ports: PortCouplings, B: float = 0.0):
    """Complex transmission at frequency f (Hz), scalar or array.

    The model is evaluated at bias ``B``; the driven and read-out mode is
    the model's cavity mode.  A point where the response matrix is
    singular (a lossless mode exactly on resonance) gives 0.
    """
    kappa = model.modes[model.cavity_index].linewidth
    if kappa <= 0.0:
        raise SingularResponseError("cavity linewidth must be positive")
    out = _kernels.s21_rows(
        model.frequencies_at(B)[None, :],
        0.5 * model.linewidths,
        0.5 * model.couplings,
        model.cavity_index,
        np.ravel(np.asarray(f, dtype=float)),
        ports.amplitude(kappa),
    )
    return out.reshape(np.shape(f))[()]


_MAP_HEADER = "B_T,f_Hz,s21_dB"
# The dB level that |S21| is clipped at, and its amplitude
_DB_FLOOR = -200.0
_TINY = 10.0 ** (_DB_FLOOR / 20.0)
# The PGM's gray levels run linearly between these dB clamps
_PGM_CLAMPS = (-120.0, 0.0)
_PGM_SCALE = 255.0 / (_PGM_CLAMPS[1] - _PGM_CLAMPS[0])


def _to_db(amplitude, out):
    """Write 20 log10 max(amplitude, 10^(_DB_FLOOR / 20)) into ``out``.

    The one place the dB formula is written.
    """
    np.maximum(amplitude, _TINY, out=out)
    np.log10(out, out=out)
    out *= 20.0


@dataclass(frozen=True, eq=False)
class DensityMap:
    """|S21| on a (B, f) grid, linear amplitude, with provenance strings."""

    B_axis: np.ndarray
    f_axis: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "B_axis", np.asarray(self.B_axis, dtype=float))
        object.__setattr__(self, "f_axis", np.asarray(self.f_axis, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.B_axis.size, self.f_axis.size):
            raise DomainError("values must be shaped (len(B_axis), len(f_axis))")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("map values must be finite")
        if np.any(self.values < 0.0):
            raise DomainError("map values are linear amplitudes, >= 0")

    def to_db(self) -> np.ndarray:
        """20 log10 |S21|, clipped below at -200 dB to stay finite.

        The one full-size array made is the result.
        """
        db = np.empty_like(self.values)
        _to_db(self.values, db)
        return db

    def write_csv(self, path) -> None:
        """Long-form rows B_T, f_Hz, s21_dB; B outer loop, f inner.

        The dB cells are converted a block at a time, inside the writer's
        block loop, so no full-size temporary is made.
        """
        write_grid_csv(path, _MAP_HEADER, self.B_axis, self.f_axis, self.values, _to_db)

    @classmethod
    def read_csv(cls, path) -> "DensityMap":
        """Rebuild a map from long-form CSV; each (B, f) cell exactly once.

        Bad content (a first line other than the header B_T,f_Hz,s21_dB
        with an LF or CRLF end, no data rows, non-numeric cells, a
        non-finite field, frequency or amplitude, a wrong column count,
        missing or repeated cells) raises MapFormatError naming the file.

        A file with an LF header and the writer's own layout is read by
        ``read_grid_csv`` from the handle that checked the header; any
        other goes through ``np.loadtxt``, with the same result.
        """
        head = _MAP_HEADER.encode()
        with open(path, "rb") as fh:
            line = fh.readline(len(head) + 2)
            if line not in (head + b"\n", head + b"\r\n"):
                raise MapFormatError(
                    f"{path}: first line {line!r} is not the header {_MAP_HEADER}")
            grid = read_grid_csv(fh) if line == head + b"\n" else None
        if grid is not None:
            return cls._from_db(path, *grid)
        try:
            with warnings.catch_warnings():
                # an empty data section is reported below, not as a warning
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise MapFormatError(f"{path}: {exc}") from None
        if raw.shape[0] == 0:
            raise MapFormatError(f"{path}: no data rows")
        if raw.shape[1] != 3:
            raise MapFormatError(f"{path}: expected three columns: B_T, f_Hz, s21_dB")
        B_axis = np.unique(raw[:, 0])
        f_axis = np.unique(raw[:, 1])
        if not (np.all(np.isfinite(B_axis)) and np.all(np.isfinite(f_axis))):
            raise MapFormatError(f"{path}: B_T and f_Hz must be finite numbers")
        # flat (B, f) cell of every row, marked in a one-byte-per-cell grid
        cell = np.searchsorted(B_axis, raw[:, 0]) * f_axis.size
        cell += np.searchsorted(f_axis, raw[:, 1])
        seen = np.zeros(B_axis.size * f_axis.size, dtype=bool)
        seen[cell] = True
        # as many rows as cells and no cell unseen: each seen exactly once
        if raw.shape[0] != seen.size or not seen.all():
            raise MapFormatError(
                f"{path}: CSV rows do not tile a complete (B, f) grid "
                f"({int(seen.sum())} of {seen.size} cells in {raw.shape[0]} rows)"
            )
        db = np.empty(seen.size)
        db[cell] = raw[:, 2]
        return cls._from_db(path, B_axis, f_axis, db.reshape(B_axis.size, f_axis.size))

    @classmethod
    def _from_db(cls, path, B_axis, f_axis, db) -> "DensityMap":
        """The map of the dB grid ``db``, turned into linear amplitude in
        place (no full-size temporaries); bad content raises
        MapFormatError naming the file."""
        db /= 20.0
        with np.errstate(over="ignore"):  # inf is reported below
            np.power(10.0, db, out=db)
        try:
            return cls(B_axis, f_axis, db, {"source": str(path)})
        except DomainError as exc:
            raise MapFormatError(f"{path}: {exc}") from None

    def write_pgm(self, path) -> None:
        """8-bit binary PGM, row = frequency (ascending), column = field.

        Grayscale is linear in dB between the clamps -120 dB and 0 dB,
        recorded in the header comment; values outside are saturated.
        The file is opened by ``open_output`` once the image is made.

        The image is filled in blocks of whole B rows (``_BLOCK_CELLS``
        cells), each converted to dB in one reused float buffer, so the
        one full-size array made is the image, already in the file's
        layout.
        """
        low, high = _PGM_CLAMPS
        n_B, n_f = self.values.shape
        gray = np.empty((n_f, n_B), dtype=np.uint8)  # row index runs along f
        rows = max(1, _BLOCK_CELLS // max(n_f, 1))
        block = np.empty((min(rows, n_B), n_f))
        for i in range(0, n_B, rows):
            db = block[: min(rows, n_B - i)]
            _to_db(self.values[i:i + rows], db)
            np.clip(db, low, high, out=db)
            db -= low
            db *= _PGM_SCALE
            np.rint(db, out=db)
            gray[:, i:i + rows] = db.T
        header = (
            f"P5\n# dB clamps [{low:g}, {high:g}]\n"
            f"{self.B_axis.size} {self.f_axis.size}\n255\n"
        ).encode("ascii")
        with open_output(path) as fh:
            fh.write(header)
            fh.write(gray)


# Cells per transmission block: whole rows, about 16k cells, so the
# kernel's per-mode complex temporaries stay a few hundred kB.
_BLOCK_CELLS = 1 << 14


def density_map(
    model: HybridModel,
    B_axis,
    f_axis,
    ports: PortCouplings,
    metadata: dict | None = None,
) -> DensityMap:
    """|s21| over the grid, evaluated in blocks of field rows."""
    B_axis = np.asarray(B_axis, dtype=float)
    f_axis = np.asarray(f_axis, dtype=float)
    for name, ax in (("B_axis", B_axis), ("f_axis", f_axis)):
        if ax.ndim != 1 or ax.size == 0:
            raise DomainError(f"{name} must be a nonempty 1-D array")
        if ax.size > 1 and not np.all(np.diff(ax) > 0):
            raise DomainError(f"{name} must be strictly increasing")
    kappa = model.modes[model.cavity_index].linewidth
    if kappa <= 0.0:
        raise SingularResponseError("cavity linewidth must be positive")
    freqs = model.frequencies_at(B_axis)
    args = (0.5 * model.linewidths, 0.5 * model.couplings, model.cavity_index,
            f_axis, ports.amplitude(kappa))
    values = np.empty((B_axis.size, f_axis.size))
    step = max(1, _BLOCK_CELLS // f_axis.size)
    for i in range(0, B_axis.size, step):
        np.abs(_kernels.s21_rows(freqs[i:i + step], *args), out=values[i:i + step])
    meta = {
        "modes": ";".join(
            f"{m.kind.value}:{m.f0:.9e}:{m.linewidth:.9e}" for m in model.modes
        ),
        "beta1": repr(ports.beta1),
        "beta2": repr(ports.beta2),
    }
    if metadata:
        meta.update(metadata)
    return DensityMap(B_axis, f_axis, values, meta)


def lorentzian(f, amplitude, f0, fwhm, baseline=0.0):
    """baseline + amplitude * (w/2)^2 / ((f - f0)^2 + (w/2)^2)."""
    if not fwhm > 0.0:
        raise DomainError("fwhm must be > 0")
    half2 = (0.5 * fwhm) ** 2
    return baseline + amplitude * half2 / ((np.asarray(f, dtype=float) - f0) ** 2 + half2)


def add_noise(dmap: DensityMap, seed: int, sigma: float) -> DensityMap:
    """Seeded Gaussian amplitude noise; magnitudes stay non-negative.

    The counter-based generator makes the draw a pure function of
    (seed, grid shape), independent of threading or platform.
    """
    if sigma < 0.0:
        raise DomainError("sigma must be >= 0")
    if sigma == 0.0:
        return replace(dmap, metadata=dict(dmap.metadata))
    rng = np.random.Generator(np.random.Philox(seed))
    noisy = np.abs(dmap.values + rng.normal(0.0, sigma, dmap.values.shape))
    meta = dict(dmap.metadata)
    meta.update({"noise_sigma": repr(sigma), "noise_seed": str(seed)})
    return DensityMap(dmap.B_axis, dmap.f_axis, noisy, meta)
