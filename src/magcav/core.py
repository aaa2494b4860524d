"""Shared domain types, physical constants, and unit conventions.

Everything downstream stores linear frequencies in Hz; angular quantities
(rad/s) exist only transiently inside solvers, which multiply by
``TWO_PI`` themselves.  :func:`hz_to_angular` / :func:`angular_to_hz`
convert for callers of the library.  Coupling strengths are stored as
the observable normal-mode splitting g/pi (Hz); the half-splitting g/pi/2
that enters coupling matrices is derived, never stored.  Magnetic bias
fields are in tesla.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TWO_PI",
    "DEFAULT_GYRO",
    "DomainError",
    "PhysicalConstants",
    "CONSTANTS",
    "ModeKind",
    "OscillatorMode",
    "CouplingStrength",
    "HybridModel",
    "SphereSample",
    "gyromagnetic_ratio",
    "magnon_frequency",
    "hz_to_angular",
    "angular_to_hz",
]

TWO_PI = 2.0 * math.pi

# Empirical uniform-precession slope (Hz/T) pinning the Kittel line through
# the bright-mode crossing of the copper prototype (20.9 GHz at 0.743 T),
# equivalent to a Lande factor of 2.0098.  Every fit treats the slope as a
# free parameter initialized here.
DEFAULT_GYRO = 28.129e9


class DomainError(ValueError):
    """Input violates a documented physical-domain invariant."""


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 electromagnetic constants, SI units.

    Attributes
    ----------
    mu0 : float
        Vacuum permeability (H/m).
    eps0 : float
        Vacuum permittivity (F/m).
    hbar : float
        Reduced Planck constant (J s).
    muB : float
        Bohr magneton (J/T).
    g_electron : float
        Free-electron Lande factor (dimensionless).
    """

    mu0: float = 1.25663706212e-06
    eps0: float = 8.8541878128e-12
    hbar: float = 1.054571817e-34
    muB: float = 9.2740100783e-24
    g_electron: float = 2.0

    def __post_init__(self) -> None:
        for name in ("mu0", "eps0", "hbar", "muB", "g_electron"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"constant {name} must be strictly positive")

    @property
    def planck(self) -> float:
        """Planck constant h = 2*pi*hbar (J s)."""
        return TWO_PI * self.hbar


CONSTANTS = PhysicalConstants()


class ModeKind(enum.Enum):
    """Role of an oscillator in the hybrid system."""

    CAVITY_DARK = "cavity-dark"
    CAVITY_BRIGHT = "cavity-bright"
    MAGNON = "magnon"

    @property
    def is_cavity(self) -> bool:
        return self is not ModeKind.MAGNON


@dataclass(frozen=True)
class OscillatorMode:
    """One bare harmonic mode of the hybrid system.

    Parameters
    ----------
    f0 : float
        Center frequency in Hz.  For magnon modes this is the zero-field
        intercept of the tuning line (commonly 0 for the uniform mode); for
        cavity modes it must be strictly positive.
    linewidth : float
        Full width at half maximum in Hz, >= 0.
    kind : ModeKind
    label : str
        Free text, e.g. "M1".
    """

    f0: float
    linewidth: float
    kind: ModeKind
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.f0) or not math.isfinite(self.linewidth):
            raise DomainError("mode frequency and linewidth must be finite")
        if self.linewidth < 0.0:
            raise DomainError("linewidth must be >= 0")
        if self.kind.is_cavity:
            if not self.f0 > 0.0:
                raise DomainError("cavity mode frequency must be > 0")
            if not self.linewidth < self.f0:
                raise DomainError("cavity linewidth must be below f0")
        elif self.f0 < 0.0:
            raise DomainError("magnon intercept must be >= 0")


@dataclass(frozen=True)
class CouplingStrength:
    """Mode-mode coupling expressed as the resonant splitting g/pi in Hz."""

    g_over_pi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g_over_pi) and self.g_over_pi >= 0.0):
            raise DomainError("g_over_pi must be finite and >= 0")

    @property
    def half_splitting(self) -> float:
        """Matrix off-diagonal element g/pi/2 (Hz) used by eigensolvers."""
        return 0.5 * self.g_over_pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HybridModel:
    """A set of coupled modes with linear magnetic-field tuning.

    Parameters
    ----------
    modes : tuple of OscillatorMode
    couplings : ndarray
        Symmetric (n, n) matrix of g/pi splittings in Hz, zero diagonal.
    field_slopes : ndarray
        Per-mode tuning slope df/dB in Hz/T; zero for cavity modes.

    The mode frequency at bias B is ``f0 + slope*B``.
    """

    modes: tuple[OscillatorMode, ...]
    couplings: np.ndarray
    field_slopes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        n = len(self.modes)
        if n == 0:
            raise DomainError("model needs at least one mode")
        g = _readonly(self.couplings)
        s = _readonly(self.field_slopes)
        if g.shape != (n, n):
            raise DomainError(f"couplings must be ({n}, {n}), got {g.shape}")
        if s.shape != (n,):
            raise DomainError(f"field_slopes must be ({n},), got {s.shape}")
        if not np.array_equal(g, g.T):
            raise DomainError("coupling matrix must be symmetric")
        if np.any(np.diagonal(g) != 0.0):
            raise DomainError("coupling matrix diagonal must be zero")
        if np.any(g < 0.0) or not np.all(np.isfinite(g)):
            raise DomainError("couplings must be finite and >= 0")
        if not np.all(np.isfinite(s)):
            raise DomainError("field slopes must be finite")
        if not any(m.kind.is_cavity for m in self.modes):
            raise DomainError("at least one cavity mode is required")
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "field_slopes", s)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def linewidths(self) -> np.ndarray:
        return np.array([m.linewidth for m in self.modes])

    @property
    def cavity_index(self) -> int:
        """Index of the first cavity-kind mode (the driven one)."""
        return next(i for i, m in enumerate(self.modes) if m.kind.is_cavity)

    def frequencies_at(self, B) -> np.ndarray:
        """Bare mode frequencies (Hz) at bias field B (T).

        A scalar B gives shape (n_modes,); an array of fields gives one
        row per field, shape ``B.shape + (n_modes,)``.
        """
        f0 = np.array([m.f0 for m in self.modes])
        return f0 + self.field_slopes * np.asarray(B, dtype=float)[..., None]

    def matrix_at(self, B) -> np.ndarray:
        """Symmetric frequency matrix (Hz) at bias B.

        Diagonal holds the bare frequencies, off-diagonals the
        half-splittings g/pi/2; an array B gives ``B.shape + (n, n)``.
        Raises naming the lowest B with a non-positive bare frequency.
        """
        f = self.frequencies_at(B)
        bad = np.any(f <= 0.0, axis=-1)
        if bad.any():
            B = np.min(np.asarray(B)[bad])
            raise DomainError(f"non-positive bare mode frequency at B = {B:.6g} T")
        return 0.5 * self.couplings + f[..., None] * np.eye(self.n_modes)

    def at_field(self, B: float) -> "HybridModel":
        """Snapshot with mode intercepts advanced to the frequencies at B.

        The slopes are kept, so ``at_field(0)`` is an identity and the
        result should be treated as a fixed-bias model.
        """
        freqs = self.frequencies_at(B)
        modes = tuple(
            OscillatorMode(f, m.linewidth, m.kind, m.label)
            for f, m in zip(freqs, self.modes)
        )
        return HybridModel(modes, self.couplings, self.field_slopes)

    @classmethod
    def two_mode(
        cls,
        f_cavity: float,
        cavity_fwhm: float,
        magnon_fwhm: float,
        g_over_pi: float,
        gyro: float = DEFAULT_GYRO,
        magnon_offset: float = 0.0,
        kind: ModeKind = ModeKind.CAVITY_BRIGHT,
    ) -> "HybridModel":
        """Cavity plus one field-tuned magnon line."""
        modes = (
            OscillatorMode(f_cavity, cavity_fwhm, kind),
            OscillatorMode(magnon_offset, magnon_fwhm, ModeKind.MAGNON),
        )
        g = np.array([[0.0, g_over_pi], [g_over_pi, 0.0]])
        return cls(modes, g, np.array([0.0, gyro]))

    @classmethod
    def chain(
        cls,
        f_cavity: float,
        cavity_fwhm: float,
        magnon_fwhm: float,
        gc_over_pi: float,
        gRL_over_pi: float,
        gyro: float = DEFAULT_GYRO,
        offset_r: float = 0.0,
        offset_l: float = 0.0,
        kind: ModeKind = ModeKind.CAVITY_DARK,
    ) -> "HybridModel":
        """Cavity coupled to magnon R, magnon R coupled to magnon L.

        The cavity-L coupling is zero: the L partner is reached only
        through R, which is what makes the central branch a spectator at
        the crossing.
        """
        modes = (
            OscillatorMode(f_cavity, cavity_fwhm, kind),
            OscillatorMode(offset_r, magnon_fwhm, ModeKind.MAGNON, "R"),
            OscillatorMode(offset_l, magnon_fwhm, ModeKind.MAGNON, "L"),
        )
        g = np.array(
            [
                [0.0, gc_over_pi, 0.0],
                [gc_over_pi, 0.0, gRL_over_pi],
                [0.0, gRL_over_pi, 0.0],
            ]
        )
        return cls(modes, g, np.array([0.0, gyro, gyro]))


@dataclass(frozen=True)
class SphereSample:
    """A ferrimagnetic sphere sample.

    Parameters
    ----------
    diameter : float
        Sphere diameter in m.
    mu0_Ms : float
        Saturation magnetization expressed as mu0*M in tesla, in (0, 1).
    spin_density : float
        Spins per m^3.
    magnon_linewidths : dict
        Mode label -> FWHM in Hz.
    """

    diameter: float
    mu0_Ms: float
    spin_density: float
    magnon_linewidths: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.diameter > 0.0:
            raise DomainError("sphere diameter must be > 0")
        if not 0.0 < self.mu0_Ms < 1.0:
            raise DomainError("mu0_Ms must lie in (0, 1) T")
        if not self.spin_density > 0.0:
            raise DomainError("spin density must be > 0")
        object.__setattr__(self, "magnon_linewidths", dict(self.magnon_linewidths))

    @property
    def radius(self) -> float:
        return 0.5 * self.diameter

    @property
    def volume(self) -> float:
        """Sphere volume in m^3."""
        return math.pi * self.diameter**3 / 6.0


def gyromagnetic_ratio(g_factor: float, constants: PhysicalConstants = CONSTANTS) -> float:
    """Electron gyromagnetic ratio in linear-frequency units (Hz/T).

    gamma = g * muB / (2*pi*hbar), i.e. the slope of a free-spin resonance
    line f = gamma*B.  g_factor = 2 gives 27.99 GHz/T.
    """
    if not 0.0 < g_factor < 10.0:
        raise DomainError("g_factor must lie in (0, 10)")
    return g_factor * constants.muB / (TWO_PI * constants.hbar)


def magnon_frequency(B: float, slope: float, offset: float = 0.0) -> float:
    """Linear magnon tuning law f = slope*B + offset (Hz), valid for B >= 0."""
    return slope * B + offset


def hz_to_angular(f):
    """Linear frequency (Hz) to angular frequency (rad/s)."""
    return TWO_PI * np.asarray(f) if isinstance(f, np.ndarray) else TWO_PI * f


def angular_to_hz(omega):
    """Angular frequency (rad/s) to linear frequency (Hz)."""
    return np.asarray(omega) / TWO_PI if isinstance(omega, np.ndarray) else omega / TWO_PI
