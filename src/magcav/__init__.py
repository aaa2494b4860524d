"""Microwave cavity magnonics toolkit.

Models hybrid photon-magnon systems built from multi-post re-entrant
cavities and ferrimagnetic spheres: coupled-mode spectra, calibrated
lumped-element cavity design, transmission-map synthesis, avoided-crossing
fits, and the derived figures of merit.
"""

from .core import (
    CONSTANTS,
    DEFAULT_GYRO,
    TWO_PI,
    CouplingStrength,
    DomainError,
    HybridModel,
    ModeKind,
    OscillatorMode,
    PhysicalConstants,
    SphereSample,
    angular_to_hz,
    gyromagnetic_ratio,
    hz_to_angular,
    magnon_frequency,
)
from .modes import (
    EigenResult,
    MinimumSplitting,
    ModeCollapseError,
    bogoliubov_two_mode,
    dispersion_branches,
    eigenbranches,
    follow_branches,
    minimum_splitting,
    rwa_three_mode,
    rwa_two_mode,
)
from .walker import (
    UnderdeterminedError,
    WalkerFit,
    WalkerMode,
    fit_gyro_and_Ms,
    walker_frequency,
    walker_offset,
)
from .cavity import (
    CavityGeometry,
    FieldMap,
    GeometryError,
    ScanRow,
    field_map,
    filling_factor,
    geometric_factor,
    geometry_scan,
    mode_frequencies,
    post_capacitance,
    post_inductance,
    surface_resistance,
)
from .spectra import (
    DensityMap,
    MapFormatError,
    PortCouplings,
    SingularResponseError,
    add_noise,
    density_map,
    lorentzian,
    s21,
)
from .estimators import (
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
from .config import ConfigError, RunConfig, load_config
from . import presets

__version__ = "0.1.0"
