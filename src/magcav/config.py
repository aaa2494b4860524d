"""Run configuration for the command-line tools.

Files are INI-style, parsed strictly: unknown sections or keys abort
before any computation.  A numeric key's unit suffix alone decides its
factor to SI (``_UNITS``); other keys are dimensionless.  A number must
be finite once scaled, and counts are bounded where they are read, before
any grid is allocated.  Each tool pulls only the sections it needs; a
missing required section is reported by name.

Sections:

[geometry]   cavity_radius_mm, height_mm, post_radius_mm, gap_um,
             post_spacing_mm, eps_r_gap, l_correction, coupling_k,
             resolution
[sphere]     diameter_mm, mu0_ms_t, spin_density_per_cm3,
             linewidth_<label>_mhz ...
[model]      mode<N>_kind, mode<N>_f0_ghz, mode<N>_linewidth_mhz,
             mode<N>_slope_ghz_per_t, mode<N>_label,
             coupling_<i>_<j>_ghz (g/pi splitting between modes i and j)
[ports]      beta1, beta2
[grid]       b_start_t, b_stop_t, b_steps, f_start_ghz, f_stop_ghz, f_steps
[noise]      sigma, seed
[current]    f_bright_ghz, g_over_pi_ghz, kappa_mhz, gamma_mhz, xi_bright,
             magnon_slope_ghz_per_t, magnon_offset_ghz
[optimized]  xi_bright, linewidth_factor
[report]     bright/dark line parameters plus photon and surface-loss
             inputs; see _REPORT_KEYS
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._gridcsv import FORMAT
from .cavity import MAX_RESOLUTION, MIN_RESOLUTION, RESOLUTION, CavityGeometry
from .core import DomainError, HybridModel, ModeKind, OscillatorMode, SphereSample
from .spectra import PortCouplings

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


_MISSING = object()

# unit suffix -> factor to SI; a key takes the first suffix it ends with,
# so longer suffixes come first
_UNITS = {
    "_ghz_per_t": 1e9, "_per_cm3": 1e6, "_mohm": 1e-3, "_ohm": 1.0,
    "_ghz": 1e9, "_mhz": 1e6, "_mm": 1e-3, "_um": 1e-6, "_t": 1.0,
}

_MAX_CELLS = 2**22  # b_steps * f_steps


def _unit(key: str) -> tuple[str, float]:
    """The key without its unit suffix, and that suffix's factor to SI."""
    for suffix, factor in _UNITS.items():
        if key.endswith(suffix):
            return key[: -len(suffix)], factor
    return key, 1.0


class _Section:
    """One config section with consume-on-read access.

    Keys are popped as they are read so that whatever remains at
    ``finish()`` time is by construction unknown and can be rejected
    wholesale.
    """

    def __init__(self, name: str, items):
        self.name = name
        self._items = dict(items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def text(self, key: str, default=_MISSING):
        if key in self._items:
            return self._items.pop(key).strip()
        if default is _MISSING:
            raise ConfigError(f"[{self.name}] missing required key '{key}'")
        return default

    def pull(self, key: str, default=_MISSING) -> float:
        """The number under ``key`` in SI units; ``default`` is in the typed unit."""
        raw = self.text(key, default)
        try:
            value = float(raw) * _unit(key)[1]
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a valid float") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} does not give a finite SI value")
        return value

    def count(self, key: str, lo: int, hi: float = math.inf, default=_MISSING) -> int:
        raw = self.text(key, default)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a valid int") from None
        if not lo <= value <= hi:
            bound = f"be >= {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
            raise ConfigError(f"[{self.name}] {key} = {value} must {bound}")
        return value

    def pull_pattern(self, regex: str):
        """Pop and yield (match, SI value) for every key matching regex."""
        pat = re.compile(regex)
        return [(m, self.pull(key)) for key in sorted(self._items)
                if (m := pat.fullmatch(key)) is not None]

    def finish(self) -> None:
        if self._items:
            raise ConfigError(
                f"[{self.name}] unknown key(s): {', '.join(sorted(self._items))}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; sections absent from the file hold None."""

    path: str
    geometry: CavityGeometry | None = None
    resolution: int = RESOLUTION
    sphere: SphereSample | None = None
    model: HybridModel | None = None
    ports: PortCouplings = field(default_factory=PortCouplings)
    b_axis: np.ndarray | None = None
    f_axis: np.ndarray | None = None
    noise_sigma: float = 0.0
    noise_seed: int = 0
    current: dict | None = None
    optimized: dict | None = None
    report: dict | None = None

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            section = "grid" if name in ("b_axis", "f_axis") else name
            raise ConfigError(f"{self.path}: missing required [{section}] section")
        return value


_MODE_KINDS = {
    "cavity-dark": ModeKind.CAVITY_DARK,
    "cavity-bright": ModeKind.CAVITY_BRIGHT,
    "magnon": ModeKind.MAGNON,
}


def _geometry(sec: _Section) -> dict:
    geom = CavityGeometry(
        cavity_radius=sec.pull("cavity_radius_mm"),
        height=sec.pull("height_mm"),
        post_radius=sec.pull("post_radius_mm"),
        gap=sec.pull("gap_um"),
        post_spacing=sec.pull("post_spacing_mm"),
        eps_r_gap=sec.pull("eps_r_gap", default=1.0),
        L_correction=sec.pull("l_correction", default=1.0),
        coupling_k=sec.pull("coupling_k", default=0.0),
    )
    resolution = sec.count("resolution", MIN_RESOLUTION, MAX_RESOLUTION, default=RESOLUTION)
    return {"geometry": geom, "resolution": resolution}


def _sphere(sec: _Section) -> dict:
    diameter = sec.pull("diameter_mm")
    mu0_Ms = sec.pull("mu0_ms_t")
    density = sec.pull("spin_density_per_cm3")
    widths = {m.group(1).upper(): v for m, v in sec.pull_pattern(r"linewidth_([a-z0-9]+)_mhz")}
    return {"sphere": SphereSample(diameter, mu0_Ms, density, widths)}


def _model(sec: _Section) -> dict:
    modes = []
    slopes = []
    idx = 1
    while f"mode{idx}_kind" in sec:
        kind_raw = sec.text(f"mode{idx}_kind")
        if kind_raw not in _MODE_KINDS:
            raise ConfigError(
                f"[model] mode{idx}_kind = {kind_raw!r}; expected one of "
                + ", ".join(sorted(_MODE_KINDS))
            )
        modes.append(
            OscillatorMode(
                f0=sec.pull(f"mode{idx}_f0_ghz"),
                linewidth=sec.pull(f"mode{idx}_linewidth_mhz"),
                kind=_MODE_KINDS[kind_raw],
                label=sec.text(f"mode{idx}_label", default=""),
            )
        )
        slopes.append(sec.pull(f"mode{idx}_slope_ghz_per_t", default=0.0))
        idx += 1
    if not modes:
        raise ConfigError("[model] defines no modes; expected mode1_kind, ...")
    n = len(modes)
    couplings = np.zeros((n, n))
    for m, value in sec.pull_pattern(r"coupling_(\d+)_(\d+)_ghz"):
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i < j <= n):
            raise ConfigError(
                f"[model] {m.group(0)}: indices must satisfy 1 <= i < j <= {n}"
            )
        couplings[i - 1, j - 1] = couplings[j - 1, i - 1] = value
    return {"model": HybridModel(tuple(modes), couplings, np.array(slopes))}


def _ports(sec: _Section) -> dict:
    return {"ports": PortCouplings(sec.pull("beta1", default=0.01),
                                   sec.pull("beta2", default=0.01))}


def _axis(sec: _Section, start_key: str, stop_key: str, steps_key: str) -> tuple:
    start, stop, steps = sec.pull(start_key), sec.pull(stop_key), sec.count(steps_key, 2)
    if not start < stop:
        raise ConfigError(f"[grid] {start_key} must lie below {stop_key}")
    if not math.isfinite(stop - start):
        raise ConfigError(f"[grid] {stop_key} - {start_key} is not finite")
    return start, stop, steps


def _written_axis(steps_key: str, start: float, stop: float, steps: int) -> np.ndarray:
    """The axis, if it stays strictly increasing as map files write it."""
    axis = np.linspace(start, stop, steps)
    # FORMAT moves a value by at most half a unit u of its tenth significant
    # digit, so neighbours more than u apart stay apart once written.  The
    # screen allows 100 u, as log10 may misjudge the decade by one; only the
    # neighbours it keeps are formatted.
    with np.errstate(divide="ignore"):
        decade = np.floor(np.log10(np.maximum(abs(axis[:-1]), abs(axis[1:]))))
    close = np.flatnonzero(np.diff(axis) <= 100.0 * 10.0 ** (decade - 9))
    if any(not float(FORMAT % axis[i]) < float(FORMAT % axis[i + 1]) for i in close.tolist()):
        raise ConfigError(
            f"[grid] {steps_key} = {steps} makes steps finer than the ten "
            f"significant digits ({FORMAT}) of a map file"
        )
    return axis


def _grid(sec: _Section) -> dict:
    b = _axis(sec, "b_start_t", "b_stop_t", "b_steps")
    f = _axis(sec, "f_start_ghz", "f_stop_ghz", "f_steps")
    if b[2] * f[2] > _MAX_CELLS:
        raise ConfigError(f"[grid] b_steps * f_steps = {b[2] * f[2]} exceeds {_MAX_CELLS} cells")
    return {"b_axis": _written_axis("b_steps", *b), "f_axis": _written_axis("f_steps", *f)}


def _noise(sec: _Section) -> dict:
    sigma = sec.pull("sigma")
    if sigma < 0.0:
        raise ConfigError("[noise] sigma must be >= 0")
    return {"noise_sigma": sigma, "noise_seed": sec.count("seed", 0, default=0)}


def _current(sec: _Section) -> dict:
    return {"current": {
        "f_b": sec.pull("f_bright_ghz"),
        "g_over_pi": sec.pull("g_over_pi_ghz"),
        "kappa_b": sec.pull("kappa_mhz"),
        "gamma_m": sec.pull("gamma_mhz"),
        "xi_b": sec.pull("xi_bright"),
        "magnon_slope": sec.pull("magnon_slope_ghz_per_t", default=28.129),
        "magnon_offset": sec.pull("magnon_offset_ghz", default=0.0),
    }}


def _optimized(sec: _Section) -> dict:
    return {"optimized": {
        "xi_b": sec.pull("xi_bright"),
        "linewidth_factor": sec.pull("linewidth_factor", default=1.0),
    }}


# each report value is named after its key without the unit suffix
_REPORT_KEYS = (
    "bright_g_over_pi_ghz", "bright_kappa_mhz", "bright_gamma_mhz", "dark_g_over_pi_mhz",
    "dark_kappa_mhz", "dark_gamma_mhz", "f_bright_ghz", "f_dark_ghz", "xi_bright",
    "xi_dark", "power_dbm", "photon_f0_ghz", "photon_q", "photon_beta",
    "geometric_factor_ohm", "q_measured", "rs_reference_mohm",
)


def _report(sec: _Section) -> dict:
    rep = {_unit(key)[0]: sec.pull(key) for key in _REPORT_KEYS}
    if not rep["rs_reference"] > 0.0:
        raise ConfigError("[report] rs_reference_mohm must be > 0")
    return {"report": rep}


# section name -> builder of its RunConfig fields
_SECTIONS = {
    "geometry": _geometry, "sphere": _sphere, "model": _model, "ports": _ports,
    "grid": _grid, "noise": _noise, "current": _current, "optimized": _optimized,
    "report": _report,
}


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file.

    Raises ConfigError for structural problems (text that is not UTF-8,
    numbers not finite in SI units, counts out of bounds) and for any
    physical invariant the constructed objects reject; OSError passes
    through so callers can distinguish unreadable files from bad content.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if parser.defaults():
        raise ConfigError(f"{path}: keys outside a named section are not allowed")

    fields: dict = {"path": str(path)}
    try:
        for name in parser.sections():
            if name not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section [{name}]")
            sec = _Section(name, parser.items(name))
            fields.update(_SECTIONS[name](sec))
            sec.finish()
    except DomainError as exc:
        # invariant violations become config errors but keep the message
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig(**fields)
