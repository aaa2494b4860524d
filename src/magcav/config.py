"""Run configuration for the command-line tools.

Files are INI-style, parsed strictly: unknown sections or keys abort
before any computation, and every numeric key carries its unit in the
name (gap_um, f_start_ghz, b_stop_t), so a value can never be fed to the
model in the wrong scale.  Each tool pulls only the sections it needs;
a missing required section is reported by name.

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
             inputs; see _build_report
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityGeometry
from .core import DomainError, HybridModel, ModeKind, OscillatorMode, SphereSample
from .spectra import PortCouplings

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


_MISSING = object()


class _Section:
    """One config section with typed, consume-on-read access.

    Keys are popped as they are read so that whatever remains at
    ``finish()`` time is by construction unknown and can be rejected
    wholesale.
    """

    def __init__(self, name: str, items):
        self.name = name
        self._items = dict(items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def pull(self, key: str, kind=float, default=_MISSING):
        if key not in self._items:
            if default is _MISSING:
                raise ConfigError(f"[{self.name}] missing required key '{key}'")
            return default
        raw = self._items.pop(key).strip()
        if kind is str:
            return raw
        try:
            if kind is int:
                return int(raw)
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] {key} = {raw!r} is not a valid {kind.__name__}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a finite number")
        return value

    def pull_pattern(self, regex: str):
        """Pop and yield (match, float value) for every key matching regex."""
        pat = re.compile(regex)
        out = []
        for key in sorted(self._items):
            m = pat.fullmatch(key)
            if m is not None:
                out.append((m, self.pull(key)))
        return out

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
    resolution: int = 257
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
            raise ConfigError(f"{self.path}: missing required [{_BLOCKS[name]}] section")
        return value


# attribute -> section a subcommand will name when it is absent
_BLOCKS = {
    "geometry": "geometry",
    "sphere": "sphere",
    "model": "model",
    "b_axis": "grid",
    "f_axis": "grid",
    "current": "current",
    "optimized": "optimized",
    "report": "report",
}

_MODE_KINDS = {
    "cavity-dark": ModeKind.CAVITY_DARK,
    "cavity-bright": ModeKind.CAVITY_BRIGHT,
    "magnon": ModeKind.MAGNON,
}


def _build_geometry(sec: _Section) -> tuple[CavityGeometry, int]:
    geom = CavityGeometry(
        cavity_radius=sec.pull("cavity_radius_mm") * 1e-3,
        height=sec.pull("height_mm") * 1e-3,
        post_radius=sec.pull("post_radius_mm") * 1e-3,
        gap=sec.pull("gap_um") * 1e-6,
        post_spacing=sec.pull("post_spacing_mm") * 1e-3,
        eps_r_gap=sec.pull("eps_r_gap", default=1.0),
        L_correction=sec.pull("l_correction", default=1.0),
        coupling_k=sec.pull("coupling_k", default=0.0),
    )
    resolution = sec.pull("resolution", int, default=257)
    return geom, resolution


def _build_sphere(sec: _Section) -> SphereSample:
    diameter = sec.pull("diameter_mm") * 1e-3
    mu0_Ms = sec.pull("mu0_ms_t")
    density = sec.pull("spin_density_per_cm3") * 1e6
    widths = {
        m.group(1).upper(): v * 1e6
        for m, v in sec.pull_pattern(r"linewidth_([a-z0-9]+)_mhz")
    }
    return SphereSample(diameter, mu0_Ms, density, widths)


def _build_model(sec: _Section) -> HybridModel:
    modes = []
    slopes = []
    idx = 1
    while f"mode{idx}_kind" in sec:
        kind_raw = sec.pull(f"mode{idx}_kind", str)
        if kind_raw not in _MODE_KINDS:
            raise ConfigError(
                f"[model] mode{idx}_kind = {kind_raw!r}; expected one of "
                + ", ".join(sorted(_MODE_KINDS))
            )
        modes.append(
            OscillatorMode(
                f0=sec.pull(f"mode{idx}_f0_ghz") * 1e9,
                linewidth=sec.pull(f"mode{idx}_linewidth_mhz") * 1e6,
                kind=_MODE_KINDS[kind_raw],
                label=sec.pull(f"mode{idx}_label", str, default=""),
            )
        )
        slopes.append(sec.pull(f"mode{idx}_slope_ghz_per_t", default=0.0) * 1e9)
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
        couplings[i - 1, j - 1] = couplings[j - 1, i - 1] = value * 1e9
    return HybridModel(tuple(modes), couplings, np.array(slopes))


def _build_axis(sec: _Section, prefix: str, scale: float) -> np.ndarray:
    start = sec.pull(f"{prefix}_start_{'t' if prefix == 'b' else 'ghz'}") * scale
    stop = sec.pull(f"{prefix}_stop_{'t' if prefix == 'b' else 'ghz'}") * scale
    steps = sec.pull(f"{prefix}_steps", int)
    if steps < 2:
        raise ConfigError(f"[grid] {prefix}_steps must be >= 2")
    if not start < stop:
        raise ConfigError(f"[grid] {prefix}_start must lie below {prefix}_stop")
    return np.linspace(start, stop, steps)


def _build_current(sec: _Section) -> dict:
    return {
        "f_b": sec.pull("f_bright_ghz") * 1e9,
        "g_over_pi": sec.pull("g_over_pi_ghz") * 1e9,
        "kappa_b": sec.pull("kappa_mhz") * 1e6,
        "gamma_m": sec.pull("gamma_mhz") * 1e6,
        "xi_b": sec.pull("xi_bright"),
        "magnon_slope": sec.pull("magnon_slope_ghz_per_t", default=28.129) * 1e9,
        "magnon_offset": sec.pull("magnon_offset_ghz", default=0.0) * 1e9,
    }


def _build_optimized(sec: _Section) -> dict:
    return {
        "xi_b": sec.pull("xi_bright"),
        "linewidth_factor": sec.pull("linewidth_factor", default=1.0),
    }


def _build_report(sec: _Section) -> dict:
    keys = {
        "bright_g_over_pi": ("bright_g_over_pi_ghz", 1e9),
        "bright_kappa": ("bright_kappa_mhz", 1e6),
        "bright_gamma": ("bright_gamma_mhz", 1e6),
        "dark_g_over_pi": ("dark_g_over_pi_mhz", 1e6),
        "dark_kappa": ("dark_kappa_mhz", 1e6),
        "dark_gamma": ("dark_gamma_mhz", 1e6),
        "f_bright": ("f_bright_ghz", 1e9),
        "f_dark": ("f_dark_ghz", 1e9),
        "xi_bright": ("xi_bright", 1.0),
        "xi_dark": ("xi_dark", 1.0),
        "power_dbm": ("power_dbm", 1.0),
        "photon_f0": ("photon_f0_ghz", 1e9),
        "photon_q": ("photon_q", 1.0),
        "photon_beta": ("photon_beta", 1.0),
        "geometric_factor": ("geometric_factor_ohm", 1.0),
        "q_measured": ("q_measured", 1.0),
        "rs_reference": ("rs_reference_mohm", 1e-3),
    }
    rep = {name: sec.pull(key) * scale for name, (key, scale) in keys.items()}
    if not rep["rs_reference"] > 0.0:
        raise ConfigError("[report] rs_reference_mohm must be > 0")
    return rep


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file.

    Raises ConfigError for structural problems (including text that is
    not UTF-8 and numbers that are not finite) and for any physical
    invariant the constructed objects reject; OSError passes through so
    callers can distinguish unreadable files from bad content.
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
            sec = _Section(name, parser.items(name))
            if name == "geometry":
                fields["geometry"], fields["resolution"] = _build_geometry(sec)
            elif name == "sphere":
                fields["sphere"] = _build_sphere(sec)
            elif name == "model":
                fields["model"] = _build_model(sec)
            elif name == "ports":
                fields["ports"] = PortCouplings(
                    sec.pull("beta1", default=0.01), sec.pull("beta2", default=0.01)
                )
            elif name == "grid":
                fields["b_axis"] = _build_axis(sec, "b", 1.0)
                fields["f_axis"] = _build_axis(sec, "f", 1e9)
            elif name == "noise":
                sigma = sec.pull("sigma")
                if sigma < 0.0:
                    raise ConfigError("[noise] sigma must be >= 0")
                fields["noise_sigma"] = sigma
                fields["noise_seed"] = sec.pull("seed", int, default=0)
            elif name == "current":
                fields["current"] = _build_current(sec)
            elif name == "optimized":
                fields["optimized"] = _build_optimized(sec)
            elif name == "report":
                fields["report"] = _build_report(sec)
            else:
                raise ConfigError(f"{path}: unknown section [{name}]")
            sec.finish()
    except DomainError as exc:
        # invariant violations become config errors but keep the message
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig(**fields)
