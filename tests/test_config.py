"""INI reader: every typed number reaches the model in SI units.

The table below is written out by hand, key by key, with the factor
from the key's unit to SI and where the parsed value lives, so a wrong
factor on any key of any fixture shows up as an exact inequality.
"""

import configparser
import re
from pathlib import Path

import pytest

from magcav.config import load_config
from magcav.core import ModeKind

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# (section, key pattern, SI factor or the expected type, parsed value)
_PARSED = [
    ("geometry", "cavity_radius_mm", 1e-3, lambda c, m: c.geometry.cavity_radius),
    ("geometry", "height_mm", 1e-3, lambda c, m: c.geometry.height),
    ("geometry", "post_radius_mm", 1e-3, lambda c, m: c.geometry.post_radius),
    ("geometry", "gap_um", 1e-6, lambda c, m: c.geometry.gap),
    ("geometry", "post_spacing_mm", 1e-3, lambda c, m: c.geometry.post_spacing),
    ("geometry", "eps_r_gap", 1.0, lambda c, m: c.geometry.eps_r_gap),
    ("geometry", "l_correction", 1.0, lambda c, m: c.geometry.L_correction),
    ("geometry", "coupling_k", 1.0, lambda c, m: c.geometry.coupling_k),
    ("geometry", "resolution", int, lambda c, m: c.resolution),
    ("sphere", "diameter_mm", 1e-3, lambda c, m: c.sphere.diameter),
    ("sphere", "mu0_ms_t", 1.0, lambda c, m: c.sphere.mu0_Ms),
    ("sphere", "spin_density_per_cm3", 1e6, lambda c, m: c.sphere.spin_density),
    ("sphere", r"linewidth_([a-z0-9]+)_mhz", 1e6,
     lambda c, m: c.sphere.magnon_linewidths[m[1].upper()]),
    ("model", r"mode(\d+)_kind", ModeKind, lambda c, m: c.model.modes[int(m[1]) - 1].kind),
    ("model", r"mode(\d+)_label", str, lambda c, m: c.model.modes[int(m[1]) - 1].label),
    ("model", r"mode(\d+)_f0_ghz", 1e9, lambda c, m: c.model.modes[int(m[1]) - 1].f0),
    ("model", r"mode(\d+)_linewidth_mhz", 1e6,
     lambda c, m: c.model.modes[int(m[1]) - 1].linewidth),
    ("model", r"mode(\d+)_slope_ghz_per_t", 1e9,
     lambda c, m: c.model.field_slopes[int(m[1]) - 1]),
    ("model", r"coupling_(\d+)_(\d+)_ghz", 1e9,
     lambda c, m: c.model.couplings[int(m[1]) - 1, int(m[2]) - 1]),
    ("ports", "beta1", 1.0, lambda c, m: c.ports.beta1),
    ("ports", "beta2", 1.0, lambda c, m: c.ports.beta2),
    ("grid", "b_start_t", 1.0, lambda c, m: c.b_axis[0]),
    ("grid", "b_stop_t", 1.0, lambda c, m: c.b_axis[-1]),
    ("grid", "b_steps", int, lambda c, m: c.b_axis.size),
    ("grid", "f_start_ghz", 1e9, lambda c, m: c.f_axis[0]),
    ("grid", "f_stop_ghz", 1e9, lambda c, m: c.f_axis[-1]),
    ("grid", "f_steps", int, lambda c, m: c.f_axis.size),
    ("noise", "sigma", 1.0, lambda c, m: c.noise_sigma),
    ("noise", "seed", int, lambda c, m: c.noise_seed),
    ("current", "f_bright_ghz", 1e9, lambda c, m: c.current["f_b"]),
    ("current", "g_over_pi_ghz", 1e9, lambda c, m: c.current["g_over_pi"]),
    ("current", "kappa_mhz", 1e6, lambda c, m: c.current["kappa_b"]),
    ("current", "gamma_mhz", 1e6, lambda c, m: c.current["gamma_m"]),
    ("current", "xi_bright", 1.0, lambda c, m: c.current["xi_b"]),
    ("current", "magnon_slope_ghz_per_t", 1e9, lambda c, m: c.current["magnon_slope"]),
    ("current", "magnon_offset_ghz", 1e9, lambda c, m: c.current["magnon_offset"]),
    ("optimized", "xi_bright", 1.0, lambda c, m: c.optimized["xi_b"]),
    ("optimized", "linewidth_factor", 1.0, lambda c, m: c.optimized["linewidth_factor"]),
    ("report", "bright_g_over_pi_ghz", 1e9, lambda c, m: c.report["bright_g_over_pi"]),
    ("report", "bright_kappa_mhz", 1e6, lambda c, m: c.report["bright_kappa"]),
    ("report", "bright_gamma_mhz", 1e6, lambda c, m: c.report["bright_gamma"]),
    ("report", "dark_g_over_pi_mhz", 1e6, lambda c, m: c.report["dark_g_over_pi"]),
    ("report", "dark_kappa_mhz", 1e6, lambda c, m: c.report["dark_kappa"]),
    ("report", "dark_gamma_mhz", 1e6, lambda c, m: c.report["dark_gamma"]),
    ("report", "f_bright_ghz", 1e9, lambda c, m: c.report["f_bright"]),
    ("report", "f_dark_ghz", 1e9, lambda c, m: c.report["f_dark"]),
    ("report", "xi_bright", 1.0, lambda c, m: c.report["xi_bright"]),
    ("report", "xi_dark", 1.0, lambda c, m: c.report["xi_dark"]),
    ("report", "power_dbm", 1.0, lambda c, m: c.report["power_dbm"]),
    ("report", "photon_f0_ghz", 1e9, lambda c, m: c.report["photon_f0"]),
    ("report", "photon_q", 1.0, lambda c, m: c.report["photon_q"]),
    ("report", "photon_beta", 1.0, lambda c, m: c.report["photon_beta"]),
    ("report", "geometric_factor_ohm", 1.0, lambda c, m: c.report["geometric_factor"]),
    ("report", "q_measured", 1.0, lambda c, m: c.report["q_measured"]),
    ("report", "rs_reference_mohm", 1e-3, lambda c, m: c.report["rs_reference"]),
]

_KINDS = {"cavity-dark": ModeKind.CAVITY_DARK, "cavity-bright": ModeKind.CAVITY_BRIGHT,
          "magnon": ModeKind.MAGNON}


def _expected(unit, typed):
    if unit is int:
        return int(typed)
    if unit is str:
        return typed
    if unit is ModeKind:
        return _KINDS[typed]
    return float(typed) * unit


def _typed_keys(path):
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    return [(name, key, value) for name in parser.sections()
            for key, value in parser.items(name)]


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.ini")))
def test_every_fixture_key_is_scaled_to_si_exactly(fixture):
    cfg = load_config(FIXTURES / fixture)
    keys = _typed_keys(FIXTURES / fixture)
    assert keys
    for section, key, typed in keys:
        rows = [(unit, where, m) for name, pattern, unit, where in _PARSED
                if name == section and (m := re.fullmatch(pattern, key))]
        assert len(rows) == 1, f"[{section}] {key} has no row in the table"
        unit, where, m = rows[0]
        got, want = where(cfg, m), _expected(unit, typed)
        # the same double, not merely close: a wrong factor is off by 1e3
        assert got == want, f"[{section}] {key} = {typed}: {got!r} != {want!r}"


def test_defaults_are_scaled_like_typed_values(tmp_path):
    path = tmp_path / "defaults.ini"
    path.write_text(
        "[geometry]\ncavity_radius_mm = 5\nheight_mm = 1.4\npost_radius_mm = 0.4\n"
        "gap_um = 73\npost_spacing_mm = 2.3\n"
        "[model]\nmode1_kind = cavity-bright\nmode1_f0_ghz = 20.9\n"
        "mode1_linewidth_mhz = 27\n"
        "[ports]\n"
        "[noise]\nsigma = 0\n"
        "[current]\nf_bright_ghz = 20.9\ng_over_pi_ghz = 2.05\nkappa_mhz = 27\n"
        "gamma_mhz = 1.1\nxi_bright = 0.03\n"
        "[optimized]\nxi_bright = 0.2\n"
    )
    cfg = load_config(path)
    geom = cfg.geometry
    assert (geom.eps_r_gap, geom.L_correction, geom.coupling_k) == (1.0, 1.0, 0.0)
    assert cfg.resolution == 257
    assert cfg.model.modes[0].label == ""
    assert cfg.model.field_slopes[0] == 0.0
    assert (cfg.ports.beta1, cfg.ports.beta2) == (0.01, 0.01)
    assert cfg.noise_seed == 0
    assert cfg.current["magnon_slope"] == 28.129 * 1e9
    assert cfg.current["magnon_offset"] == 0.0
    assert cfg.optimized["linewidth_factor"] == 1.0
