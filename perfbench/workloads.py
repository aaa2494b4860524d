"""Workload definitions: generated inputs and the command list of a pass.

A pass is one run through a workload's command list, as a user session
would type it.  Every input the program sees is written here from the
workload seed; nothing is read from the repository's fixtures, so a
change to a fixture cannot change what the benchmark measures.

Why these workloads:

- ``synthesize`` is the write path: two transmission maps and a
  predicted map, about 23 MB of CSV per pass.  Nothing is fitted.
- ``analyze`` is the read path of the same CSV format plus ridge
  extraction and the crossing fits.  The noisy bright map has about 130
  local maxima per column and the noiseless dark map about 2, which
  bracket the cost of peak picking.  Nothing is written.  Its bright map
  carries one fixed noise realization (``DEFAULT_SEED``) whatever the
  workload seed: the two-mode fit stops without converging (exit 1) on
  about 7% of noise realizations, and a workload must be one on which
  no command fails.  Its inputs therefore do not depend on the seed.
- ``design`` is field-map quadrature and filling factors with no map
  files.  The gap scan repeats 2 distinct in-plane geometries over 22
  field maps; the spacing scan repeats none.
"""

from __future__ import annotations

import os

DEFAULT_SEED = 20260817

# Each value is (label, argv); paths are relative to the work directory.
WORKLOADS = {
    "synthesize": [
        ("spectrum_bright", ["spectrum", "bright.ini", "-o", "out/bright"]),
        ("spectrum_dark", ["spectrum", "dark.ini", "-o", "out/dark"]),
        ("predict_map", ["predict", "prediction.ini", "--map", "out/prediction"]),
    ],
    "analyze": [
        ("fit_two_mode", ["fit", "maps/bright.csv", "--kind", "two-mode"]),
        ("fit_three_mode",
         ["fit", "maps/dark.csv", "--kind", "three-mode", "--prominence", "0.02"]),
    ],
    "design": [
        ("cavity", ["cavity", "cavity.ini"]),
        ("scan_gap",
         ["cavity", "cavity.ini", "--scan", "gap", "--start", "10", "--stop", "150"]),
        ("scan_spacing",
         ["cavity", "cavity.ini", "--scan", "spacing", "--start", "1.8", "--stop", "3.6"]),
        ("report", ["report", "cavity.ini"]),
    ],
}

# Commands whose output depends on the seed; the others are compared with
# the reference fingerprints on every seed.
SEEDED = {"spectrum_bright"}

# Map outputs: label -> (output prefix, grid section name)
MAP_OUTPUTS = {
    "spectrum_bright": ("out/bright", "bright"),
    "spectrum_dark": ("out/dark", "dark"),
    "predict_map": ("out/prediction", "prediction"),
}

# Fit inputs: label -> (map prefix, grid, command whose reference map it is)
FIT_INPUTS = {
    "fit_two_mode": ("maps/bright", "bright", "spectrum_bright"),
    "fit_three_mode": ("maps/dark", "dark", "spectrum_dark"),
}

GRIDS = {
    # (b_start_t, b_stop_t, b_steps, f_start_ghz, f_stop_ghz, f_steps)
    "bright": (0.60, 0.89, 200, 18.9, 22.9, 400),
    "dark": (0.450, 0.492, 220, 13.65, 14.15, 1500),
    "prediction": (0.40, 1.10, 120, 10.0, 32.0, 500),
}


def _grid(name: str) -> str:
    b0, b1, nb, f0, f1, nf = GRIDS[name]
    return (
        f"[grid]\nb_start_t = {b0}\nb_stop_t = {b1}\nb_steps = {nb}\n"
        f"f_start_ghz = {f0}\nf_stop_ghz = {f1}\nf_steps = {nf}\n"
    )


def bright_ini(seed: int) -> str:
    """Bright-mode crossing, g/pi = 2.05 GHz, noise seeded by ``seed``."""
    return (
        "[model]\n"
        "mode1_kind = cavity-bright\nmode1_f0_ghz = 20.9\nmode1_linewidth_mhz = 27\n"
        "mode2_kind = magnon\nmode2_f0_ghz = 0\nmode2_linewidth_mhz = 1.1\n"
        "mode2_slope_ghz_per_t = 28.129\ncoupling_1_2_ghz = 2.05\n\n"
        "[ports]\nbeta1 = 0.01\nbeta2 = 0.01\n\n"
        + _grid("bright")
        + f"\n[noise]\nsigma = 1e-3\nseed = {seed}\n"
    )


DARK_INI = (
    "# cavity -- R -- L chain: g_c/pi = 143 MHz, g_RL/pi = 12.5 MHz, noiseless\n"
    "[model]\n"
    "mode1_kind = cavity-dark\nmode1_f0_ghz = 13.9\nmode1_linewidth_mhz = 33\n"
    "mode2_kind = magnon\nmode2_label = R\nmode2_f0_ghz = 0.651241\n"
    "mode2_linewidth_mhz = 1.2\nmode2_slope_ghz_per_t = 28.129\n"
    "mode3_kind = magnon\nmode3_label = L\nmode3_f0_ghz = 0.651241\n"
    "mode3_linewidth_mhz = 1.2\nmode3_slope_ghz_per_t = 28.129\n"
    "coupling_1_2_ghz = 0.143\ncoupling_2_3_ghz = 0.0125\n\n"
    "[ports]\nbeta1 = 0.01\nbeta2 = 0.01\n\n"
    + _grid("dark")
)

PREDICTION_INI = (
    "[current]\n"
    "f_bright_ghz = 20.9\ng_over_pi_ghz = 2.05\nkappa_mhz = 27\ngamma_mhz = 1.1\n"
    "xi_bright = 0.03\nmagnon_slope_ghz_per_t = 28.129\nmagnon_offset_ghz = 0\n\n"
    "[optimized]\nxi_bright = 0.2\nlinewidth_factor = 12\n\n"
    + _grid("prediction")
)

CAVITY_INI = (
    "# copper double-post cavity, calibrated to the (13.75, 20.6) GHz mode pair\n"
    "[geometry]\n"
    "cavity_radius_mm = 5\nheight_mm = 1.4\npost_radius_mm = 0.4\ngap_um = 73\n"
    "post_spacing_mm = 2.3\neps_r_gap = 1.0\nl_correction = 2.248\n"
    "coupling_k = 0.383\nresolution = 257\n\n"
    "[sphere]\n"
    "diameter_mm = 0.8\nmu0_ms_t = 0.255\nspin_density_per_cm3 = 2.1e22\n"
    "linewidth_m1_mhz = 1.1\nlinewidth_m2_mhz = 0.76\nlinewidth_m3_mhz = 1.2\n\n"
    "[report]\n"
    "bright_g_over_pi_ghz = 2.05\nbright_kappa_mhz = 27\nbright_gamma_mhz = 1.1\n"
    "dark_g_over_pi_mhz = 143\ndark_kappa_mhz = 33\ndark_gamma_mhz = 1.2\n"
    "f_bright_ghz = 20.6\nf_dark_ghz = 13.75\nxi_bright = 3e-2\nxi_dark = 3e-4\n"
    "power_dbm = -90\nphoton_f0_ghz = 20.9\nphoton_q = 714\nphoton_beta = 0.01\n"
    "geometric_factor_ohm = 51\nq_measured = 520\nrs_reference_mohm = 76\n"
)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def write_configs(workdir: str, seed: int) -> None:
    """Write every INI input of every workload into ``workdir``."""
    for sub in ("out", "maps"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    _write(os.path.join(workdir, "bright.ini"), bright_ini(seed))
    _write(os.path.join(workdir, "bright_fixed.ini"), bright_ini(DEFAULT_SEED))
    _write(os.path.join(workdir, "dark.ini"), DARK_INI)
    _write(os.path.join(workdir, "prediction.ini"), PREDICTION_INI)
    _write(os.path.join(workdir, "cavity.ini"), CAVITY_INI)


# The analyze maps are made by the program's own spectrum command, in a
# process of their own, before the workload process starts.  The bright
# one is the reference map of the default seed on every workload seed.
MAP_INPUTS = [
    ["spectrum", "bright_fixed.ini", "-o", "maps/bright"],
    ["spectrum", "dark.ini", "-o", "maps/dark"],
]
