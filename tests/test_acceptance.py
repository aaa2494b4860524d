"""Acceptance gate: ten end-to-end criteria at stated tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so a red run still reports every
criterion's standing.  Criteria 1, 2 and 9 drive the command-line tools
on the shipped fixtures; the rest exercise the library directly.
"""

import math
from pathlib import Path

import numpy as np

import oracles
from magcav.cavity import (
    field_map,
    filling_factor,
    geometric_factor,
    geometry_scan,
    mode_frequencies,
    surface_resistance,
)
from magcav.cli import main
from magcav.core import HybridModel
from magcav.estimators import cooperativity, coupling_ratio, photon_number, predict_optimized
from magcav.modes import bogoliubov_two_mode, rwa_three_mode, rwa_two_mode
from magcav.presets import reference_cavity, reference_sphere
from magcav.spectra import PortCouplings, s21

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _parse_kv(capsys):
    out = {}
    for line in capsys.readouterr().out.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def test_criterion_1_two_mode_round_trip(tmp_path, capsys):
    prefix = tmp_path / "bright"
    assert main(["spectrum", str(FIXTURES / "bright_crossing.ini"), "-o", str(prefix)]) == 0
    capsys.readouterr()
    code = main(["fit", str(prefix) + ".csv", "--kind", "two-mode"])
    kv = _parse_kv(capsys)
    g = float(kv["param.g_over_pi"])
    err = abs(g - 2.05e9) / 2.05e9
    _report(1, code == 0 and err < 0.01, f"g/pi = {g:.4e} Hz, off by {100 * err:.3f}%")


def test_criterion_2_three_mode_round_trip(tmp_path, capsys):
    prefix = tmp_path / "dark"
    assert main(["spectrum", str(FIXTURES / "dark_doublet.ini"), "-o", str(prefix)]) == 0
    capsys.readouterr()
    code = main(["fit", str(prefix) + ".csv", "--kind", "three-mode", "--prominence", "0.02"])
    kv = _parse_kv(capsys)
    gc = float(kv["param.g_c_over_pi"])
    grl = float(kv["param.g_rl_over_pi"])
    err_c = abs(gc - 143e6) / 143e6
    err_rl = abs(grl - 12.5e6) / 12.5e6
    _report(
        2,
        code == 0 and err_c < 0.02 and err_rl < 0.02,
        f"g_c off by {100 * err_c:.3f}%, g_RL off by {100 * err_rl:.3f}%",
    )


def test_criterion_3_coupling_ratio_cross_check():
    modeled = coupling_ratio(20.6e9, 13.75e9, 3e-2, 3e-4)
    measured = 2.05e9 / 143e6
    near_15 = abs(modeled - 15.0) / 15.0
    agreement = abs(modeled - measured) / measured
    _report(
        3,
        near_15 < 0.005 and agreement < 0.05,
        f"modeled {modeled:.4f} ({100 * near_15:.2f}% from 15.0), "
        f"measured {measured:.4f}, agree to {100 * agreement:.2f}%",
    )


def test_criterion_4_optimized_chain():
    current = {"f_b": 20.9e9, "g_over_pi": 2.05e9, "kappa_b": 27e6,
               "gamma_m": 1.1e6, "xi_b": 0.03}
    plain = predict_optimized(current, {"xi_b": 0.2})
    reduced = predict_optimized(current, {"xi_b": 0.2, "linewidth_factor": 12.0})
    g_err = abs(plain["g_opt_over_pi"] - 5.2e9) / 5.2e9
    c_err = abs(plain["cooperativity_opt"] - 9.1e5) / 9.1e5
    c12_err = abs(reduced["cooperativity_opt"] - 1.1e7) / 1.1e7
    _report(
        4,
        g_err < 0.02 and c_err < 0.10 and c12_err < 0.10,
        f"g_opt/pi {plain['g_opt_over_pi']:.4e} ({100 * g_err:.2f}% from 5.2e9), "
        f"C {plain['cooperativity_opt']:.3e} ({100 * c_err:.2f}% from 9.1e5), "
        f"C(12x) {reduced['cooperativity_opt']:.3e} ({100 * c12_err:.2f}% from 1.1e7)",
    )


def test_criterion_5_cooperativities():
    c_bright = cooperativity(2.05e9, 27e6, 1.1e6)
    c_dark = cooperativity(143e6, 33e6, 1.2e6)
    bright_err = abs(c_bright - 1.3e5) / 1.3e5
    dark_factor = max(c_dark / 1.6e3, 1.6e3 / c_dark)
    _report(
        5,
        bright_err < 0.15 and dark_factor < 4.0,
        f"C_bright {c_bright:.4e} ({100 * bright_err:.1f}% from 1.3e5), "
        f"C_dark {c_dark:.1f} (factor {dark_factor:.2f} of 1.6e3)",
    )


def test_criterion_6_walker_crossings():
    from magcav.walker import fit_gyro_and_Ms, walker_frequency, walker_offset

    fit = fit_gyro_and_Ms([(1, 0.743, 20.9e9), (2, 0.471, 13.9e9)])
    f22 = walker_frequency(2, 0.471, fit.mu0_Ms, fit.gyro)
    f11 = walker_frequency(1, 0.743, fit.mu0_Ms, fit.gyro)
    err22 = abs(f22 - 13.9e9) / 13.9e9
    err11 = abs(f11 - 20.9e9) / 20.9e9
    _report(
        6,
        err22 < 0.02 and err11 < 0.005 and walker_offset(1) == 0.0,
        f"(2,2) off {100 * err22:.3f}%, (1,1) off {100 * err11:.4f}%, "
        f"c_11 = {walker_offset(1)!r}",
    )


def test_criterion_7_cavity_model():
    geom = reference_cavity()
    sphere = reference_sphere()
    f_dark, f_bright = mode_frequencies(geom)
    mode_errs = (abs(f_dark - 13.75e9) / 13.75e9, abs(f_bright - 20.6e9) / 20.6e9)

    xi = {}
    G = {}
    for mode in ("dark", "bright"):
        fmap = field_map(geom, mode)
        xi[mode] = filling_factor(fmap, sphere)
        G[mode] = geometric_factor(fmap)

    rows = geometry_scan(geom, "gap", np.linspace(10e-6, 150e-6, 6), sphere)
    fd = np.array([r.f_dark for r in rows])
    fb = np.array([r.f_bright for r in rows])
    monotone = bool(np.all(np.diff(fd) > 0) and np.all(np.diff(fb) > 0))
    xi_d_col = np.array([r.xi_dark for r in rows])
    xi_b_col = np.array([r.xi_bright for r in rows])
    xi_const = bool(
        np.all(np.abs(xi_d_col / xi_d_col[0] - 1.0) < 1e-12)
        and np.all(np.abs(xi_b_col / xi_b_col[0] - 1.0) < 1e-12)
    )

    xi_b_factor = max(xi["bright"] / 3e-2, 3e-2 / xi["bright"])
    ratio = xi["dark"] / xi["bright"]
    ratio_factor = max(ratio / 1e-2, 1e-2 / ratio)
    g_factors = (
        max(G["dark"] / 51.0, 51.0 / G["dark"]),
        max(G["bright"] / 59.0, 59.0 / G["bright"]),
    )
    rs = surface_resistance(G["bright"], 714.0)
    rs_err = abs(rs - 76e-3) / 76e-3

    ok = (
        max(mode_errs) < 0.01
        and monotone
        and xi_const
        and xi_b_factor < 3.0
        and ratio_factor < 3.0
        and max(g_factors) < 2.0
        and rs_err < 0.35
    )
    _report(
        7,
        ok,
        f"modes off ({100 * mode_errs[0]:.2f}%, {100 * mode_errs[1]:.2f}%), "
        f"gap scan monotone={monotone} xi_const={xi_const}, "
        f"xi_b factor {xi_b_factor:.2f}, xi_d/xi_b factor {ratio_factor:.2f}, "
        f"G factors ({g_factors[0]:.2f}, {g_factors[1]:.2f}), "
        f"Rs {1e3 * rs:.1f} mOhm ({100 * rs_err:.1f}% from 76)",
    )


def test_criterion_8_solver_properties():
    rng = np.random.default_rng(8)
    worst_trace = 0.0
    for _ in range(2000):
        fc, fm = rng.uniform(1e9, 30e9, size=2)
        g = rng.uniform(0.0, 0.3) * min(fc, fm)
        res = rwa_two_mode(fc, fm, g)
        worst_trace = max(worst_trace, abs(res.frequencies.sum() - (fc + fm)) / (fc + fm))
    for _ in range(2000):
        fc, fR, fL = rng.uniform(1e9, 30e9, size=3)
        gc, gRL = rng.uniform(0.0, 1e9, size=2)
        res = rwa_three_mode(fc, fR, fL, gc, gRL)
        worst_trace = max(
            worst_trace, abs(res.frequencies.sum() - (fc + fR + fL)) / (fc + fR + fL)
        )

    worst_rwa_limit = 0.0
    for _ in range(3000):
        fc, fm = rng.uniform(1e9, 30e9, size=2)
        g = rng.uniform(0.0, 1e-3) * math.sqrt(fc * fm)
        bog = bogoliubov_two_mode(fc, fm, g).frequencies
        rwa = rwa_two_mode(fc, fm, g).frequencies
        worst_rwa_limit = max(worst_rwa_limit, float(np.max(np.abs(bog - rwa) / rwa)))

    worst_eig = 0.0
    for _ in range(1000):
        fc, fm = rng.uniform(1e9, 30e9, size=2)
        g = rng.uniform(0.0, 3e9)
        got = rwa_two_mode(fc, fm, g).frequencies
        lo, hi = oracles.eig2_bisect(fc, fm, 0.5 * g)
        worst_eig = max(worst_eig, abs(got[0] - lo), abs(got[1] - hi))
    for _ in range(1000):
        d = rng.uniform(1e9, 30e9, size=3)
        gc, gRL = rng.uniform(0.0, 1e9, size=2)
        got = rwa_three_mode(d[0], d[1], d[2], gc, gRL).frequencies
        want = oracles.eig3_bisect(d[0], d[1], d[2], 0.5 * gc, 0.5 * gRL)
        worst_eig = max(worst_eig, float(np.max(np.abs(got - np.sort(want)))))

    worst_s21 = 0.0
    freqs = np.linspace(1e9, 40e9, 101)
    for _ in range(1000):
        fc = rng.uniform(5e9, 30e9)
        fm = rng.uniform(5e9, 30e9)
        model = HybridModel.two_mode(
            fc, rng.uniform(1e6, 1e8), rng.uniform(1e4, 1e7), rng.uniform(0.0, 2e9)
        ).at_field(fm / 28.129e9)
        ports = PortCouplings(rng.uniform(1e-3, 0.4), rng.uniform(1e-3, 0.4))
        worst_s21 = max(worst_s21, float(np.max(np.abs(s21(freqs, model, ports)))))

    ok = (
        worst_trace < 1e-9
        and worst_rwa_limit <= 1e-5
        and worst_eig <= 1.0
        and worst_s21 <= 1.0 + 1e-12
    )
    _report(
        8,
        ok,
        f"10000 instances: trace {worst_trace:.2e}, rwa-limit {worst_rwa_limit:.2e}, "
        f"eig vs char-poly {worst_eig:.2e} Hz, max |S21| {worst_s21:.12f}",
    )


def test_criterion_9_spectrum_determinism(tmp_path, capsys):
    import hashlib

    digests = []
    for name in ("r1", "r2"):
        prefix = tmp_path / name
        assert main(["spectrum", str(FIXTURES / "bright_crossing.ini"), "-o", str(prefix)]) == 0
        digests.append(
            tuple(
                hashlib.sha256(Path(str(prefix) + ext).read_bytes()).hexdigest()
                for ext in (".csv", ".pgm")
            )
        )
    capsys.readouterr()
    _report(9, digests[0] == digests[1], f"csv/pgm sha256 {digests[0][0][:12]}.. repeatable")


def test_criterion_10_photon_number():
    n = photon_number(1e-12, 20.9e9, 714.0, 0.01, 0.01)
    factor = max(n / 15.0, 15.0 / n)
    _report(10, factor < 2.0, f"n = {n:.3f} photons (factor {factor:.2f} of 15)")
