"""Command-line front end.

Subcommands cover the full workflow: ``cavity`` evaluates a geometry
(with optional one-parameter design scans), ``spectrum`` synthesizes a
transmission map to CSV + PGM, ``fit`` extracts a ridge from a map file
and runs the requested crossing model, ``report`` turns measured line
parameters into figures of merit, and ``predict`` scales a measured
system to an optimized filling factor.

Exit codes are a stable contract: 0 success, 2 configuration error
(which includes a command line that does not parse and values whose
derived figures overflow or divide by zero), 3 fit-identifiability
error, 4 I/O error, which includes a malformed map file.  A fit that
completes but fails to converge exits 1.  All file outputs are
deterministic functions of the configuration, including the noise seed.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ._gridcsv import open_output
from .cavity import (
    field_map,
    filling_factor,
    geometric_factor,
    geometry_scan,
    mode_frequencies,
    surface_resistance,
)
from .config import _UNITS, ConfigError, load_config
from .core import DomainError
from .estimators import (
    UnidentifiableModelError,
    cooperativity,
    coupling_per_spin,
    coupling_ratio,
    extract_ridge,
    fit_three_mode,
    fit_two_mode,
    photon_number,
    predict_optimized,
    spin_count,
)
from .modes import bogoliubov_two_mode
from .spectra import DensityMap, MapFormatError, add_noise, density_map, lorentzian

EXIT_OK = 0
EXIT_FIT_DID_NOT_CONVERGE = 1
EXIT_CONFIG = 2
EXIT_UNIDENTIFIABLE = 3
EXIT_IO = 4

# scan --start/--stop are given in the unit the config key uses
_SCAN_SCALE = {"gap": _UNITS["_um"], "spacing": _UNITS["_mm"], "height": _UNITS["_mm"]}
# a scan's rows, by default and at most: each may build a field map
_SCAN_STEPS = 11
_MAX_SCAN_STEPS = 10_000
# options that only a scan reads
_SCAN_OPTIONS = ("--start", "--stop", "--steps", "--csv")
# numeric options whose value may begin with "-"; the program checks them
_SIGNED_OPTIONS = ("--start", "--stop", "--steps", "--prominence")

# cavity's figures, in print order
_CAVITY_FIGURES = (
    "f_dark_Hz", "f_bright_Hz", "xi_dark", "xi_bright", "G_dark_ohm", "G_bright_ohm",
)


def _emit(name: str, value) -> None:
    if isinstance(value, (float, np.floating)):
        value = float(value)
    print(f"{name} = {value!r}")


def _check_figures(figures: dict, nan_ok=()) -> None:
    """Raise ConfigError unless every figure is finite.

    A figure named in ``nan_ok`` may be nan, which marks it as having no
    value; an overflow shows up as a figure that is not finite.
    """
    for name, value in figures.items():
        if not (math.isfinite(value) or (name in nan_ok and math.isnan(value))):
            raise ConfigError(f"{name} = {value!r} is not finite")


def _print_figures(figures: dict, nan_ok=()) -> None:
    """Print every figure, or none if one is not finite."""
    _check_figures(figures, nan_ok)
    for name, value in figures.items():
        _emit(name, value)


def _scan_csv_lines(rows):
    yield "value_m,f_dark_Hz,f_bright_Hz,xi_dark,xi_bright,error"
    for r in rows:
        err = (r.error or "").replace(",", ";")
        yield (
            f"{r.value:.9e},{r.f_dark:.9e},{r.f_bright:.9e},"
            f"{r.xi_dark:.9e},{r.xi_bright:.9e},{err}"
        )


def _write_map(dmap: DensityMap, prefix: str) -> list[str]:
    """Write ``prefix.csv`` and ``prefix.pgm``; the lines that report them."""
    paths = (prefix + ".csv", prefix + ".pgm")
    dmap.write_csv(paths[0])
    dmap.write_pgm(paths[1])
    return [f"wrote {path}" for path in paths]


def _scan_values(args) -> np.ndarray | None:
    """The swept values in SI once the scan options are checked; None
    without --scan, which none of them may then be given."""
    if args.scan is None:
        for option in _SCAN_OPTIONS:
            if getattr(args, option[2:]) is not None:
                raise ConfigError(f"{option} needs --scan")
        return None
    if args.start is None or args.stop is None:
        raise ConfigError("--scan needs --start and --stop")
    for option, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{option} {value!r} is not finite")
    steps = _SCAN_STEPS if args.steps is None else args.steps
    if not 1 <= steps <= _MAX_SCAN_STEPS:
        raise ConfigError(f"--steps {steps} must lie in [1, {_MAX_SCAN_STEPS}]")
    scale = _SCAN_SCALE[args.scan]
    return np.linspace(args.start * scale, args.stop * scale, steps)


def cmd_cavity(args) -> int:
    # the scan's arguments are checked before the config is read
    values = _scan_values(args)
    cfg = load_config(args.config)
    geom = cfg.require("geometry")
    sphere = cfg.require("sphere")

    if values is None:
        # every figure is computed before any is printed; an overflow shows
        # up as a figure that is not finite, not as numpy warnings
        with np.errstate(all="ignore"):
            f_dark, f_bright = mode_frequencies(geom)
            figures = {"f_dark_Hz": f_dark, "f_bright_Hz": f_bright}
            for mode in ("dark", "bright"):
                fmap = field_map(geom, mode, resolution=cfg.resolution)
                figures[f"xi_{mode}"] = filling_factor(fmap, sphere)
                figures[f"G_{mode}_ohm"] = geometric_factor(fmap)
        _print_figures({name: figures[name] for name in _CAVITY_FIGURES})
        return EXIT_OK

    # an overflow shows up in a row's error column, not as numpy warnings
    with np.errstate(all="ignore"):
        rows = geometry_scan(geom, args.scan, values, sphere, resolution=cfg.resolution)
    lines = list(_scan_csv_lines(rows))
    # the file is written before anything is printed: a failed write
    # prints nothing
    if args.csv is not None:
        data = ("\n".join(lines) + "\n").encode("ascii")
        with open_output(args.csv) as fh:
            fh.write(data)
    print("\n".join(lines))
    if args.csv is not None:
        print(f"wrote {args.csv}", file=sys.stderr)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    model = cfg.require("model")
    b_axis = cfg.require("b_axis")
    f_axis = cfg.require("f_axis")
    # an overflow gives map values that DensityMap rejects, not warnings
    with np.errstate(all="ignore"):
        dmap = density_map(model, b_axis, f_axis, cfg.ports)
        if cfg.noise_sigma > 0.0:
            dmap = add_noise(dmap, cfg.noise_seed, cfg.noise_sigma)
    print("\n".join(_write_map(dmap, args.output)))
    return EXIT_OK


def cmd_fit(args) -> int:
    dmap = DensityMap.read_csv(args.map)
    if dmap.f_axis.size < 3:
        # peak picking needs a sample on each side of a maximum
        raise MapFormatError(
            f"{args.map}: {dmap.f_axis.size} f samples; need at least three"
        )
    B, f_peak = extract_ridge(dmap, args.prominence)
    if B.size < 10:
        raise UnidentifiableModelError(
            f"ridge extraction found {B.size} points; need at least 10"
        )
    fit = fit_two_mode(B, f_peak) if args.kind == "two-mode" else fit_three_mode(B, f_peak)
    sys.stdout.write(fit.serialize())
    return EXIT_OK if fit.converged else EXIT_FIT_DID_NOT_CONVERGE


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    rep = cfg.require("report")
    sphere = cfg.require("sphere")

    # every figure is computed before any is printed, as in cavity
    n_spins = spin_count(sphere.spin_density, sphere.diameter)
    power_w = 1e-3 * 10.0 ** (rep["power_dbm"] / 10.0)
    rs = surface_resistance(rep["geometric_factor"], rep["q_measured"])
    figures = {
        "C_bright": cooperativity(rep["bright_g_over_pi"], rep["bright_kappa"],
                                  rep["bright_gamma"]),
        "C_dark": cooperativity(rep["dark_g_over_pi"], rep["dark_kappa"], rep["dark_gamma"]),
        "N_spins": n_spins,
        "g_per_spin_Hz": coupling_per_spin(rep["bright_g_over_pi"], n_spins),
        "photons": photon_number(power_w, rep["photon_f0"], rep["photon_q"],
                                 rep["photon_beta"], rep["photon_beta"]),
        "Rs_ohm": rs,
        "Rs_reference_ohm": rep["rs_reference"],
        "Rs_over_reference": rs / rep["rs_reference"],
        "ratio_modeled": coupling_ratio(rep["f_bright"], rep["f_dark"],
                                        rep["xi_bright"], rep["xi_dark"]),
        "ratio_measured": (rep["bright_g_over_pi"] / rep["dark_g_over_pi"]
                           if rep["dark_g_over_pi"] > 0.0 else 0.0),
    }
    _print_figures(figures)
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    current = dict(cfg.require("current"))
    optimized = cfg.require("optimized")
    slope = current.pop("magnon_slope")
    offset = current.pop("magnon_offset")

    # every figure, and the map, is computed and checked before any is
    # printed
    figures = predict_optimized(current, optimized)
    f_b = current["f_b"]
    g_opt = figures["g_opt_over_pi"]
    eig = bogoliubov_two_mode(f_b, f_b, g_opt)
    up = eig.frequencies[1] - f_b
    down = f_b - eig.frequencies[0]
    split = eig.frequencies[1] - eig.frequencies[0]
    figures["branch_offset_upper_Hz"] = up
    figures["branch_offset_lower_Hz"] = down
    # g = 0 leaves one degenerate line: no splitting to compare against
    figures["branch_asymmetry"] = abs(up - down) / split if split > 0.0 else math.nan

    dmap = None
    if args.map is not None:
        b_axis = cfg.require("b_axis")
        f_axis = cfg.require("f_axis")
        # a line far off the f axis overflows to 0, not to warnings
        with np.errstate(all="ignore"):
            branches = bogoliubov_two_mode(f_b, slope * b_axis + offset, g_opt).frequencies
            lines = lorentzian(f_axis, 1.0, branches[..., None], figures["kappa_opt"])
            dmap = DensityMap(b_axis, f_axis, lines.sum(axis=1),
                              {"kind": "bogoliubov-prediction"})
    # the map is written before anything is printed: a failed write
    # prints nothing
    nan_ok = ("per_spin_scale", "branch_asymmetry")
    _check_figures(figures, nan_ok)
    wrote = [] if dmap is None else _write_map(dmap, args.map)
    _print_figures(figures, nan_ok)
    for line in wrote:
        print(line)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as ConfigError,
    one line, instead of printing its usage and exiting."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magcav",
        description="Hybrid cavity-magnon modeling: geometry, spectra, fits, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cavity", help="evaluate a cavity geometry, optionally scanning one parameter")
    p.add_argument("config")
    p.add_argument("--scan", choices=sorted(_SCAN_SCALE), help="parameter to sweep")
    p.add_argument("--start", type=float, help="sweep start (um for gap, mm otherwise)")
    p.add_argument("--stop", type=float, help="sweep stop (um for gap, mm otherwise)")
    p.add_argument("--steps", type=int,
                   help=f"sweep points, 1 to {_MAX_SCAN_STEPS} (default {_SCAN_STEPS})")
    p.add_argument("--csv", help="also write the scan table to this file")
    p.set_defaults(func=cmd_cavity)

    p = sub.add_parser("spectrum", help="synthesize a transmission map to CSV and PGM")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="fit a crossing model to a map file")
    p.add_argument("map", help="long-form CSV map (B_T, f_Hz, s21_dB)")
    p.add_argument("--kind", choices=("two-mode", "three-mode"), default="two-mode")
    p.add_argument("--prominence", type=float, default=0.25,
                   help="ridge peak prominence relative to the column maximum")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="figures of merit from measured line parameters")
    p.add_argument("config")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("predict", help="scale a measured system to an optimized filling factor")
    p.add_argument("config")
    p.add_argument("--map", help="write the predicted map to this path prefix")
    p.set_defaults(func=cmd_predict)
    return parser


def _join_signed_values(argv):
    """argv with each ``--start -1e-3`` written ``--start=-1e-3``.

    argparse reads a separate token that begins with "-" as an option
    unless it looks like a plain negative number, and which numbers look
    plain depends on the Python version ("-inf" and "-1e-3" do not on
    3.12).  Joined, every value of a signed option reaches the program's
    own check.  An option may be abbreviated as argparse allows; a value
    beginning with "--" and every token after a bare "--" are left alone.
    """
    argv = list(argv)
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            return out + argv[i:]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (len(token) > 2 and any(o.startswith(token) for o in _SIGNED_OPTIONS)
                and value.startswith("-") and not value.startswith("--")):
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_join_signed_values(argv))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnidentifiableModelError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_UNIDENTIFIABLE
    except (OSError, MapFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        # finite inputs whose derived figures overflow or underflow to 0
        print(f"config error: a value is out of range: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
