"""Correctness gate for every command of a pass.

A command passes when it exits 0 and its output survives three checks:

- truth recovery, on any seed: the fitted couplings and the cavity mode
  pair match the values the inputs were built from, at the acceptance
  tolerances, and neither scan has an error row;
- the reference fingerprints in ``reference.json``, made at the seed
  commit: fit, cavity, scan and predict numbers within rtol 1e-9, per-row
  dB sums and maxima of every map within the ``%.9e`` print precision,
  and the PGM header and size.  Seeded commands are compared only on the
  default seed.  A fit is compared only when its input map is
  byte-identical to the reference map: a map that differs within print
  precision legitimately moves fitted numbers by far more than 1e-9;
- on later passes of the same run, byte-identical output: the program
  promises bitwise-reproducible files and reports.

The workload process does only the last check (``Repeats``: reports
and file digests read in blocks), so the gate's parsing and fits never
count in its peak memory.  The full check of the first run (``Gate``)
runs afterwards in a process of its own, on the files the last pass
left; the repeat check has shown them equal to the first pass's.

Against the reference, file sha256 digests are recorded for information
only: a forward model that changes the last printed digit of a few cells is still correct.

``python3 perfbench/run.py --write-reference`` regenerates
``reference.json`` from the program in ``src``.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import workloads

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

RTOL = 1e-9
# printed with %.9e: ten significant digits, so a last-digit change is
# at most 1e-9 of the value
PRINT_RTOL = 1e-9

# truth the inputs were built from, with the acceptance tolerances
TRUTH = {
    "fit_two_mode": {"param.g_over_pi": (2.05e9, 0.01)},
    "fit_three_mode": {"param.g_c_over_pi": (143e6, 0.02),
                       "param.g_rl_over_pi": (12.5e6, 0.02)},
    "cavity": {"f_dark_Hz": (13.75e9, 0.01), "f_bright_Hz": (20.6e9, 0.01)},
}
# the synthesized maps are checked by fitting them with the same truth
MAP_TRUTH = {
    "spectrum_bright": (["--kind", "two-mode"], "fit_two_mode"),
    "spectrum_dark": (["--kind", "three-mode", "--prominence", "0.02"], "fit_three_mode"),
}


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(abs(value), abs(ref))


def parse_numbers(text: str) -> dict:
    """``name = value`` lines of a report as floats (other lines skipped)."""
    out = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if not sep:
            continue
        try:
            out[name] = float(value)
        except ValueError:
            if value in ("true", "false"):
                out[name] = 1.0 if value == "true" else 0.0
    return out


def parse_scan(text: str):
    """Rows of a scan table: (floats, error text)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "value_m,f_dark_Hz,f_bright_Hz,xi_dark,xi_bright,error":
        raise ValueError("scan table header missing")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 6:
            raise ValueError(f"scan row has {len(cells)} cells")
        rows.append(([float(c) for c in cells[:5]], cells[5]))
    return rows


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def map_fingerprint(prefix: str, grid: str) -> dict:
    """Read a CSV/PGM pair independently of the program and summarize it.

    Raises ValueError when the files do not hold the configured grid.
    """
    b0, b1, nb, f0, f1, nf = workloads.GRIDS[grid]
    csv_path, pgm_path = prefix + ".csv", prefix + ".pgm"
    with open(csv_path, "rb") as fh:
        if fh.readline() != b"B_T,f_Hz,s21_dB\n":
            raise ValueError("CSV header is not B_T,f_Hz,s21_dB")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    if raw.shape != (nb * nf, 3):
        raise ValueError(f"CSV holds {raw.shape} values, expected {(nb * nf, 3)}")
    B = raw[:, 0].reshape(nb, nf)
    f = raw[:, 1].reshape(nb, nf)
    db = raw[:, 2].reshape(nb, nf)
    B_axis = np.linspace(b0, b1, nb)
    f_axis = np.linspace(f0 * 1e9, f1 * 1e9, nf)
    if not (np.allclose(B, B_axis[:, None], rtol=PRINT_RTOL, atol=0)
            and np.allclose(f, f_axis[None, :], rtol=PRINT_RTOL, atol=0)):
        raise ValueError("CSV axes do not follow the configured grid, B outer")
    if not np.all(np.isfinite(db)):
        raise ValueError("CSV holds non-finite dB values")
    with open(pgm_path, "rb") as fh:
        pgm = fh.read()
    header = f"P5\n# dB clamps [-120, 0]\n{nb} {nf}\n255\n".encode("ascii")
    return {
        "row_db_sum": db.sum(axis=1).tolist(),
        "row_db_abs_sum": np.abs(db).sum(axis=1).tolist(),
        "row_db_max": db.max(axis=1).tolist(),
        "pgm_header": pgm[: len(header)].decode("latin-1"),
        "pgm_bytes": len(pgm),
        "csv_bytes": os.path.getsize(csv_path),
        "csv_sha256": _sha256(csv_path),
        "pgm_sha256": hashlib.sha256(pgm).hexdigest(),
    }


def fingerprint(label: str, stdout: str, workdir: str) -> dict:
    """Everything the gate compares for one command's output."""
    fp: dict = {}
    if label.startswith("scan_"):
        fp["scan"] = [values for values, _ in parse_scan(stdout)]
    elif not label.startswith("spectrum_"):
        fp["numbers"] = parse_numbers(stdout)
    if label in workloads.MAP_OUTPUTS:
        prefix, grid = workloads.MAP_OUTPUTS[label]
        fp["map"] = map_fingerprint(os.path.join(workdir, prefix), grid)
    return fp


def _compare_map(got: dict, ref: dict) -> list[str]:
    errors = []
    for key in ("pgm_header", "pgm_bytes"):
        if got[key] != ref[key]:
            errors.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
    for key in ("row_db_sum", "row_db_max"):
        g, r = np.array(got[key]), np.array(ref[key])
        scale = np.array(ref["row_db_abs_sum"] if key == "row_db_sum" else np.abs(r))
        if g.shape != r.shape:
            errors.append(f"{key}: {g.size} rows, reference {r.size}")
            continue
        bad = np.flatnonzero(np.abs(g - r) > PRINT_RTOL * scale)
        if bad.size:
            i = int(bad[0])
            errors.append(f"{key}[{i}] = {g[i]!r}, reference {r[i]!r} "
                          f"({bad.size} rows beyond print precision)")
    return errors


def compare_reference(label: str, fp: dict, ref: dict) -> list[str]:
    """Differences between a fingerprint and the stored reference."""
    errors = []
    if "numbers" in ref:
        for name, value in ref["numbers"].items():
            got = fp["numbers"].get(name)
            if got is None:
                errors.append(f"{name} missing")
            elif not _close(got, value, RTOL):
                errors.append(f"{name} = {got!r}, reference {value!r}")
    if "scan" in ref:
        if len(fp["scan"]) != len(ref["scan"]):
            errors.append(f"{len(fp['scan'])} scan rows, reference {len(ref['scan'])}")
        else:
            for i, (row, ref_row) in enumerate(zip(fp["scan"], ref["scan"])):
                if not all(_close(a, b, RTOL) for a, b in zip(row, ref_row)):
                    errors.append(f"scan row {i} = {row}, reference {ref_row}")
    if "map" in ref:
        errors += _compare_map(fp["map"], ref["map"])
    return [f"{label}: {e}" for e in errors]


def check_truth(label: str, stdout: str, require_converged: bool = True) -> list[str]:
    """Truth recovery on the printed numbers of one command, any seed."""
    errors = []
    if label.startswith("scan_"):
        rows = parse_scan(stdout)
        if len(rows) != 11:
            errors.append(f"{len(rows)} scan rows, expected 11")
        errors += [f"error row at {values[0]!r}: {err}" for values, err in rows if err]
    numbers = parse_numbers(stdout)
    for name, (truth, tol) in TRUTH.get(label, {}).items():
        value = numbers.get(name)
        if value is None or not abs(value - truth) <= tol * truth:
            errors.append(f"{name} = {value!r}, truth {truth!r} +- {100 * tol:g}%")
    if require_converged and label.startswith("fit_") and numbers.get("converged") != 1.0:
        errors.append("fit did not converge")
    return [f"{label}: {e}" for e in errors]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def digests(workdir: str, label: str):
    """sha256 of a command's output files, read in blocks; None if it has none."""
    if label not in workloads.MAP_OUTPUTS:
        return None
    prefix = os.path.join(workdir, workloads.MAP_OUTPUTS[label][0])
    return [_sha256(prefix + ".csv"), _sha256(prefix + ".pgm")]


class Repeats:
    """Later runs of a command must repeat its first run byte for byte.

    This is all the checking the workload process does: it compares
    reports and streamed file digests, so its memory high-water mark is
    the program's own.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.first: dict = {}  # label -> (code, stdout, digests)

    def record(self, label: str, code, stdout: str) -> None:
        try:
            sums = digests(self.workdir, label) if code == 0 else None
        except OSError:
            sums = "unreadable"
        self.first[label] = (code, stdout, sums)

    def check_again(self, label: str, code, stdout: str) -> list[str]:
        if code != 0:
            return [f"{label}: exit code {code}"]
        if label not in self.first:
            return [f"{label}: no first run to compare with"]
        code0, stdout0, digests0 = self.first[label]
        if code0 != 0 or stdout != stdout0:
            return [f"{label}: report differs from the first pass"]
        try:
            if digests(self.workdir, label) != digests0:
                return [f"{label}: output files differ from the first pass"]
        except OSError as exc:
            return [f"{label}: unreadable output: {exc}"]
        return []


class Gate:
    """Full check of a command's first run, in a process of its own."""

    def __init__(self, workdir: str, seed: int, reference: dict):
        self.workdir = workdir
        self.seed = seed
        self.reference = reference["commands"]
        self.default_seed = reference["seed"]
        self.notes: list[str] = []  # informational, not failures

    def check_first(self, label: str, code, stdout: str, fit_map) -> list[str]:
        """Check a command's report and files; ``fit_map(args)`` runs the fit."""
        if code != 0:
            return [f"{label}: exit code {code}"]
        try:
            errors = check_truth(label, stdout)
            fp = fingerprint(label, stdout, self.workdir)
        except (OSError, ValueError) as exc:
            return [f"{label}: unreadable output: {exc}"]
        if label in MAP_TRUTH:
            extra, truth_label = MAP_TRUTH[label]
            prefix, _ = workloads.MAP_OUTPUTS[label]
            fit_code, fit_out = fit_map([os.path.join(self.workdir, prefix + ".csv")] + extra)
            # The map is judged by the numbers a fit recovers from it.  Whether
            # the fitter converges (exit 1 if not) is the fit command's own
            # gate, in the analyze workload.
            if fit_code not in (0, 1):
                errors.append(f"{label}: fitting the written map exited {fit_code}")
            else:
                if fit_code == 1:
                    self.notes.append(f"{label}: the fit of the written map did not converge")
                errors += [f"{label} map: {e}"
                           for e in check_truth(truth_label, fit_out, require_converged=False)]
        if self._has_reference(label):
            try:
                errors += self._compare(label, fp)
            except (OSError, ValueError) as exc:
                return errors + [f"{label}: unreadable input map: {exc}"]
        return errors

    def _has_reference(self, label: str) -> bool:
        return label not in workloads.SEEDED or self.seed == self.default_seed

    def _compare(self, label: str, fp: dict) -> list[str]:
        ref = self.reference[label]
        if label in workloads.FIT_INPUTS:
            # A fit is held to rtol 1e-9 only on byte-identical input: a map
            # that differs within print precision moves fitted numbers more.
            prefix, grid, map_label = workloads.FIT_INPUTS[label]
            ref_map = self.reference[map_label]["map"]
            got = map_fingerprint(os.path.join(self.workdir, prefix), grid)
            errors = [f"{label} input: {e}" for e in _compare_map(got, ref_map)]
            if got["csv_sha256"] != ref_map["csv_sha256"]:
                self.notes.append(f"{label}: input map differs from the reference "
                                  "bytes; fit checked for truth recovery only")
                return errors
            return errors + compare_reference(label, fp, ref)
        for key in ("csv_sha256", "pgm_sha256"):
            if "map" in ref and fp["map"][key] != ref["map"][key]:
                self.notes.append(f"{label}: {key} differs from the reference")
        return compare_reference(label, fp, ref)
