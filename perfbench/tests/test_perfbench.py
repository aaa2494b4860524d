"""Tests of the workflow benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
They check that the program passes the gate on the default seed and on
another seed, that corrupted output counts as a failure, that traced
self times add up, and that the command keeps its output contract.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI = run._import_cli()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return str(tmp_path)


def _first_pass(workdir, seed, name):
    workloads.write_configs(workdir, seed)
    if name == "analyze":
        for argv in workloads.MAP_INPUTS:
            assert run._run_command(CLI, argv)[0] == 0
    check = gate.Gate(workdir, seed, gate.load_reference())
    results, _, _ = run.run_pass(CLI, workloads.WORKLOADS[name])
    return check, results


def _fit_map(args):
    return run._run_command(CLI, ["fit"] + args)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_program_passes_gate(workdir, seed, name):
    check, results = _first_pass(workdir, seed, name)
    repeats = gate.Repeats(workdir)
    failures = []
    for label, code, out in results:
        failures += check.check_first(label, code, out, _fit_map)
        repeats.record(label, code, out)
    assert failures == []
    if name == "analyze":
        # its maps are the reference maps on every seed, so its fits were
        # held to the reference numbers, not to truth recovery alone
        assert check.notes == []
    again, _, _ = run.run_pass(CLI, workloads.WORKLOADS[name])
    for label, code, out in again:
        assert repeats.check_again(label, code, out) == []


def _perturb(report, name, factor):
    lines = []
    for line in report.splitlines():
        key, _, value = line.partition(" = ")
        if key == name:
            line = f"{key} = {float(value) * factor!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed,factor", [(workloads.DEFAULT_SEED, 1 + 1e-6),
                                         (7, 1.02)])
def test_perturbed_coupling_fails(workdir, seed, factor):
    check, results = _first_pass(workdir, seed, "analyze")
    label, code, out = results[0]
    assert label == "fit_two_mode"
    bad = _perturb(out, "param.g_over_pi", factor)
    assert check.check_first(label, code, bad, _fit_map)
    # a later pass must repeat the first one exactly
    repeats = gate.Repeats(workdir)
    repeats.record(label, code, out)
    assert repeats.check_again(label, code, bad)


def test_truncated_csv_fails(workdir):
    check, results = _first_pass(workdir, 3, "synthesize")
    label, code, out = results[0]
    assert label == "spectrum_bright"
    assert check.check_first(label, code, out, _fit_map) == []
    repeats = gate.Repeats(workdir)
    repeats.record(label, code, out)
    path = os.path.join(workdir, "out", "bright.csv")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    assert repeats.check_again(label, code, out)
    fresh = gate.Gate(workdir, 3, gate.load_reference())
    assert fresh.check_first(label, code, out, _fit_map)


def test_nonconverged_fit_fails(workdir):
    check, results = _first_pass(workdir, 7, "analyze")
    label, code, out = results[0]
    assert (label, code) == ("fit_two_mode", 0)
    assert "converged = true" in out
    stalled = out.replace("converged = true", "converged = false")
    errors = check.check_first(label, 0, stalled, _fit_map)
    assert "fit_two_mode: fit did not converge" in errors
    assert check.check_first(label, 1, stalled, _fit_map) == ["fit_two_mode: exit code 1"]


def test_map_judged_by_fitted_numbers(workdir):
    # A written map is judged by the numbers a fit recovers from it; whether
    # that fit converges is the analyze workload's gate, not this one's.
    check, results = _first_pass(workdir, 3, "synthesize")
    label, code, out = results[0]
    assert label == "spectrum_bright"
    fit_code, fit_out = _fit_map(["out/bright.csv", "--kind", "two-mode"])
    assert fit_code == 0
    stalled = fit_out.replace("converged = true", "converged = false")
    assert check.check_first(label, code, out, lambda args: (1, stalled)) == []
    assert check.notes
    off = _perturb(stalled, "param.g_over_pi", 1.02)
    assert check.check_first(label, code, out, lambda args: (1, off))
    assert check.check_first(label, code, out, lambda args: (2, "")) == [
        "spectrum_bright: fitting the written map exited 2"]


def test_failed_exit_code_fails(workdir):
    check, _ = _first_pass(workdir, 1, "design")
    assert check.check_first("report", 2, "", _fit_map) == ["report: exit code 2"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_self_times_and_counts(workdir, name):
    _first_pass(workdir, 1, name)
    commands = workloads.WORKLOADS[name]
    main = CLI.main
    tracer = spans.Tracer()
    passes = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            assert CLI.main is not main
            results, dt, _ = run.run_pass(CLI, commands, tracer)
        finally:
            tracer.uninstall()
        assert all(code == 0 for _, code, _ in results)
        passes.append(run._pass_metrics(tracer, dt))
    assert CLI.main is main
    # counts repeat exactly and self times add up to the pass time
    assert run._trace_errors(passes) == []
    m = passes[0]
    assert 0.95 < m["trace.self_sum_ratio"] <= 1.0
    if name == "design":
        assert m["cavity.field_map.calls"] == 46
        assert m["cmd.scan_gap.field_map_distinct_ratio"] == pytest.approx(2 / 22)
        assert m["cmd.scan_spacing.field_map_distinct_ratio"] == 1.0
        # geometry_scan -> field_map: the scan's own time excludes the maps
        assert m["cavity.geometry_scan.self_s"] < 0.2 * m["cavity.field_map.self_s"]
    # a count that moves between passes, or self times that do not add
    # up, make the run fail
    moved = dict(passes[1], **{"pass.bytes_read": passes[1]["pass.bytes_read"] + 1})
    assert run._trace_errors([passes[0], moved])
    assert run._trace_errors([dict(m, **{"trace.self_sum_ratio": 0.9})])


def test_workload_process_runs_no_gate_checks(workdir, monkeypatch, capsys):
    # peak_rss_mib is the workload process's high-water mark, so the gate's
    # map parsing and fits must run elsewhere: here they would raise.
    import numpy as np

    def forbidden(*args, **kwargs):
        raise AssertionError("gate check in the workload process")

    argvs = []

    def record(cli, argv):
        argvs.append(argv[0])
        return run_command(cli, argv)

    run_command = run._run_command
    monkeypatch.setattr(run, "_run_command", record)
    monkeypatch.setattr(gate.Gate, "check_first", forbidden)
    monkeypatch.setattr(gate, "map_fingerprint", forbidden)
    monkeypatch.setattr(np, "loadtxt", forbidden)
    workloads.write_configs(workdir, 2)
    args = run.argparse.Namespace(workload="synthesize", seed=2, seconds=0.1, trace=0)
    assert run.role_workload(args) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "fit" not in argvs
    assert res["repeat_failed"] == {"spectrum_bright": 0, "spectrum_dark": 0,
                                    "predict_map": 0}
    assert [label for label, *_ in res["first"]] == [
        label for label, _ in workloads.WORKLOADS["synthesize"]]


def test_trace_wraps_classmethod_and_cli_bindings(workdir):
    from magcav import cli, estimators, spectra

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert isinstance(vars(spectra.DensityMap)["read_csv"], classmethod)
        assert cli.extract_ridge is estimators.extract_ridge
        assert cli.extract_ridge.__wrapped__ is not None
        assert "magcav._kernels" not in {getattr(owner, "__name__", "")
                                         for owner, *_ in tracer._patches}
    finally:
        tracer.uninstall()
    assert not hasattr(cli.extract_ridge, "__wrapped__")


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_contract():
    root = os.path.dirname(BENCH)
    proc = _bench(root, "--workload", "design", "--seed", "5",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    spec = run._load_spec()
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fails_without_sources(tmp_path):
    root = os.path.dirname(BENCH)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "design", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _edit_dark_map(workdir, delta):
    """Shift the dB value of every 500th cell of the analyze dark map."""
    path = os.path.join(workdir, "maps", "dark.csv")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    for i in range(1, len(lines), 500):
        b, f, db = lines[i].split(",")
        lines[i] = f"{b},{f},{float(db) * (1 + delta):.9e}"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("delta,fails", [(1e-10, False), (1e-4, True)])
def test_fit_input_within_print_precision(workdir, delta, fails):
    check, _ = _first_pass(workdir, 1, "analyze")
    _edit_dark_map(workdir, delta)
    argv = dict(workloads.WORKLOADS["analyze"])["fit_three_mode"]
    code, out = run._run_command(CLI, argv)
    errors = check.check_first("fit_three_mode", code, out, _fit_map)
    assert bool(errors) == fails, errors
    assert check.notes
