"""Workflow benchmark for the magcav command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload synthesize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, plain and traced
    python3 perfbench/run.py --write-reference     # regenerate reference.json

A pass is one run through a workload's command list (see
``workloads.py``), each command driven through ``magcav.cli.main`` in
process.  A run is a closed loop with one client: the workload process
starts the next pass only when the last one has finished, and starts no
threads.  Every command of every pass goes through the correctness gate
in ``gate.py``, outside the timed region: the workload process checks
only that each later run repeats the first byte for byte, and a gate
process checks the first pass in full once the run is over, so neither
the gate's parsing nor its fits count in the workload's time or memory.

End-to-end metrics (``--trace 0``):

- ``pass_s``: median wall time of a pass;
- ``pass_tail_s``: the highest percentile of pass time with at least ten
  passes beyond it (the fastest pass when a run has ten or fewer).  How
  far out that is depends on the pass count, which is printed with it:
  in a 30 s run about p35-p45 (the median) on synthesize, p55-p70 on
  analyze and p70-p80 on design;
- ``passes_per_s``: passes over the seconds spent inside passes;
- ``setup_s``: ``import magcav`` plus the first, untimed pass, median over
  three fresh processes; making the benchmark's own inputs is excluded;
- ``peak_rss_mib``: peak resident memory of the workload process.

Every time is scaled to a host of fixed speed by the reference work
timed inside the same pass (``hostspeed.py``); the times as measured are
printed beside them.

``failed_ratio`` (failed commands over attempted) is printed with them;
the result line carries it as ``failed`` and ``attempted``.

With ``--trace 1`` the run alternates plain and traced passes.  Traced
passes wrap the public functions of the layer modules (``spans.py``) and
give the per-layer metrics as medians per pass; the plain passes give
``process.cpu_s`` and the base of ``trace.overhead_ratio``.  A traced
run is not correct when a traced pass's self times do not add up to its
time within 5% or its counts differ from the first traced pass's.

The metric names and units are read from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; everything else goes to
standard error.  Inputs and outputs live in ``.perfbench/`` under the
repository root and are removed at the end of a run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives setup_s
FIRST_PASS = "first.json"  # the first pass, handed from workload to gate process


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inside the workload process


def _import_cli():
    sys.path.insert(0, SRC)
    import magcav.cli

    return magcav.cli


def _run_command(cli, argv):
    """(exit code, captured stdout); a traceback counts as a failure."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # keep measuring; the gate counts it
        traceback.print_exc()
        code = "exception"
    return code, out.getvalue()


def run_pass(cli, commands, tracer=None, speed=None):
    """Run one pass; returns [(label, code, stdout)] and its wall and CPU time.

    ``speed.sample()`` times the host-speed reference after every command,
    outside the timed region.
    """
    results = []
    wall = cpu = 0.0
    for label, argv in commands:
        region = tracer.region(label) if tracer else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        with region:
            results.append((label, *_run_command(cli, argv)))
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if speed is not None:
            speed.sample()
    return results, wall, cpu


def _environment() -> dict:
    import importlib.util

    import numpy

    sha = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="ascii") as fh:
                    sha = fh.read().strip()
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _scaled(times, factors):
    return [t * f for t, f in zip(times, factors)]


def _tail(times):
    """(value, percentile): highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _pass_metrics(tracer, pass_s):
    """Per-layer metrics of one traced pass."""
    m = {}
    for name, calls in tracer.calls.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = tracer.self_s[name]
        m[f"{name}.wall_s"] = tracer.wall_s[name]
        if name in tracer.wait_s:
            m[f"{name}.wait_s"] = tracer.wait_s[name]
    for name, wall in tracer.wall_s.items():
        if name.startswith("cmd."):
            m[f"{name}.s"] = wall
    counts = tracer.counts
    m.update({k: v for k, v in counts.items() if "@" not in k})
    kept, maxima = counts["estimators.find_peaks.kept"], counts["estimators.find_peaks.maxima"]
    m["estimators.find_peaks.kept_ratio"] = kept / maxima if maxima else 0.0
    for key, value in counts.items():
        if key.startswith("estimators.find_peaks.maxima@"):
            cmd = key.split("@", 1)[1]
            m[f"cmd.{cmd}.maxima_per_column"] = value / counts[f"estimators.find_peaks.calls@{cmd}"]
    distinct = calls = 0
    for cmd, keys in tracer.field_keys.items():
        distinct += len(set(keys))
        calls += len(keys)
        m[f"cmd.{cmd}.field_map_distinct_ratio"] = len(set(keys)) / len(keys)
    m["cavity.field_map.distinct_ratio"] = distinct / calls if calls else 0.0
    m["pass.bytes_written"] = (counts["spectra.DensityMap.write_csv.bytes"]
                               + counts["spectra.DensityMap.write_pgm.bytes"])
    m["pass.bytes_read"] = counts["spectra.DensityMap.read_csv.bytes"]
    m["trace.self_sum_ratio"] = sum(tracer.self_s.values()) / pass_s
    return m


def _setup_pass(args):
    """Import magcav and run the first pass.

    Returns (cli, results, setup time, its host-speed factor, HostSpeed).
    """
    t0 = time.perf_counter()
    cli = _import_cli()
    import_s = time.perf_counter() - t0
    import hostspeed  # after magcav: its numpy import is not set-up work

    speed = hostspeed.HostSpeed()
    results, wall, _ = run_pass(cli, workloads.WORKLOADS[args.workload], speed=speed)
    return cli, results, import_s + wall, speed.factor(), speed


def role_setup(args) -> int:
    """Fresh process: time import plus the first pass, print it."""
    _, _, setup_s, factor, _ = _setup_pass(args)
    print(json.dumps({"setup_s": setup_s, "factor": factor}))
    return 0


def role_inputs(args) -> int:
    """Fresh process: make the analyze maps with the program's spectrum."""
    cli = _import_cli()
    for argv in workloads.MAP_INPUTS:
        code, _ = _run_command(cli, argv)
        if code != 0:
            _log(f"making input {argv} exited {code}")
            return 1
    return 0


def _trace_errors(passes) -> list[str]:
    """Checks of the traced passes: self times add up, counts repeat."""
    errors = []
    counts0 = None
    for i, m in enumerate(passes):
        ratio = m["trace.self_sum_ratio"]
        if not 0.95 <= ratio <= 1.05:
            errors.append(f"traced pass {i}: self times add up to {ratio:.4f} of its time")
        counts = {k: v for k, v in m.items()
                  if not k.endswith(("_s", ".s")) and k != "trace.self_sum_ratio"}
        if counts0 is None:
            counts0 = counts
        elif counts != counts0:
            diff = sorted(k for k in set(counts) | set(counts0)
                          if counts.get(k) != counts0.get(k))
            errors.append(f"traced pass {i}: counts differ from the first: {diff[:5]}")
    return errors


def role_workload(args) -> int:
    """The workload process: set-up pass, then the timed closed loop.

    It checks only that later runs repeat the first; the first pass is
    checked in full afterwards by the gate process.
    """
    started = time.perf_counter()
    cli, first, setup_s, setup_factor, speed = _setup_pass(args)
    commands = workloads.WORKLOADS[args.workload]

    import resource

    import gate
    import spans

    repeats = gate.Repeats(os.getcwd())
    for label, code, out in first:
        repeats.record(label, code, out)
    runs = {label: 1 for label, _ in commands}  # runs of each command
    repeat_failed = {label: 0 for label, _ in commands}
    failures = []

    tracer = spans.Tracer() if args.trace else None
    # measured pass times, and each pass's host-speed factor
    plain, plain_f, traced, traced_f, cpu, layer, raw_layer = [], [], [], [], [], [], []
    # a traced run needs at least two passes of each kind
    while (sum(plain) + sum(traced) < args.seconds
           or (tracer and len(traced) < 2)):
        if time.perf_counter() - started > RUN_LIMIT_S - 40.0:
            _log("stopping early: run time limit")
            break
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                results, wall, _ = run_pass(cli, commands, tracer, speed)
            finally:
                tracer.uninstall()
            factor = speed.factor()
            traced.append(wall)
            traced_f.append(factor)
            raw_layer.append(_pass_metrics(tracer, wall))
            layer.append({k: v * factor if k.endswith(("_s", ".s")) else v
                          for k, v in raw_layer[-1].items()})
        else:
            results, wall, dc = run_pass(cli, commands, speed=speed)
            factor = speed.factor()
            plain.append(wall)
            plain_f.append(factor)
            cpu.append(dc * factor)
        for label, code, out in results:
            runs[label] += 1
            errors = repeats.check_again(label, code, out)
            failures += errors
            repeat_failed[label] += bool(errors)

    for failure in failures[:20]:
        _log(f"FAILED {failure}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "first": [[label, code, out, repeats.first[label][2]] for label, code, out in first],
        "runs": runs,
        "repeat_failed": repeat_failed,
        "plain_s": plain,
        "plain_factor": plain_f,
        "traced_s": traced,
        "traced_factor": traced_f,
        "cpu_s": cpu,
        "peak_rss_mib": peak_kib / 1024.0,
        "trace_errors": _trace_errors(raw_layer),
        "env": _environment(),
    }
    if layer:
        keys = sorted(set().union(*layer))
        result["layers"] = {k: statistics.median([p.get(k, 0) for p in layer]) for k in keys}
        result["layers"]["process.cpu_s"] = statistics.median(cpu)
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(_scaled(traced, traced_f))
            / statistics.median(_scaled(plain, plain_f)) - 1.0)
    print(json.dumps(result))
    return 0


def role_gate(args) -> int:
    """Fresh process: the full check of the first pass of a workload run.

    Reads the first pass's reports from ``first.json`` and checks them with
    the files the run left behind, which must still be the first pass's.
    """
    import gate

    with open(FIRST_PASS, encoding="utf-8") as fh:
        first = json.load(fh)
    workdir = os.getcwd()
    check = gate.Gate(workdir, args.seed, gate.load_reference())
    cli = None

    def fit_map(fit_args):
        nonlocal cli
        cli = cli or _import_cli()
        return _run_command(cli, ["fit"] + fit_args)

    failures = {}
    for label, code, out, sums in first:
        try:
            moved = code == 0 and gate.digests(workdir, label) != sums
        except OSError:
            moved = True
        if moved:
            failures[label] = [f"{label}: output files are not the first pass's"]
        else:
            failures[label] = check.check_first(label, code, out, fit_map)
    print(json.dumps({"failures": failures, "notes": check.notes}))
    return 0


# ---------------------------------------------------------------------------
# the driving process (never imports magcav)


def _child(role, args, workdir, deadline, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {role} process")
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def measure(args, trace: int) -> dict:
    """One run of one workload in fresh processes; returns its figures."""
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = _loadavg()
    workdir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workloads.write_configs(workdir, args.seed)
        if args.workload == "analyze":
            _child("inputs", args, workdir, deadline)
        setups, raw_setups = [], []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                # a failing command shows in the gate process's check
                probe = _child("setup", args, workdir, deadline)
                raw_setups.append(probe["setup_s"])
                setups.append(probe["setup_s"] * probe["factor"])
        res = _child("workload", args, workdir, deadline, trace)
        with open(os.path.join(workdir, FIRST_PASS), "w", encoding="utf-8") as fh:
            json.dump(res.pop("first"), fh)
        checked = _child("gate", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in checked["notes"]:
        _log(f"note: {note}")
    res["attempted"] = sum(res["runs"].values())
    res["failed"] = 0
    for label, errors in checked["failures"].items():
        for error in errors:
            _log(f"FAILED {error}")
        # every later run repeated a failed first run, so it fails too
        res["failed"] += res["runs"][label] if errors else res["repeat_failed"][label]
    for error in res["trace_errors"]:
        _log(f"FAILED {error}")
    res["env"]["loadavg_start"] = load_start
    res["env"]["loadavg_end"] = _loadavg()
    plain = res["plain_s"]
    scaled = _scaled(plain, res["plain_factor"])
    res["measured"] = {
        "pass_s": statistics.median(plain),
        "pass_tail_s": _tail(plain)[0],
        "passes_per_s": len(plain) / sum(plain),
        "setup_s": statistics.median(raw_setups + [res["setup_s"]]),
    }
    tail, res["tail_percentile"] = _tail(scaled)
    res["e2e"] = {
        "pass_s": statistics.median(scaled),
        "pass_tail_s": tail,
        "passes_per_s": len(scaled) / sum(scaled),
        "setup_s": statistics.median(setups + [res["setup_s"] * res["setup_factor"]]),
        "peak_rss_mib": res["peak_rss_mib"],
        "failed_ratio": res["failed"] / res["attempted"],
    }
    return res


def _summary(workload, res, spec, trace):
    n = len(res["plain_s"])
    _log(f"== {workload}: seed {res['seed']}, {n} plain passes"
         + (f", {len(res['traced_s'])} traced passes" if trace else ""))
    for key, value in res["env"].items():
        _log(f"  env.{key} = {value}")
    if not trace:
        e2e = res["e2e"]
        for m in spec["end_to_end"]:
            measured = res["measured"].get(m["name"])
            _log(f"  {m['name']} = {e2e[m['name']]:.6g} {m['unit']}"
                 + (f"  (as measured {measured:.6g})" if measured is not None else ""))
        _log(f"  pass_tail_s is p{res['tail_percentile']:.0f} of {n} passes")
        _log(f"  failed_ratio = {e2e['failed_ratio']:.6g} "
             f"({res['failed']} of {res['attempted']} commands)")
    else:
        for m in spec["per_layer"]:
            _log(f"  {m['name']} = {res['layers'].get(m['name'], 0):.6g} {m['unit']}")


def _result_line(res, spec, trace) -> dict:
    if trace:
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res["e2e"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = res["failed"] == 0 and not res["trace_errors"]
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def drive(args) -> int:
    spec = _load_spec()
    res = measure(args, args.trace)
    res["seed"] = args.seed
    _summary(args.workload, res, spec, args.trace)
    print(json.dumps(_result_line(res, spec, args.trace)))
    return 0


def suite(args) -> int:
    """Every workload, plain then traced, each in its own processes."""
    spec = _load_spec()
    report = {}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        args.workload = w["name"]
        for trace in (0, 1):
            res = measure(args, trace)
            res["seed"] = args.seed
            _summary(w["name"], res, spec, trace)
            report[f"{w['name']}.trace{trace}"] = res
            line = _result_line(res, spec, trace)
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            for name, metric in line["metrics"].items():
                total["metrics"][f"{w['name']}.{name}"] = metric
    for w in spec["workloads"]:
        plain = report[f"{w['name']}.trace0"]["e2e"]["pass_s"]
        traced = report[f"{w['name']}.trace1"]["layers"]["trace.overhead_ratio"]
        _log(f"{w['name']}: pass_s {plain:.4g} s, trace overhead {100 * traced:.1f}%")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spec": spec, "runs": report}, fh, indent=1)
    _log(f"wrote {args.out}")
    print(json.dumps(total))
    return 0


def write_reference(args) -> int:
    """Fingerprint every command on the default seed into reference.json."""
    import gate

    workdir = os.path.join(SCRATCH, f"reference-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cwd = os.getcwd()
    try:
        workloads.write_configs(workdir, workloads.DEFAULT_SEED)
        os.chdir(workdir)
        cli = _import_cli()
        for argv in workloads.MAP_INPUTS:
            if _run_command(cli, argv)[0] != 0:
                raise RuntimeError(f"making input {argv} failed")
        commands = {}
        for cmds in workloads.WORKLOADS.values():
            for label, code, out in run_pass(cli, cmds)[0]:
                if code != 0:
                    raise RuntimeError(f"{label} exited {code}")
                commands[label] = gate.fingerprint(label, out, workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(gate.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "commands": commands}, fh, indent=1)
        fh.write("\n")
    _log(f"wrote {gate.REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(SCRATCH, "suite.json"),
                        help="where --workload all writes its results")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--role", choices=("workload", "setup", "inputs", "gate"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "magcav", "cli.py")):
        _log(f"magcav sources not found under {SRC}")
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.role == "workload":
        return role_workload(args)
    if args.role == "setup":
        return role_setup(args)
    if args.role == "inputs":
        return role_inputs(args)
    if args.role == "gate":
        return role_gate(args)
    if args.write_reference:
        return write_reference(args)
    if args.seconds is None:
        args.seconds = _load_spec()["run_seconds"]
    if args.workload == "all":
        return suite(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
