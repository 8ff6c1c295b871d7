#!/usr/bin/env python3
"""Layered benchmark of the tdlcw workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src` with
the pure backend forced (TDLCW_BACKEND=pure), the reference configuration.
Workloads (see workloads.py): `theorem-all`, `conjugators`.

The load is a closed loop of one user on one thread: every pass starts a
fresh interpreter (perfbench/worker.py), as a user starting the CLI would,
and runs the workload's commands one after the other through
`tdlcw.cli.main`.  Passes repeat until the next one would end after
`--seconds`; at least one always runs.

Times are given at a reference host speed.  On a shared host the speed
of the same code drifts by up to half for tens of seconds at a time (a
fixed loop read 0.028-0.057 s within a minute, with no CPU steal), so raw
times of whole runs spread by 15-25 % and no statistic within one run
removes that.  The worker therefore times a fixed pure-Python probe
(`worker.calibrate`) before every command and after the last, and each
command's time is divided by the mean probe time around it and multiplied
by CALIB_REF_S: the seconds the command would take on a host on which the
probe reads CALIB_REF_S.  A change to the program moves these times as it
moves raw ones; a change of host speed moves them far less.  The raw
figures are printed on a `# raw` line before the result.

`--trace 0` reports the end-to-end metrics: `wall_ref_s` and `cpu_ref_s`,
the wall and CPU seconds of a pass, each the sum over the pass's commands
of that command's median scaled time over the passes; the median peak
resident memory of a pass's process; and `setup_s`, the median scaled
set-up time (interpreter start plus `import tdlcw.cli`, scaled by the probe
run just before and just after it) over the passes and a few extra
interpreters started only for that.

`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of layers.py (low medians over traced passes, raw
seconds), the tracing overhead (traced minus untraced `wall_ref_s`), the
median probe time, and `probe.range_errors`: the share of commands over the
documented parameter ranges that exit with an error, run untimed.  Spans
are written to .perfbench/spans-<workload>-<seed>.jsonl.

Every command must exit 0, emit only passing rows, pass the independent
checks of workloads.py, print the same stdout on every pass, and, for a
command pinned in pinned.json (every command of seed 7), print stdout with
the pinned sha256.  The lines before the result give the environment and
the stdout sha256 of the run, so that two commits can be compared on any
seed.  The last line is the result: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from worker import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Interpreters started only to time set-up, on top of one per pass.
SETUP_RUNS = 7
#: Longest a single pass may take before the run is abandoned.
PASS_TIMEOUT_S = 170
#: Reference reading of the host-speed probe: about what it reads on a
#: 2.0 GHz Xeon core when the host is not slowed by its neighbours.
CALIB_REF_S = 0.030


class BenchError(RuntimeError):
    """The program could not be run at all."""


def _worker_env():
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, TDLCW_BACKEND="pure",
                PYTHONPATH=os.pathsep.join(path))


def run_worker(job):
    """Run one job in a fresh interpreter; returns its result with the
    set-up time the parent measured ("setup_raw_s") and, for a calibrated
    job, that time scaled by the probe run just before and just after it
    ("setup_s")."""
    before = calibrate() if job.get("calibrate") else None
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_worker_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(job), timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): "
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    result["setup_raw_s"] = setup_s
    if before is not None:
        result["setup_s"] = _scale(setup_s, before, result["calibs"][0])
    return result


def _scale(seconds, before, after):
    """`seconds` at the reference host speed, from the probe around it."""
    return seconds * 2 * CALIB_REF_S / (before + after)


def run_passes(commands, seconds, modes, spans=None):
    """Repeat the cycle of passes in `modes` (trace flags) until another
    cycle would end after `seconds`; at least one cycle runs."""
    passes = {mode: [] for mode in modes}
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        began = time.perf_counter()
        for mode in modes:
            passes[mode].append(run_worker({
                "commands": commands, "trace": mode, "calibrate": True,
                "spans": str(spans) if mode and spans else None,
                "pass_id": cycle}))
        cycle += 1
        now = time.perf_counter()
        if now + (now - began) > deadline:
            return passes


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_passes(commands, results):
    """Count failed commands over all passes; returns (attempted, failed,
    problems, per-command sha256 of the first pass)."""
    pinned = json.loads((HERE / "pinned.json").read_text())
    first = [_sha(c["stdout"]) for c in results[0]["commands"]]
    attempted = failed = 0
    problems = []
    for result in results:
        for i, (argv, command) in enumerate(zip(commands, result["commands"])):
            attempted += 1
            sha = _sha(command["stdout"])
            found = []
            if command["rc"] != 0:
                found.append(f"exit {command['rc']}: {command['error']}")
            else:
                found.extend(workloads.check_output(argv, command["stdout"]))
            if sha != first[i]:
                found.append("stdout differs between passes")
            expected = pinned.get(" ".join(argv), sha)
            if sha != expected:
                found.append(f"stdout sha256 {sha} != pinned {expected}")
            if found:
                failed += 1
                problems.append(f"{' '.join(argv)}: {'; '.join(found)}")
    return attempted, failed, problems, first


def range_probe():
    """Share of probe commands that end in an error, run untimed."""
    commands = workloads.range_probe()
    result = run_worker({"commands": commands, "trace": False})
    errors = sum(1 for c in result["commands"] if c["rc"] != 0)
    return errors / len(commands)


def environment(workload, seed, backend, calib_s):
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "backend": backend,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest(),
            "host.calib_s": calib_s}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tdlcw" / "cli.py").is_file():
        print(f"error: no tdlcw sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    commands = workloads.WORKLOADS[args.workload](args.seed)
    setups, spans = [], None
    if not args.trace:
        setups = [run_worker({"commands": [], "calibrate": True})
                  for _ in range(SETUP_RUNS)]
    else:
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text("")
    modes = (False, True) if args.trace else (False,)
    passes = run_passes(commands, args.seconds, modes, spans)
    measured = [r for mode in modes for r in passes[mode]]
    attempted, failed, problems, shas = check_passes(commands, measured)
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)

    calib_s = statistics.median(c for r in measured for c in r["calibs"])
    env = environment(args.workload, args.seed, measured[0]["backend"], calib_s)
    print("# env " + json.dumps(env))
    print("# stdout_sha256 " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "stdout_sha256": _sha(
            "".join(c["stdout"] for c in measured[0]["commands"])),
        "commands": shas}))

    def scaled(key, mode=False):
        """Sum over commands of each command's median scaled time."""
        runs = zip(*(
            [_scale(c[key], r["calibs"][i], r["calibs"][i + 1])
             for i, c in enumerate(r["commands"])] for r in passes[mode]))
        return sum(statistics.median(command) for command in runs)

    def raw(key):
        """Sum over commands of each command's median raw time."""
        runs = zip(*(r["commands"] for r in passes[False]))
        return sum(statistics.median(c[key] for c in command)
                   for command in runs)

    print("# raw " + json.dumps({
        "wall_s": raw("wall_s"), "cpu_s": raw("cpu_s"),
        "setup_s": statistics.median(
            r["setup_raw_s"] for r in setups + measured),
        "passes": len(passes[False])}))

    if args.trace:
        units = layers.metric_units()
        metrics = {
            name: _metric(statistics.median_low(
                r["layers"][name] for r in passes[True]), unit)
            for name, unit in units.items()}
        metrics["trace.overhead_s"] = _metric(
            scaled("wall_s", True) - scaled("wall_s"), "s")
        metrics["host.calib_s"] = _metric(calib_s, "s")
        metrics["probe.range_errors"] = _metric(range_probe(), "ratio")
    else:
        metrics = {
            "wall_ref_s": _metric(scaled("wall_s"), "s"),
            "cpu_ref_s": _metric(scaled("cpu_s"), "s"),
            "peak_rss_mb": _metric(statistics.median(
                r["peak_rss_mb"] for r in passes[False]), "MB"),
            "setup_s": _metric(statistics.median(
                r["setup_s"] for r in setups + measured), "s"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind normally, so that the running worker is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
