"""One pass of a workload in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH.  It imports the
CLI, prints `ready` (the parent times set-up up to that line), then reads
a job from stdin:

    {"commands": [argv, ...], "trace": false, "calibrate": true,
     "spans": "path or null", "pass_id": 0}

runs every argv through `tdlcw.cli.main` in order, one after the other,
and prints one JSON line: each command's exit code, output, wall and CPU
seconds, the peak memory of the pass, and with "trace" the per-layer
metrics of the pass.  With "calibrate" it also times the host-speed probe
`calibrate()` before every command and once after the last ("calibs"), so
that run.py can scale each command's time by the host speed around it.
"""

import contextlib
import io
import json
import resource
import sys
import time


def calibrate():
    """A fixed pure-Python loop: its time tracks the speed of the host."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - start


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    cpu0, start = cpu_seconds(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tdlcw.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a traceback counts as a failed command
            rc, error = None, f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "error": error or err.getvalue().strip() or None,
            "stdout": out.getvalue(), "wall_s": time.perf_counter() - start,
            "cpu_s": cpu_seconds() - cpu0}


def main():
    job = json.loads(sys.stdin.read())
    calibs = [calibrate()] if job.get("calibrate") else None
    result = {"calibs": calibs, "commands": []}
    tracer = None
    if job.get("trace"):
        import layers

        tracer = layers.Tracer(job.get("pass_id", 0))
        layers.install(tracer)
    for argv in job["commands"]:
        result["commands"].append(run_command(argv))
        if calibs:
            calibs.append(calibrate())
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["backend"] = tdlcw.backend.BACKEND_NAME
    if tracer:
        result["layers"] = tracer.metrics()
        if job.get("spans"):
            with open(job["spans"], "a", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    import tdlcw.cli  # set-up ends here

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    main()
