"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

The traced tests run every workload twice with tracing on, so they take
several minutes; the others are instant.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tdlcw import cli  # noqa: E402

#: Per-layer metrics that dominate a workload; each must record work there.
#: A wrapper installed where callers do not look the function up reads 0.
DOMINANT = {
    "theorem-all": [
        "kernel.closure.calls", "kernel.closure.muls",
        "kernel.product_set.calls", "kernel.product_set.pairs",
        "kernel.product_set_equals.calls",
        "kernel.product_set_equals.enumerated",
        "kernel.product_set_equals.witness",
        "shift.window_image.calls", "linear.window_image.calls",
        "tidy.tidy_identity_report.calls", "tidy.nub_compute.calls",
        "tidy.tidy_above_procedure.calls", "tidy.is_tidy_below.calls",
        "limits.net_experiment.calls", "limits.conjugator_two_sided.calls",
        "verify.tits_core_image.calls", "verify.normal_closure_witness.calls",
        "verify.quotient_anisotropy_check.calls",
    ] + [f"cli.battery.{name}.s" for name in workloads.BATTERIES],
    "conjugators": [
        "linear.power.calls", "linear.power.steps", "linear.qmatrix_mul.calls",
        "shift.power.calls", "shift.mul.calls", "epseq.add.calls",
        "limits.conjugator_two_sided.calls", "limits.replay.calls",
        "limits.two_sided_replay.calls",
    ],
}


def traced_run(workload, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (traced_run(w), traced_run(w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(DOMINANT))
def test_dominant_layers_record_work(traced_pairs, workload):
    result = traced_pairs[workload][0]
    assert result["correct"]
    expected = set(layers.metric_units()) | {
        "trace.overhead_s", "host.calib_s", "probe.range_errors"}
    assert set(result["metrics"]) == expected
    idle = [m for m in DOMINANT[workload] if not result["metrics"][m]["value"]]
    assert not idle


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counters_repeat_exactly(traced_pairs, workload):
    first, second = (
        {name: m["value"] for name, m in run["metrics"].items()
         if name.endswith(layers.WORK_COUNTERS)}
        for run in traced_pairs[workload])
    assert first and first == second


def test_workloads_are_seeded():
    for make in workloads.WORKLOADS.values():
        assert make(11) == make(11)
    assert workloads.conjugators(11) != workloads.conjugators(12)


def test_conjugator_check_rejects_a_wrong_conjugator():
    argv = ["conjugator", "--model", "linear", "--p", "2", "--n", "2",
            "--u=3,4;2,5", "--two-sided", "--horizon", "4"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    row = json.loads(out.getvalue())
    assert workloads.check_output(argv, out.getvalue()) == []
    for field in ("t", "r"):
        assert workloads.check_output(argv, json.dumps({**row, field: "1,0;0,1"}))
    del row["t"]
    assert workloads.check_output(argv, json.dumps(row))
