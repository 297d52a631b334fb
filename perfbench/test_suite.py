"""Tests of the benchmark itself: every output check fires on a corrupted
result, and the accounting helpers add up.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import layers  # noqa: E402
import suite  # noqa: E402


@pytest.fixture(scope="module")
def fig14():
    workload = suite.WORKLOADS["fig14-dc"](0)
    workload.build()
    return workload, workload.call()


@pytest.fixture(scope="module")
def drift():
    workload = suite.WORKLOADS["drift-adaptive"](0)
    workload.build()
    results = workload.call()
    return workload, results, suite._nic_totals(workload.registry)


def test_fig14_egress_matches_table1_and_check_fires(fig14):
    workload, result = fig14
    assert workload.check(result).failed == 0
    egress = result.nic_egress_bytes.copy()
    egress[2] += 1024.0
    problems = suite.check_table1_egress(egress, workload.expected_gib)
    assert len(problems) == 1 and "machine 2" in problems[0]


def test_fleet_egress_check_fires():
    from repro.analysis.traffic import table1_row
    from repro.config import moe_gpt

    expected = 2.0 * table1_row(moe_gpt(512), 64).expert_centric_gib
    egress = np.full(64, expected * suite.GIB)
    assert suite.check_table1_egress(egress, expected) == []
    egress[63] *= 0.999
    assert len(suite.check_table1_egress(egress, expected)) == 1


def test_fig14_call_repeats_its_outputs(fig14):
    workload, result = fig14
    again = workload.check(workload.call())
    assert again.outputs == workload.check(result).outputs


def test_drift_conservation_and_credit_checks_fire(drift):
    workload, results, (egress, ingress) = drift
    assert suite.check_conservation(egress, ingress) == []
    assert len(suite.check_conservation(egress, ingress * 1.001)) == 1
    assert len(suite.check_conservation(0.0, 0.0)) == 1
    capacity = workload.engine.features.credit_size
    levels = dict(results[0].credit_levels)
    minimums = dict(results[0].credit_min_levels)
    assert suite.check_credits(levels, minimums, capacity) == []
    levels[1] = capacity - 1
    assert len(suite.check_credits(levels, minimums, capacity)) == 1
    minimums[0] = -1.0
    assert len(suite.check_credits(levels, minimums, capacity)) == 2


def test_drift_episode_switches_and_replicates(drift):
    workload, results, _ = drift
    report = workload.check(results)
    assert report.failed == 0 and report.ops == 8
    assert report.counts["control.switches"] == 2
    assert report.counts["control.replications"] == 4


def test_serving_check_counts_each_bad_request():
    first = np.array([0.1, 0.2, 0.3])
    done = np.array([0.4, 0.5, 0.6])
    assert suite.check_serving(first, done) == (0, [])
    failed, problems = suite.check_serving(first, np.array([0.4, -1.0, 0.6]))
    assert failed == 1 and "never completed" in problems[0]
    failed, problems = suite.check_serving(np.array([0.1, 0.9, 0.3]), done)
    assert failed == 1 and "TTFT" in problems[0]


def test_twin_loss_check_fires():
    workload = suite.WORKLOADS["numpy-train"](0)
    workload.build()
    report = workload.check(workload.call())
    assert report.failed == 0
    loss = float(report.outputs["loss"])
    assert suite.check_twin_loss(loss, loss * (1 + 1e-6))
    assert suite.check_twin_loss(math.nan, loss)
    assert suite.check_twin_loss(loss, math.inf)


def test_digest_is_order_sensitive_and_stable():
    outputs = [{"a": "1.0"}, {"b": "2.0"}]
    assert suite.digest(outputs) == suite.digest([dict(o) for o in outputs])
    assert suite.digest(outputs) != suite.digest(outputs[::-1])


def test_calibrator_integrates_at_local_unit_speed():
    cal = calib.Calibrator()
    # Twenty samples of a 1 ms unit up to main-thread clock 1.0 s, then
    # twenty of a 2 ms unit: the median smoothing keeps the step.
    cal._marks = [0.05 * i for i in range(1, 41)]
    cal._units = [1e-3] * 20 + [2e-3] * 20
    assert cal.units(0.0, 1.0) == pytest.approx(1000.0)
    assert cal.units(1.0, 2.0) == pytest.approx(500.0)
    assert cal.units(2.0, 3.0) == pytest.approx(500.0)


def test_attribution_charges_builtins_to_callers():
    sim = ("/x/src/repro/simkit/core.py", 1, "step")
    net = ("/x/src/repro/netsim/fluid.py", 1, "solve")
    builtin = ("~", 0, "<built-in method heappush>")
    root = ("/x/perfbench/run.py", 1, "main")
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 2.0, 6.0, {root: (1, 1, 2.0, 6.0)}),
        net: (1, 1, 3.0, 3.5, {root: (1, 1, 3.0, 3.5)}),
        builtin: (4, 4, 4.0, 4.0, {
            sim: (3, 3, 3.0, 3.0), net: (1, 1, 1.0, 1.0),
        }),
    }
    out = layers.attribute(stats)
    assert out["simkit"] == pytest.approx(5.0)
    assert out["netsim"] == pytest.approx(4.0)
    assert out["other"] == pytest.approx(0.5)
    assert sum(out.values()) == pytest.approx(9.5)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fig14-dc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0 and child.stdout == ""
