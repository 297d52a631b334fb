"""Tests for the weak-scaling benchmark suite (``repro.bench.scale``).

Wall-clock numbers are host-dependent, so the gates are exercised on
synthetic captures: the host-independent per-(event + row) growth law,
the calibration-rescaled median gate, and the absolute top-point
iteration budget.  One live smoke run covers the timing path end to end
at a tiny fleet size.
"""

import json

import pytest

from repro.bench import SUITES
from repro.bench.scale import (
    MAX_PER_UNIT_GROWTH,
    TOP_ITERATION_BUDGET_S,
    ScaleBenchConfig,
    check_scale_structure,
    time_scale_config,
)

SUITE = SUITES["scale"]
SCALE_SCHEMA = SUITE.schema
SCALE_FULL_CONFIGS = SUITE.full
SCALE_QUICK_CONFIGS = SUITE.quick
DEFAULT_SCALE_SNAPSHOT_PATH = SUITE.path


# Kernel events and admitted ledger rows per expert-centric MoE-GPT
# iteration (exact simulator counts: events grow linearly with the
# fleet, rows quadratically).
EVENTS = {8: 2220, 16: 4396, 32: 8744, 64: 17448, 128: 34856}
ROWS = {8: 2688, 16: 7424, 32: 23040, 64: 78848, 128: 288768}


def _entry(machines, per_unit_us, iterations=1):
    events, rows = EVENTS[machines], ROWS[machines]
    median = per_unit_us * 1e-6 * (events + rows)
    return {
        "machines": machines,
        "experts": machines * 8,
        "iterations": iterations,
        "median_s": median,
        "best_s": median,
        "samples": [median],
        "sim_seconds": 0.1,
        "events": events,
        "rows": rows,
        "events_total": events * iterations,
        "units_total": (events + rows) * iterations,
        "per_event_us": median * 1e6 / events,
        "per_unit_us": per_unit_us,
    }


def _capture(per_unit=(5.0, 5.5, 6.0), machines=(8, 32, 128),
             calibration_s=0.020):
    return {
        "schema": SCALE_SCHEMA,
        "calibration_s": calibration_s,
        "host": {"python": "3.x", "numpy": "2.x", "cpus": 4},
        "runs": {
            f"MoE-GPT/expert-centric/{m}m": _entry(m, us)
            for m, us in zip(machines, per_unit)
        },
    }


def _slow_down(capture, machines, factor):
    """Host time of one point multiplied by ``factor`` (work unchanged)."""
    entry = capture["runs"][f"MoE-GPT/expert-centric/{machines}m"]
    for field in ("median_s", "best_s", "per_event_us", "per_unit_us"):
        entry[field] *= factor
    entry["samples"] = [value * factor for value in entry["samples"]]


class TestConfigs:
    def test_key_includes_machines(self):
        assert ScaleBenchConfig(machines=64).key == (
            "MoE-GPT/expert-centric/64m"
        )

    def test_experts_scale_with_machines(self):
        assert ScaleBenchConfig(machines=128).experts == 1024

    def test_full_sweep_spans_8_to_128(self):
        machines = [spec.machines for spec in SCALE_FULL_CONFIGS]
        assert machines == sorted(machines)
        assert machines[0] == 8
        assert machines[-1] == 128

    def test_top_point_crosses_a_million_units(self):
        top = SCALE_FULL_CONFIGS[-1]
        # ~324k events + rows per 128-machine iteration; four iterations
        # per timed sample put the capture past a million units of work.
        assert top.iterations * (EVENTS[128] + ROWS[128]) >= 1_000_000

    def test_quick_configs_are_a_subset_of_full_keys(self):
        full = {spec.key for spec in SCALE_FULL_CONFIGS}
        assert {spec.key for spec in SCALE_QUICK_CONFIGS} <= full


class TestStructureGate:
    def test_flat_scaling_passes(self):
        assert check_scale_structure(_capture(), {}) == []

    def test_growth_at_the_bound_passes(self):
        capture = _capture(per_unit=(5.0, 5.5, 5.0 * MAX_PER_UNIT_GROWTH))
        assert check_scale_structure(capture, {}) == []

    def test_superlinear_growth_fails(self):
        capture = _capture(per_unit=(5.0, 6.0, 8.0))
        problems = check_scale_structure(capture, {})
        assert len(problems) == 1
        assert "1.60x" in problems[0]

    def test_two_x_slowdown_at_the_top_point_fails_the_law(self):
        # A scale-invariant sweep (flat cost per event + row) whose
        # 128-machine point alone takes twice the host time.
        machines = (8, 16, 32, 64, 128)
        capture = _capture(per_unit=(5.0,) * 5, machines=machines)
        assert check_scale_structure(capture, {}) == []
        _slow_down(capture, 128, 2.0)
        problems = check_scale_structure(capture, {})
        assert len(problems) == 1
        assert "per-(event+row) cost grows 2.00x" in problems[0]

    def test_the_law_divides_by_events_plus_rows(self):
        # Per event alone, a flat per-unit sweep looks superlinear (rows
        # grow quadratically, events linearly); the law must not see it.
        capture = _capture(per_unit=(5.0, 5.0, 5.0))
        points = sorted(capture["runs"].values(), key=lambda e: e["machines"])
        assert points[-1]["per_event_us"] > 2 * points[0]["per_event_us"]
        assert check_scale_structure(capture, {}) == []

    def test_endpoints_are_smallest_and_largest_fleet(self):
        # A pathological middle point must not trip the endpoint law.
        capture = _capture(per_unit=(5.0, 50.0, 6.0))
        assert check_scale_structure(capture, {}) == []

    def test_single_point_is_rejected(self):
        capture = _capture(per_unit=(5.0,), machines=(8,))
        assert check_scale_structure(capture, {})

    def test_narrow_span_skips_the_growth_law(self):
        # 8 -> 16 machines is the quick CI subset: adjacent sub-second
        # points differ by scheduler noise, not scaling structure, so
        # even a wild ratio must not gate until the span reaches 4x.
        capture = _capture(per_unit=(5.0, 10.0), machines=(8, 16))
        assert check_scale_structure(capture, {}) == []
        capture = _capture(per_unit=(5.0, 10.0), machines=(8, 32))
        assert check_scale_structure(capture, {})


class TestSnapshotGate:
    def test_identical_capture_passes(self):
        capture = _capture()
        assert SUITE.check(capture, capture) == []

    def test_regressed_median_fails(self):
        snapshot = _capture()
        current = _capture(per_unit=(9.0, 9.9, 10.8))
        problems = SUITE.check(current, snapshot, tolerance=0.25)
        assert any(": median" in p for p in problems)

    def test_calibration_rescale_absorbs_a_slow_host(self):
        snapshot = _capture(calibration_s=0.020)
        # Host is 1.8x slower and the medians are 1.8x slower: fine.
        current = _capture(
            per_unit=(9.0, 9.9, 10.8), calibration_s=0.036
        )
        assert SUITE.check(current, snapshot, tolerance=0.25) == []

    def test_missing_key_is_reported(self):
        snapshot = _capture(machines=(8, 32), per_unit=(5.0, 5.5))
        current = _capture()
        problems = SUITE.check(current, snapshot)
        assert any("not in committed snapshot" in p for p in problems)

    def test_top_point_budget_fails_when_blown(self):
        capture = _capture()
        slow = 2 * TOP_ITERATION_BUDGET_S * 1e6 / (EVENTS[128] + ROWS[128])
        current = _capture(per_unit=(5.0, 5.5, slow))
        # Inflate tolerance so only the absolute budget can trip.
        problems = SUITE.check(current, capture, tolerance=100.0)
        assert any("budget" in p for p in problems)


class TestCommittedSnapshot:
    def test_snapshot_exists_and_is_committed(self):
        assert DEFAULT_SCALE_SNAPSHOT_PATH.exists()
        snapshot = json.loads(DEFAULT_SCALE_SNAPSHOT_PATH.read_text())
        assert snapshot["schema"] == SCALE_SCHEMA
        assert len(snapshot["runs"]) == len(SCALE_FULL_CONFIGS)

    def test_committed_snapshot_passes_its_own_gates(self):
        snapshot = json.loads(DEFAULT_SCALE_SNAPSHOT_PATH.read_text())
        assert check_scale_structure(snapshot, {}) == []
        assert SUITE.check(snapshot, snapshot) == []

    def test_committed_top_point_crosses_a_million_units(self):
        snapshot = json.loads(DEFAULT_SCALE_SNAPSHOT_PATH.read_text())
        top = max(
            snapshot["runs"].values(), key=lambda entry: entry["machines"]
        )
        assert top["machines"] == 128
        assert top["units_total"] >= 1_000_000

    def test_committed_counts_are_the_simulators(self):
        # The synthetic captures above use the committed work counts.
        snapshot = json.loads(DEFAULT_SCALE_SNAPSHOT_PATH.read_text())
        for entry in snapshot["runs"].values():
            machines = entry["machines"]
            assert (entry["events"], entry["rows"]) == (
                EVENTS[machines], ROWS[machines]
            )

    def test_top_point_slowdown_fails_the_committed_snapshot(self):
        # Against the real capture, a 2x slower 128-machine point is
        # caught by the rescaled wall gate (the structural law has slack
        # there: per-unit cost falls with the fleet, see DESIGN §12).
        snapshot = json.loads(DEFAULT_SCALE_SNAPSHOT_PATH.read_text())
        current = json.loads(DEFAULT_SCALE_SNAPSHOT_PATH.read_text())
        _slow_down(current, 128, 2.0)
        problems = SUITE.check(current, snapshot)
        assert any("128m: median" in p for p in problems), problems


class TestLiveSmoke:
    def test_time_scale_config_smoke(self):
        entry = time_scale_config(ScaleBenchConfig(machines=2), runs=1)
        assert entry["machines"] == 2
        assert entry["experts"] == 16
        assert entry["events"] > 0
        assert entry["rows"] > 0
        assert entry["per_event_us"] > entry["per_unit_us"] > 0
        assert entry["median_s"] == pytest.approx(entry["best_s"])

    def test_format_suite_renders_growth_column(self):
        table = SUITE.describe(_capture())
        assert "us/(event+row)" in table
        assert "1.00x" in table
        assert "128" in table
