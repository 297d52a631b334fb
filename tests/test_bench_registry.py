"""Registry-wide tests for the bench harness (``repro.bench.SUITES``).

Every registered suite runs on the same shared driver, so the shared
behaviour is checked once per suite against its committed
``benchmarks/BENCH_*.json`` snapshot: the envelope keys, the write
round-trip with history preserved, and the clamped calibration rescale.
Each structural gate is then shown firing on a deliberately corrupted
copy of its suite's committed snapshot.  No test runs a timed capture.
"""

import copy
import inspect
import json

import pytest

from repro.bench import (
    SUITES,
    Suite,
    calibration_scale,
    check_snapshot,
    write_snapshot,
)
from repro.bench.harness import CALIBRATION_SCALE_BOUNDS
from repro.bench.scale import MAX_PER_UNIT_GROWTH, TOP_ITERATION_BUDGET_S
from repro.cli import build_parser

NAMES = sorted(SUITES)


def _committed(name):
    return json.loads(SUITES[name].path.read_text())


def _scaled(snapshot, median_factor, calibration_factor):
    current = copy.deepcopy(snapshot)
    current.pop("history", None)
    current["calibration_s"] *= calibration_factor
    for entry in current["runs"].values():
        entry["median_s"] *= median_factor
    return current


class TestRegistry:
    def test_cli_suite_choices_follow_the_registry(self):
        for name in NAMES + ["all"]:
            assert build_parser().parse_args(
                ["bench", "--suite", name]
            ).suite == name

    def test_suite_all_runs_the_six_suites_in_order(self):
        assert list(SUITES) == [
            "sim", "runtime", "schedules", "control", "serving", "scale",
        ]

    def test_gate_bounds_are_unchanged(self):
        assert CALIBRATION_SCALE_BOUNDS == (0.2, 5.0)
        assert MAX_PER_UNIT_GROWTH == 1.3
        assert TOP_ITERATION_BUDGET_S == 10.0
        for fn in (Suite.check, check_snapshot):
            default = inspect.signature(fn).parameters["tolerance"].default
            assert default == 0.25
        assert build_parser().parse_args(["bench"]).tolerance == 0.25


@pytest.mark.parametrize("name", NAMES)
class TestEverySuite:
    def test_quick_configs_are_a_subset_of_full(self, name):
        suite = SUITES[name]
        full = [spec.key for spec in suite.full]
        assert len(set(full)) == len(full)
        assert {spec.key for spec in suite.quick} <= set(full)

    def test_envelope_matches_the_committed_snapshot(self, name):
        suite = SUITES[name]
        snapshot = _committed(name)
        assert snapshot["schema"] == suite.schema
        expected = {"schema", "config", "calibration_s", "host", "runs",
                    "history"}
        if suite.wall == "wall_s":
            expected.add("wall_s")
        elif suite.wall == "parallel":
            expected.add("parallel")
        assert set(snapshot) == expected
        host = {"python", "numpy"} | ({"cpus"} if suite.wall else set())
        assert set(snapshot["host"]) == host
        options = {option: snapshot["config"][option]
                   for option in suite.options}
        config = suite.config(suite.full, 1, **options)
        assert set(config) == set(snapshot["config"])

    def test_committed_snapshot_passes_its_own_gates(self, name):
        snapshot = _committed(name)
        assert SUITES[name].check(snapshot, snapshot) == []

    def test_write_round_trip_preserves_history(self, name, tmp_path):
        suite = SUITES[name]
        snapshot = _committed(name)
        history = [{"label": "earlier capture", "runs": {}}]
        path = tmp_path / suite.path.name
        path.write_text(json.dumps({"history": history}))
        current = _scaled(snapshot, 1.0, 1.0)
        written = write_snapshot(path, current)
        on_disk = json.loads(path.read_text())
        assert written == on_disk
        assert on_disk["history"] == history
        on_disk.pop("history")
        assert on_disk == current
        assert suite.check(on_disk, snapshot) == []

    def test_calibration_rescales_a_slower_host(self, name):
        suite = SUITES[name]
        snapshot = _committed(name)
        # Same efficiency on a host 1.8x slower: medians and calibration
        # move together, every gate still passes.
        current = _scaled(snapshot, 1.8, 1.8)
        assert calibration_scale(current, snapshot) == pytest.approx(1.8)
        assert suite.check(current, snapshot) == []

    def test_calibration_rescale_is_clamped(self, name):
        suite = SUITES[name]
        snapshot = _committed(name)
        low, high = CALIBRATION_SCALE_BOUNDS
        # A wildly slow calibration cannot absorb a 2x-the-clamp slowdown.
        current = _scaled(snapshot, high * 2, high * 100)
        assert calibration_scale(current, snapshot) == high
        assert calibration_scale(_scaled(snapshot, 1, 1e-6), snapshot) == low
        problems = suite.check(current, snapshot)
        for key in current["runs"]:
            assert any(p.startswith(f"{key}: median") for p in problems)

    def test_wall_gate_fires_beyond_the_band(self, name):
        snapshot = _committed(name)
        current = _scaled(snapshot, 1.3, 1.0)
        problems = SUITES[name].check(current, snapshot)
        assert len([p for p in problems if ": median" in p]) == len(
            current["runs"]
        )


def _slowest_other(runs, key):
    return max(entry["sim_seconds"] for other, entry in runs.items()
               if other != key)


def _lose_microbatching(capture):
    runs = capture["runs"]
    runs["microbatch-ec/mb4"]["sim_seconds"] = (
        runs["expert-centric"]["sim_seconds"]
    )


def _lose_stagger(capture):
    runs = capture["runs"]
    runs["microbatch-ec/mb4/stagger"]["sim_seconds"] = (
        runs["microbatch-ec/mb4/wave"]["sim_seconds"] * 1.01
    )


def _lose_autotune(capture):
    runs = capture["runs"]
    runs["pipelined-ec/tight/auto"]["sim_seconds"] = (
        runs["pipelined-ec/tight/c2"]["sim_seconds"] * 1.01
    )


def _lose_adaptive(capture):
    runs = capture["runs"]
    runs["adaptive"]["sim_seconds"] = _slowest_other(runs, "adaptive")


def _drop_a_request(capture):
    capture["runs"]["skewed/unified"]["completed_ok"] = False


def _lose_disaggregation(capture):
    runs = capture["runs"]
    runs["skewed/disaggregated"]["tpot_p99_ms"] = (
        runs["skewed/unified"]["tpot_p99_ms"]
    )


def _change_a_digest(capture):
    capture["runs"]["skewed/unified"]["digest"] = "0" * 64


def _grow_per_unit_cost(capture):
    points = sorted(capture["runs"].values(), key=lambda e: e["machines"])
    points[-1]["per_unit_us"] = (
        points[0]["per_unit_us"] * MAX_PER_UNIT_GROWTH * 1.01
    )


def _blow_the_top_budget(capture):
    top = max(capture["runs"].values(), key=lambda e: e["machines"])
    top["median_s"] = TOP_ITERATION_BUDGET_S * 1.01


def _switch_dtype(capture):
    capture["config"]["dtype"] = "float32"


STRUCTURAL_GATES = [
    ("schedules", _lose_microbatching, "microbatch-ec/mb4: sim_seconds"),
    ("schedules", _lose_stagger, "mb4/stagger: sim_seconds"),
    ("schedules", _lose_autotune, "is slower than fixed"),
    ("control", _lose_adaptive, "adaptive: sim_seconds"),
    ("serving", _drop_a_request, "not every offered request completed"),
    ("serving", _lose_disaggregation, "tpot_p99_ms"),
    ("serving", _change_a_digest, "bit-reproducible"),
    ("scale", _grow_per_unit_cost, "per-(event+row) cost grows"),
    ("scale", _blow_the_top_budget, "budget"),
    ("runtime", _switch_dtype, "dtype mismatch"),
]


@pytest.mark.parametrize(
    "name,corrupt,message", STRUCTURAL_GATES,
    ids=[corrupt.__name__.strip("_") for _, corrupt, _ in STRUCTURAL_GATES],
)
def test_structural_gate_fires_on_a_corrupted_capture(name, corrupt, message):
    snapshot = _committed(name)
    current = _scaled(snapshot, 1.0, 1.0)
    assert SUITES[name].check(current, snapshot) == []
    corrupt(current)
    problems = SUITES[name].check(current, snapshot)
    assert any(message in problem for problem in problems), problems


def test_every_gated_suite_has_a_corruption_case():
    gated = {name for name, suite in SUITES.items() if suite.gates}
    assert gated == {name for name, _, _ in STRUCTURAL_GATES}
