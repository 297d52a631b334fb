"""Tests for the simulator wall-clock suite (``repro bench --suite sim``)
and the shared harness it runs on.

The harness measures *host* time, so no test pins absolute numbers; they
cover the capture schema, the calibration-scaled regression gate, history
preservation on ``--write``, and the CLI wiring.
"""

import json

import pytest

from repro.bench import SUITES, check_snapshot, write_snapshot
from repro.bench.harness import CALIBRATION_SCALE_BOUNDS, sample, solver_backend
from repro.bench.speed import BenchConfig, time_config
from repro.netsim import _waterfill

SUITE = SUITES["sim"]


def _capture(median_s, calibration_s=0.010, key="MoE-GPT/data-centric"):
    return {
        "schema": SUITE.schema,
        "calibration_s": calibration_s,
        "runs": {
            key: {
                "median_s": median_s,
                "best_s": median_s,
                "samples": [median_s],
                "sim_seconds": 1.0,
                "events": 1000,
                "events_per_s": 1000 / median_s,
            }
        },
    }


class TestTimeConfig:
    def test_reports_median_events_and_sim_seconds(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        result = time_config(spec, runs=2)
        assert len(result["samples"]) == 2
        assert result["median_s"] > 0
        assert result["best_s"] <= result["median_s"]
        assert result["events"] > 0
        assert result["sim_seconds"] > 0
        assert result["events_per_s"] == pytest.approx(
            result["events"] / result["median_s"]
        )


class TestRunSuite:
    def test_capture_schema(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        current = SUITE.capture(configs=[spec], runs=1, jobs=1)
        assert current["schema"] == SUITE.schema
        assert current["config"]["experts"] == spec.experts
        assert current["calibration_s"] > 0
        assert current["host"]["cpus"] >= 1
        assert spec.key in current["runs"]
        parallel = current["parallel"]
        assert parallel["jobs"] == 1
        assert parallel["wall_s"] > 0
        assert parallel["speedup"] > 0
        # The table renderer accepts the capture.
        text = SUITE.describe(current)
        assert spec.key in text
        assert "calibration" in text

    def test_quick_configs_are_a_subset_of_models(self):
        assert all(spec.model == "MoE-GPT" for spec in SUITE.quick)


class TestCheckSnapshot:
    def test_pass_when_at_parity(self):
        snap = _capture(0.100)
        cur = _capture(0.100)
        assert check_snapshot(cur, snap, tolerance=0.25) == []

    def test_flags_regression_beyond_tolerance(self):
        snap = _capture(0.100)
        cur = _capture(0.130)
        problems = check_snapshot(cur, snap, tolerance=0.25)
        assert len(problems) == 1
        assert "MoE-GPT/data-centric" in problems[0]

    def test_calibration_rescales_the_gate(self):
        # Same simulator efficiency on a host 2x slower: calibration
        # doubles, medians double, gate passes.
        snap = _capture(0.100, calibration_s=0.010)
        cur = _capture(0.200, calibration_s=0.020)
        assert check_snapshot(cur, snap, tolerance=0.25) == []

    def test_calibration_scale_is_clamped(self):
        # A wildly slow calibration cannot absorb a 100x regression.
        low, high = CALIBRATION_SCALE_BOUNDS
        snap = _capture(0.100, calibration_s=0.010)
        cur = _capture(0.100 * high * 2, calibration_s=0.010 * high * 100)
        assert check_snapshot(cur, snap, tolerance=0.25)

    def test_configs_missing_from_snapshot_are_reported(self):
        snap = _capture(0.100, key="MoE-GPT/unified")
        cur = _capture(0.100)  # data-centric, absent from snapshot
        problems = check_snapshot(cur, snap, tolerance=0.25)
        assert "not in committed snapshot" in problems[0]

    def test_quick_capture_skips_unrun_configs(self):
        snap = _capture(0.100)
        snap["runs"]["MoE-BERT/unified"] = dict(
            snap["runs"]["MoE-GPT/data-centric"]
        )
        cur = _capture(0.100)
        assert check_snapshot(cur, snap, tolerance=0.25) == []


def _with_backend(capture, waterfill, coalesce=True):
    capture["host"] = {"python": "3", "numpy": "2",
                       "waterfill": waterfill, "coalesce": coalesce}
    return capture


def _config_calibrated(capture, calibration_s):
    for entry in capture["runs"].values():
        entry["calibration_s"] = calibration_s
    return capture


class TestSolverBackend:
    def test_capture_records_the_backend(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        current = SUITE.capture(configs=[spec], runs=1, jobs=1)
        assert current["host"]["waterfill"] in ("compiled", "python")
        assert current["host"]["coalesce"] is True

    def test_backend_follows_the_kernel_probe(self, monkeypatch):
        monkeypatch.setattr(_waterfill, "kernel", lambda: None)
        assert solver_backend() == {"waterfill": "python", "coalesce": True}

    def test_mismatch_is_one_problem_not_a_regression(self):
        # The numpy fallback is several times slower in host time: the
        # gate says so once instead of flagging every median.
        snap = _with_backend(_capture(0.100), "compiled")
        cur = _with_backend(_capture(0.500), "python")
        problems = check_snapshot(cur, snap, tolerance=0.25)
        assert len(problems) == 1
        assert "waterfill=python" in problems[0]
        assert "waterfill=compiled" in problems[0]
        assert problems[0].startswith("solver backend")

    def test_coalescing_mismatch_is_reported(self):
        snap = _with_backend(_capture(0.100), "compiled", coalesce=True)
        cur = _with_backend(_capture(0.100), "compiled", coalesce=False)
        assert len(check_snapshot(cur, snap, tolerance=0.25)) == 1

    def test_same_backend_compares_medians(self):
        snap = _with_backend(_capture(0.100), "compiled")
        cur = _with_backend(_capture(0.200), "compiled")
        problems = check_snapshot(cur, snap, tolerance=0.25)
        assert len(problems) == 1
        assert ": median" in problems[0]

    def test_snapshot_without_the_record_compares_medians(self):
        snap = _capture(0.100)
        cur = _with_backend(_capture(0.200), "python")
        problems = check_snapshot(cur, snap, tolerance=0.25)
        assert len(problems) == 1
        assert ": median" in problems[0]


class TestPerConfigCalibration:
    def test_sample_calibrates_beside_its_runs(self):
        timing, _ = sample(2, lambda _: None)
        assert timing["calibration_s"] > 0

    def test_capture_entries_carry_their_own_calibration(self):
        spec = BenchConfig("MoE-GPT", "expert-centric")
        current = SUITE.capture(configs=[spec], runs=1, jobs=1)
        assert current["runs"][spec.key]["calibration_s"] > 0

    def test_two_x_slowdown_fails_beside_a_slow_sweep_calibration(self):
        # The sweep-level calibration was taken while the host was slow
        # (2x); the config's own calibration saw the normal speed, so a
        # 2x slower simulator still fails.
        snap = _config_calibrated(_capture(0.100, calibration_s=0.010), 0.010)
        cur = _config_calibrated(_capture(0.200, calibration_s=0.020), 0.010)
        problems = check_snapshot(cur, snap, tolerance=0.25)
        assert len(problems) == 1
        assert "calibration 1.00" in problems[0]

    def test_config_slowed_by_the_host_passes(self):
        # The host halved its speed while this config ran (its own
        # calibration doubled) but not when the sweep-level sample was
        # taken: the config's gate follows its own calibration.
        snap = _config_calibrated(_capture(0.100, calibration_s=0.010), 0.010)
        cur = _config_calibrated(_capture(0.200, calibration_s=0.010), 0.020)
        assert check_snapshot(cur, snap, tolerance=0.25) == []

    def test_older_snapshot_falls_back_to_the_capture_calibration(self):
        snap = _capture(0.100, calibration_s=0.010)
        cur = _config_calibrated(_capture(0.200, calibration_s=0.020), 0.010)
        assert check_snapshot(cur, snap, tolerance=0.25) == []


class TestWriteSnapshot:
    def test_history_is_preserved(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        history = [{"label": "pre-optimization", "runs": {}}]
        first = _capture(0.500)
        first["history"] = history
        path.write_text(json.dumps(first))
        written = write_snapshot(path, _capture(0.100))
        assert written["history"] == history
        on_disk = json.loads(path.read_text())
        assert on_disk["history"] == history
        assert on_disk["runs"]["MoE-GPT/data-centric"]["median_s"] == 0.100

    def test_fresh_write_gets_empty_history(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        written = write_snapshot(path, _capture(0.100))
        assert written["history"] == []


class TestBenchCli:
    def test_check_against_written_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_speed.json"
        args = [
            "bench", "--quick", "--runs", "1", "--jobs", "1",
            "--path", str(path),
        ]
        assert main(args + ["--write"]) == 0
        assert path.exists()
        assert main(args + ["--check", "--tolerance", "10.0"]) == 0
        out = capsys.readouterr().out
        assert "bench OK" in out

    def test_check_without_snapshot_exits_2(self, tmp_path):
        from repro.cli import main

        assert main([
            "bench", "--quick", "--runs", "1", "--jobs", "1",
            "--check", "--path", str(tmp_path / "missing.json"),
        ]) == 2
