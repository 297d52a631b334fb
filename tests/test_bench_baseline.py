"""Tests for the perf-regression baseline harness and committed snapshot."""

import json
from pathlib import Path

import baseline  # benchmarks/ is on sys.path via tests/conftest.py
from repro.config import TABLE1_MODELS

BASELINE_FILE = Path(__file__).parent.parent / "benchmarks" / "BENCH_metrics.json"


class TestCompare:
    def _runs(self, **overrides):
        metrics = {"makespan_seconds": 1.0, "pull.issued": 100.0}
        metrics.update(overrides)
        return {"runs": {"model/mode": metrics}}

    def test_identical_captures_pass(self):
        current = self._runs()
        assert baseline.compare(current, self._runs(), tolerance=0.0) == []

    def test_drift_beyond_tolerance_is_reported(self):
        problems = baseline.compare(
            self._runs(makespan_seconds=1.05), self._runs(), tolerance=0.02
        )
        assert len(problems) == 1
        assert "makespan_seconds" in problems[0]

    def test_drift_within_tolerance_passes(self):
        assert baseline.compare(
            self._runs(makespan_seconds=1.01), self._runs(), tolerance=0.02
        ) == []

    def test_zero_valued_metrics_compare_clean(self):
        assert baseline.compare(
            self._runs(**{"pull.issued": 0.0}),
            self._runs(**{"pull.issued": 0.0}),
            tolerance=0.0,
        ) == []

    def test_missing_run_is_flagged(self):
        current = {"runs": {}}
        problems = baseline.compare(current, self._runs(), tolerance=0.1)
        assert any("missing" in line for line in problems)

    def test_new_run_requires_rewrite(self):
        problems = baseline.compare(self._runs(), {"runs": {}}, tolerance=0.1)
        assert any("--write" in line for line in problems)

    def test_metric_set_change_is_flagged(self):
        current = self._runs()
        committed = self._runs()
        del committed["runs"]["model/mode"]["pull.issued"]
        problems = baseline.compare(current, committed, tolerance=0.1)
        assert any("metric set changed" in line for line in problems)


class TestCommittedBaseline:
    def test_snapshot_exists_with_expected_shape(self):
        snapshot = json.loads(BASELINE_FILE.read_text())
        assert snapshot["schema"] == baseline.SCHEMA
        expected_keys = {
            f"{model}/{mode}"
            for model in TABLE1_MODELS
            for mode in baseline.MODES
        }
        assert set(snapshot["runs"]) == expected_keys
        for metrics in snapshot["runs"].values():
            assert metrics["makespan_seconds"] > 0
            assert 0.0 <= metrics["overlap_efficiency"] <= 1.0
            assert metrics["egress_bytes_total"] > 0

    def test_fresh_capture_of_one_config_matches_snapshot(self):
        """One exact-match spot check; the full sweep runs in CI."""
        snapshot = json.loads(BASELINE_FILE.read_text())
        fresh = baseline._capture_one("MoE-GPT", "unified")
        committed = snapshot["runs"]["MoE-GPT/unified"]
        assert set(fresh) == set(committed)
        for metric, value in committed.items():
            assert fresh[metric] == value, metric
