"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "moe-gpt"
        assert args.experts == 32
        assert args.machines == 4

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--model", "moe-llama"])

    def test_simulate_paradigm_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--paradigm", "expert-centric"]
        )
        assert args.paradigm == "expert-centric"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--paradigm", "magic"])

    def test_simulate_accepts_registered_strategies(self):
        """The --paradigm choices come from the strategy registry."""
        args = build_parser().parse_args(
            ["simulate", "--paradigm", "pipelined-ec"]
        )
        assert args.paradigm == "pipelined-ec"

    def test_simulate_chunks_flag(self):
        args = build_parser().parse_args(["simulate", "--chunks", "8"])
        assert args.chunks == 8
        assert build_parser().parse_args(["simulate"]).chunks is None

    def test_simulate_chunks_must_be_positive(self):
        for bad in ("0", "-4", "abc"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["simulate", "--chunks", bad])

    def test_simulate_chunks_auto(self):
        args = build_parser().parse_args(["simulate", "--chunks", "auto"])
        assert args.chunks == "auto"
        args = build_parser().parse_args(["report", "--chunks", "auto"])
        assert args.chunks == "auto"

    def test_simulate_stagger_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--stagger-a2a", "chain"]
        )
        assert args.stagger_a2a == "chain"
        assert build_parser().parse_args(["simulate"]).stagger_a2a is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--stagger-a2a", "fifo"])


class TestBadShapes:
    """Degenerate shapes exit 2 with one error line, never a traceback."""

    @staticmethod
    def _error_of(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        return errors[0]

    def test_zero_machines_exits_2(self, capsys):
        line = self._error_of(["simulate", "--machines", "0"], capsys)
        assert "--machines" in line and "positive integer" in line

    def test_fewer_experts_than_top_k_exits_2(self, capsys):
        line = self._error_of(["simulate", "--experts", "3"], capsys)
        assert "top_k cannot exceed the expert count" in line

    def test_shape_flags_must_be_positive(self, capsys):
        for flag in ("--experts", "--batch-size", "--seq-len", "--top-k"):
            line = self._error_of(["plan", flag, "0"], capsys)
            assert flag in line
        line = self._error_of(["goodput", "--machines", "-1"], capsys)
        assert "--machines" in line


class TestCommands:
    def test_plan_prints_r_and_memory(self, capsys):
        assert main(["plan", "--model", "moe-gpt"]) == 0
        out = capsys.readouterr().out
        assert "5.33" in out
        assert "data-centric" in out
        assert "memory" in out

    def test_plan_with_overrides(self, capsys):
        assert main([
            "plan", "--model", "moe-bert", "--batch-size", "64",
            "--seq-len", "256", "--top-k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "B=64 S=256 k=4" in out

    def test_plan_pr_moe_mixes_paradigms(self, capsys):
        assert main(["plan", "--model", "pr-moe", "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "data-centric" in out

    def test_table1_matches_paper_numbers(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "9.00" in out      # E.C. BERT/Txl at 32 experts
        assert "1.69" in out      # D.C. BERT at 32 experts
        assert "16.0x" in out     # the headline reduction

    def test_goodput_reports_gap(self, capsys):
        assert main(["goodput", "--machines", "2", "--payload", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "intra-machine" in out
        assert "gap:" in out

    def test_simulate_small_cluster(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "expert-centric",
        ]) == 0
        out = capsys.readouterr().out
        assert "ms per training iteration" in out
        assert "All-to-All" in out

    def test_simulate_reports_strategy_per_block(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "unified",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy per block" in out

    def test_simulate_pipelined_ec_with_chunks(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "pipelined-ec" in out
        assert "ms per training iteration" in out

    def test_simulate_chunks_auto_tunes(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "auto",
        ]) == 0
        assert "ms per training iteration" in capsys.readouterr().out

    def test_fixed_chunks_conflict_with_chunk_adaptive_control(self, capsys):
        code = main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "4", "--control", "adaptive;chunks=on",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--chunks auto" in err and "chunk-adaptive" in err

    def test_auto_chunks_compose_with_chunk_adaptive_control(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "pipelined-ec",
            "--chunks", "auto", "--control", "adaptive;chunks=on",
            "--iterations", "2",
        ]) == 0

    def test_simulate_stagger_a2a_runs(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--paradigm", "microbatch-ec",
            "--stagger-a2a", "chain",
        ]) == 0
        assert "ms per training iteration" in capsys.readouterr().out

    def test_simulate_inference_flag(self, capsys):
        assert main([
            "simulate", "--model", "moe-gpt", "--machines", "2",
            "--batch-size", "32", "--inference",
        ]) == 0
        assert "inference pass" in capsys.readouterr().out

    def test_simulate_oom_exits_nonzero(self, capsys):
        code = main([
            "simulate", "--model", "moe-bert", "--seq-len", "512",
            "--top-k", "4", "--paradigm", "expert-centric",
        ])
        assert code == 1
        assert "out of memory" in capsys.readouterr().err


class TestObservabilityCommands:
    SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
             "--batch-size", "8"]

    def test_simulate_writes_report_and_trace(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "simulate", *self.SMALL,
            "--metrics-out", str(report_path),
            "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "run report written" in out
        assert "Chrome trace written" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "janus-repro/run-report/v1"
        assert len(report["iterations"]) == 1
        assert report["run"]["model"] == "MoE-GPT"
        assert "metrics" in report
        trace = json.loads(trace_path.read_text())
        assert {"X", "M"} <= {e["ph"] for e in trace["traceEvents"]}

    def test_report_chunks_auto_prints_the_tuning_table(self, tmp_path,
                                                        capsys):
        import json

        out_path = tmp_path / "report.json"
        assert main([
            "report", *self.SMALL, "--paradigm", "pipelined-ec",
            "--chunks", "auto", "--iterations", "2",
            "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "chunk autotuner (2 retune(s)" in out
        assert "Pred ms/chunk" in out
        assert "Meas ms/chunk" in out
        report = json.loads(out_path.read_text())
        assert report["chunk_tuning"]["retunes"] == 2
        assert report["chunk_tuning"]["blocks"]

    def test_report_without_tuning_prints_no_table(self, capsys):
        assert main([
            "report", *self.SMALL, "--paradigm", "pipelined-ec",
            "--iterations", "1",
        ]) == 0
        assert "chunk autotuner" not in capsys.readouterr().out

    def test_simulate_without_export_flags_writes_nothing(self, tmp_path,
                                                          capsys):
        assert main(["simulate", *self.SMALL]) == 0
        assert "written" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_simulate_profile_out_dumps_raw_pstats(self, tmp_path, capsys):
        import pstats

        stats_path = tmp_path / "sim.pstats"
        assert main([
            "simulate", *self.SMALL, "--profile-out", str(stats_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"profile stats written to {stats_path}" in out
        # --profile-out implies profiling but not the stdout table.
        assert "cumulative" not in out
        stats = pstats.Stats(str(stats_path))
        functions = {name for _, _, name in stats.stats}
        assert "run_iteration" in functions

    def test_simulate_profile_and_profile_out_compose(self, tmp_path,
                                                      capsys):
        stats_path = tmp_path / "sim.pstats"
        assert main([
            "simulate", *self.SMALL,
            "--profile", "--profile-out", str(stats_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "profile stats written" in out
        assert "cumulative" in out  # the stdout table still prints
        assert stats_path.exists()

    def test_report_command_writes_multi_iteration_report(self, tmp_path,
                                                          capsys):
        import json

        out_path = tmp_path / "run.json"
        assert main([
            "report", *self.SMALL, "--iterations", "2",
            "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Iter" in out  # summary table header
        assert "task-graph breakdown" in out
        assert "expert-compute" in out
        report = json.loads(out_path.read_text())
        assert len(report["iterations"]) == 2
        assert report["run"]["iterations"] == 2
        assert report["tasks"]["expert-compute"]["count"] > 0

    def test_report_command_stdout_mode(self, capsys):
        assert main([
            "report", *self.SMALL, "--iterations", "1", "--out", "-",
        ]) == 0
        assert '"schema"' in capsys.readouterr().out

    def test_report_command_trace_out(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main([
            "report", *self.SMALL, "--iterations", "1",
            "--out", str(tmp_path / "r.json"), "--trace-out", str(trace_path),
        ]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]


class TestGraphCommand:
    SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
             "--batch-size", "8"]

    def test_graph_validates_and_summarizes(self, capsys):
        assert main(["graph", *self.SMALL, "--paradigm", "auto"]) == 0
        out = capsys.readouterr().out
        assert "task graph OK" in out
        assert "expert-compute" in out

    def test_graph_json_to_stdout_is_pipe_clean(self, capsys):
        import json

        assert main([
            "graph", *self.SMALL, "--paradigm", "microbatch-ec", "--json", "-",
        ]) == 0
        captured = capsys.readouterr()
        # The export owns stdout; the human summary moves to stderr.
        exported = json.loads(captured.out)
        assert exported["num_tasks"] > 0
        assert "task graph OK" in captured.err

    def test_graph_dot_to_file_keeps_summary_on_stdout(self, tmp_path,
                                                       capsys):
        dot_path = tmp_path / "iter.dot"
        assert main([
            "graph", *self.SMALL, "--dot", str(dot_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "task graph OK" in out
        assert f"written to {dot_path}" in out
        assert dot_path.read_text().startswith("digraph taskgraph")


class TestServeCommand:
    TINY = "poisson;rate=500;requests=80;seed=3;prompt_mean=16;output_mean=8"
    SMALL = ["--model", "moe-gpt", "--experts", "16", "--machines", "2",
             "--batch-size", "8"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.topology == "both"
        assert args.max_batch == 64
        assert args.prefill_batch == 8
        assert args.pin_fraction == 0.25
        # The default trace string is parsed into a TraceSpec by argparse.
        assert args.trace.kind == "poisson"
        assert args.trace.rate == 2000.0
        assert args.trace.requests == 10000

    def test_serve_rejects_malformed_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "warp;rate=1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "poisson;rate=-5"])

    def test_serve_topology_and_paradigm_choices(self):
        args = build_parser().parse_args(
            ["serve", "--topology", "unified",
             "--decode-paradigm", "expert-centric"]
        )
        assert args.topology == "unified"
        assert args.decode_paradigm == "expert-centric"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--topology", "sharded"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--decode-paradigm", "magic"])

    def test_serve_runs_both_topologies(self, capsys):
        assert main(["serve", *self.SMALL, "--trace", self.TINY]) == 0
        out = capsys.readouterr().out
        assert "80 requests" in out
        assert "unified" in out and "disaggregated" in out

    def test_serve_report_to_stdout(self, capsys):
        import json

        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--topology", "unified", "--out", "-",
        ]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["schema"] == "janus-repro/serve-report/v1"
        assert set(report["topologies"]) == {"unified"}
        assert report["run"]["trace"]["requests"] == 80

    def test_serve_writes_report_and_trace_files(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "serve.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--out", str(report_path), "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "serving report written" in out
        assert "Chrome trace written" in out
        report = json.loads(report_path.read_text())
        assert set(report["topologies"]) == {"unified", "disaggregated"}
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_serve_invalid_split_exits_2(self, capsys):
        # Two machines, two prefillers: no decoder left.
        assert main([
            "serve", *self.SMALL, "--trace", self.TINY,
            "--topology", "disaggregated", "--prefillers", "2",
        ]) == 2
        assert "invalid serving config" in capsys.readouterr().err

    def test_bench_accepts_serving_suite(self):
        args = build_parser().parse_args(["bench", "--suite", "serving"])
        assert args.suite == "serving"
