"""Benchmark of the request-level serving simulator (``--suite serving``).

Replays seeded open-loop traces through :mod:`repro.serving` on both
topologies and gates on two axes, mirroring the schedules/control suites:

* wall-clock medians against ``benchmarks/BENCH_serving.json`` with the
  shared calibration rescaling, and
* the **structural serving win**, a pure simulated-time fact: on the
  skewed-popularity trace the disaggregated prefill/decode topology must
  beat the unified topology's p99 per-output-token latency.  Unified
  workers interleave prefills between decode steps, so a decode token
  occasionally waits behind a whole prompt (head-of-line blocking);
  dedicated decoders with streamed multi-NIC KV transfer and hot-expert
  pinning keep that out of the tail.  This ordering holds on any host —
  a violation means the serving model regressed, not a slow runner.

Every run also re-checks completeness (all offered requests finished)
and, when the snapshot was captured under the same NumPy version,
bit-reproducibility of the per-request latency digest.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .harness import SNAPSHOT_DIR, Suite, beats, column, rate, sample

# Cluster/model shape shared by every run: the bench-speed MoE-GPT shape
# on four machines — two prefillers + two decoders when disaggregated.
_EXPERTS = 32
_MACHINES = 4

# Seeded arrival traces (request count is filled per config).  The skewed
# trace is the canonical one: rate 3000/s saturates unified workers hard
# enough that prefill head-of-line blocking dominates the decode tail,
# and Zipf-1.2 popularity gives decode-side pinning real hits.
_TRACES: Dict[str, str] = {
    "skewed": (
        "poisson;rate=3000;seed=7;skew=1.2;prompt_mean=128;output_mean=32"
    ),
    "uniform": (
        "poisson;rate=3000;seed=11;prompt_mean=128;output_mean=32"
    ),
    "diurnal": (
        "diurnal;rate=2500;amplitude=0.8;period=4;seed=13;"
        "prompt_mean=128;output_mean=32;skew=1.2"
    ),
    "bursty": (
        "bursty;rate=2000;burst=4;duty=0.2;seed=17;"
        "prompt_mean=128;output_mean=32;skew=1.2"
    ),
}


# Simulated serving KPIs copied from the run summary into each entry.
_SUMMARY_KEYS = (
    "makespan_s", "ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms",
    "tpot_p99_ms", "slo_attainment", "goodput_rps", "nic_gb",
)


class ServingBenchConfig(NamedTuple):
    """One timed serving run: a named trace on one topology."""

    trace: str
    topology: str
    requests: int

    @property
    def key(self) -> str:
        return f"{self.trace}/{self.topology}"


FULL_CONFIGS: Tuple[ServingBenchConfig, ...] = (
    ServingBenchConfig("skewed", "unified", 50_000),
    ServingBenchConfig("skewed", "disaggregated", 50_000),
    ServingBenchConfig("uniform", "unified", 20_000),
    ServingBenchConfig("uniform", "disaggregated", 20_000),
    ServingBenchConfig("diurnal", "disaggregated", 20_000),
    ServingBenchConfig("bursty", "unified", 20_000),
)

# CI smoke subset: the structural pair on a smaller trace.
QUICK_CONFIGS: Tuple[ServingBenchConfig, ...] = (
    ServingBenchConfig("skewed", "unified", 8_000),
    ServingBenchConfig("skewed", "disaggregated", 8_000),
)


def _build_run(spec: ServingBenchConfig):
    from ..cluster import Cluster
    from ..config import moe_gpt
    from ..serving import ServingConfig, TraceSpec, generate_trace

    trace_spec = TraceSpec.parse(
        f"{_TRACES[spec.trace]};requests={spec.requests}"
    )
    return (
        moe_gpt(_EXPERTS),
        Cluster(_MACHINES),
        generate_trace(trace_spec),
        ServingConfig(topology=spec.topology),
    )


def time_serving_config(spec: ServingBenchConfig, runs: int = 1) -> Dict:
    """Time ``runs`` cold serving runs of one config; report the median.

    Each run regenerates the trace and rebuilds the cluster/fabric, so
    the sample includes exactly what ``repro serve`` pays.  The simulated
    facts (latency percentiles, goodput, digest) are bit-identical across
    runs — the final run's summary is reported.
    """
    from ..serving import simulate_serving

    timing, result = sample(
        runs, lambda _: simulate_serving(*_build_run(spec))
    )
    summary = result.summary()
    events = int(summary.get("sim_events", 0))
    return {
        **timing,
        "events": events,
        "events_per_s": rate(events, timing),
        "requests": summary.get("requests", 0),
        # Unserved requests keep the -1.0 sentinel completion stamp.
        "completed_ok": bool((result.complete_s >= 0.0).all()),
        **{key: summary.get(key, 0.0) for key in _SUMMARY_KEYS},
        "paradigms": summary.get("paradigms", {}),
        "digest": result.digest(),
    }


def _config(configs, runs: int) -> Dict:
    return {
        "model": "MoE-GPT",
        "experts": _EXPERTS,
        "machines": _MACHINES,
        "traces": {
            spec.trace: f"{_TRACES[spec.trace]};requests={spec.requests}"
            for spec in configs
        },
        "runs": runs,
    }


def check_serving_wins(current: Dict, snapshot: Dict) -> List[str]:
    """Structural gate, independent of host speed.

    * disaggregated p99 per-output-token latency beats unified on the
      skewed trace (the Janus-inference disaggregation claim), and
    * every run completed all offered requests.
    """
    problems = []
    runs = current.get("runs", {})
    for key, entry in runs.items():
        if not entry.get("completed_ok", False):
            problems.append(f"{key}: not every offered request completed")
    if not {"skewed/unified", "skewed/disaggregated"} <= set(runs):
        return problems + [
            "capture is missing the skewed unified/disaggregated pair"
        ]
    return problems + beats(
        runs, "skewed/disaggregated", "skewed/unified", "tpot_p99_ms"
    )


def check_digest(current: Dict, snapshot: Dict) -> List[str]:
    """Digest pin: the per-request latency digest must be bit-identical.

    Compared only when the snapshot was captured under the same NumPy
    version: the arrival sampler leans on ``Generator`` distribution
    methods whose bit streams NumPy does not freeze across releases.
    """
    numpy_versions = {
        capture.get("host", {}).get("numpy") for capture in (current, snapshot)
    }
    if len(numpy_versions) > 1:
        return []
    problems = []
    snap_runs = snapshot.get("runs", {})
    for key, entry in current.get("runs", {}).items():
        pinned = snap_runs.get(key, {}).get("digest")
        # --quick replays shorter traces under the same keys; digests are
        # only comparable when the request counts match too.
        if entry.get("requests") != snap_runs.get(key, {}).get("requests"):
            continue
        if pinned and entry.get("digest") != pinned:
            problems.append(
                f"{key}: latency digest {entry.get('digest', '')[:12]} != "
                f"snapshot {pinned[:12]} (simulation no longer "
                "bit-reproducible)"
            )
    return problems


SUITE = Suite(
    name="serving",
    summary="request-level serving traces on both topologies",
    schema="janus-repro/bench-serving/v1",
    path=SNAPSHOT_DIR / "BENCH_serving.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    # One run per config: the simulated facts are bit-identical across
    # repeats, and the largest trace replays 50k requests.
    runs=(1, 1),
    measure=time_serving_config,
    config=_config,
    columns=(
        column("p99 TTFT ms", "ttft_p99_ms", ".2f"),
        column("p99 TPOT ms", "tpot_p99_ms", ".3f"),
        column("SLO", "slo_attainment", ".1%"),
        column("goodput/s", "goodput_rps", ".0f"),
        column("wall s", "median_s", ".2f"),
        column("events/s", "events_per_s", ".0f"),
    ),
    gates=(check_serving_wins, check_digest),
)
