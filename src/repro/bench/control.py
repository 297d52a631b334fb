"""Benchmark of the adaptive control plane under a drifting workload.

Runs an 8-iteration flip-drift schedule — expert popularity alternates
between balanced and Zipf-skewed phases every two iterations — on a
32-expert MoE-GPT shape sized so the paradigm ordering *crosses over*:
micro-batched expert-centric wins the balanced phases while data-centric
wins the skewed ones.  Every static paradigm (data-centric,
expert-centric, pipelined-ec, microbatch-ec, and the static Eq. 1
``auto`` pick) therefore loses some phase; the adaptive controller,
re-picking per-block paradigms from the measured load signals between
iterations, should win both.

Like the schedules suite this capture gates on two axes:

* wall-clock medians against ``benchmarks/BENCH_control.json`` with the
  shared calibration rescaling, and
* the **structural control win**, a pure simulated-time fact: the
  adaptive run's total simulated seconds must beat *every* static
  paradigm's total on the same drift trajectory.  That holds on any
  host; a violation means the control policy regressed, not a slow
  runner.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .harness import SNAPSHOT_DIR, Suite, beats, column, rate, ratio, sample

# The crossover shape: batch 64 puts the 32-expert block's Eq. 1 gain
# ratio near 1 (R = 1.33 on two machines), where the measured ordering
# flips with skew — micro-batched EC wins balanced phases, data-centric
# wins Zipf-1.5 phases.
_EXPERTS = 32
_BATCH = 64
_MACHINES = 2
_ITERATIONS = 8
_AUTO_THRESHOLD = 1.5

# Drift schedule shared by every run: two balanced iterations, two
# skewed, repeating.  Deterministic per (seed, iteration, block).
_DRIFT = dict(kind="flip", skew=1.5, period=2, seed=7)

# The controller recovers after a single calm observation: the deviation
# signal comes from exact routing aggregates (not noisy samples), so one
# clean reading is decisive and keeps the adaptation lag at zero.
_CONTROL = dict(recover_after_clean=1)


class ControlBenchConfig(NamedTuple):
    """One timed drift schedule: a static paradigm or the adaptive run."""

    mode: str
    adaptive: bool = False

    @property
    def key(self) -> str:
        return "adaptive" if self.adaptive else self.mode


FULL_CONFIGS: Tuple[ControlBenchConfig, ...] = (
    ControlBenchConfig("data-centric"),
    ControlBenchConfig("expert-centric"),
    ControlBenchConfig("pipelined-ec"),
    ControlBenchConfig("microbatch-ec"),
    ControlBenchConfig("auto"),
    ControlBenchConfig("auto", adaptive=True),
)

# CI smoke subset: the adaptive run against the strongest static.
QUICK_CONFIGS: Tuple[ControlBenchConfig, ...] = (
    ControlBenchConfig("microbatch-ec"),
    ControlBenchConfig("auto", adaptive=True),
)


def _build_engine(spec: ControlBenchConfig):
    from ..cluster import Cluster
    from ..config import moe_gpt
    from ..control import ControlConfig, Controller, ControlPolicy
    from ..core import JanusFeatures, build_workload, engine_for
    from ..workloads import DriftSpec

    config = moe_gpt(_EXPERTS).scaled(batch_size=_BATCH)
    cluster = Cluster(_MACHINES)
    workload = build_workload(config, cluster)
    features = JanusFeatures(micro_batches=4, grad_allreduce="overlap")
    controller = Controller(
        policy=(
            ControlPolicy(config=ControlConfig(**_CONTROL))
            if spec.adaptive
            else None
        ),
        drift=DriftSpec(**_DRIFT),
    )
    kwargs = dict(
        workload=workload, features=features, controller=controller,
        check_memory=False,
    )
    if spec.mode in ("auto", "unified"):
        kwargs["threshold"] = _AUTO_THRESHOLD
    return engine_for(spec.mode, config, cluster, **kwargs), controller


def time_control_config(spec: ControlBenchConfig, runs: int = 1) -> Dict:
    """Time ``runs`` cold drift schedules of one config; report the median.

    Each run is a fresh engine + fresh workload driven through the full
    ``_ITERATIONS``-step drift trajectory, so every config — static or
    adaptive — sees bit-identical workload evolution.
    """
    timing, (results, controller) = sample(
        runs,
        lambda built: (built[0].run(_ITERATIONS), built[1]),
        setup=lambda: _build_engine(spec),
    )
    events = sum(result.sim_events for result in results)
    return {
        **timing,
        "sim_seconds": sum(result.seconds for result in results),
        "per_iteration_ms": [
            round(result.seconds * 1e3, 3) for result in results
        ],
        "events": events,
        "events_per_s": rate(events, timing),
        "switches": controller.switch_count,
    }


def _config(configs, runs: int) -> Dict:
    return {
        "model": "MoE-GPT",
        "experts": _EXPERTS,
        "batch_size": _BATCH,
        "machines": _MACHINES,
        "iterations": _ITERATIONS,
        "auto_threshold": _AUTO_THRESHOLD,
        "drift": dict(_DRIFT),
        "control": dict(_CONTROL),
        "runs": runs,
    }


def check_control_wins(current: Dict, snapshot: Dict) -> List[str]:
    """Structural gate: adaptive must beat every static in simulated time."""
    runs = current.get("runs", {})
    if "adaptive" not in runs:
        return ["capture has no 'adaptive' run to gate on"]
    return [
        problem
        for key in runs
        if key != "adaptive"
        for problem in beats(runs, "adaptive", key, "sim_seconds")
    ]


SUITE = Suite(
    name="control",
    summary="adaptive controller vs static paradigms under drift",
    schema="janus-repro/bench-control/v1",
    path=SNAPSHOT_DIR / "BENCH_control.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    # Every config is a full multi-iteration drift schedule, so one run
    # per config is already a stable median.
    runs=(1, 1),
    measure=time_control_config,
    config=_config,
    columns=(
        column("sim ms total", "sim_seconds", ".2f", 1e3),
        ("vs adaptive", lambda entry, runs: ratio(
            entry, runs.get("adaptive"), "sim_seconds"
        )),
        column("switches", "switches", "d"),
        column("wall ms", "median_s", ".1f", 1e3),
        column("events", "events", "d"),
    ),
    gates=(check_control_wins,),
)
