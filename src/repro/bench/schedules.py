"""Benchmark of the task-graph-only schedules (micro-batching, all-reduce).

Times the mixed-R MoE-GPT configuration — one 32-expert block where the
expert-centric family wins and one 256-expert block where data-centric
wins — under the schedules the task graph unlocked: plain expert-centric
(the baseline), micro-batched expert-centric, serial vs. overlapped
backward gradient all-reduce, and the schedule-aware ``auto`` engine.

Unlike the Fig. 14 speed suite, this capture gates on *two* axes:

* wall-clock medians against ``benchmarks/BENCH_schedules.json`` with the
  shared calibration rescaling (simulator efficiency, host-independent),
  and
* the **structural schedule wins**, which are pure simulated-time facts:
  micro-batching must beat plain expert-centric and the overlapped
  all-reduce must beat the serial one.  These hold on any host; a
  violation means a schedule regression, not a slow runner.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .harness import SNAPSHOT_DIR, Suite, beats, column, ratio
from .speed import time_engine

# The mixed-R shape: moe_gpt(32) with block 10 widened to 256 experts.
_MIXED_EXPERTS = {6: 32, 10: 256}
_MACHINES = 4

# Alternative GPU specs for the chunk-sensitive configurations.  On the
# default A100 both mixed-R blocks are deeply comm-bound: the launch
# overhead hides entirely behind the serialized All-to-All chunks, so the
# chunk count barely moves simulated time and any M >= 2 ties.  "tight"
# models a compute-tight accelerator (quarter of the sustained FLOPS,
# 10x the per-kernel launch cost — an older part or one running
# fine-grained unfused experts), where compute and launch overhead sit on
# the critical path and per-block chunk choice genuinely matters: block 6
# (32 experts, 1/worker) wants many chunks, block 10 (256 experts,
# 8/worker) pays 8x the launch tax per extra chunk and wants few.
_GPU_SPECS = {
    "a100": None,
    "tight": {"flops": 45e12, "kernel_overhead": 480e-6},
}


class ScheduleBenchConfig(NamedTuple):
    """One timed schedule of the mixed-R model."""

    mode: str
    micro_batches: int = 1
    grad_allreduce: str = "none"
    # All-to-All chunking: a fixed count (JanusFeatures.ec_pipeline_chunks)
    # or "auto" for the cost-model chunk tuner; None keeps the default.
    chunks: Optional[object] = None
    # Intra-A2A chunk scheduling ("off", "wave", "chain").
    stagger: str = "off"
    # GPU spec name from _GPU_SPECS.
    gpu: str = "a100"

    @property
    def key(self) -> str:
        parts = [self.mode]
        if self.gpu != "a100":
            parts.append(self.gpu)
        if self.micro_batches > 1:
            parts.append(f"mb{self.micro_batches}")
        if self.chunks == "auto":
            parts.append("auto")
        elif self.chunks is not None:
            parts.append(f"c{self.chunks}")
        if self.grad_allreduce != "none":
            parts.append(f"ar-{self.grad_allreduce}")
        if self.stagger != "off":
            parts.append("stagger" if self.stagger == "chain" else
                         self.stagger)
        return "/".join(parts)


FULL_CONFIGS: Tuple[ScheduleBenchConfig, ...] = (
    ScheduleBenchConfig("expert-centric"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4),
    ScheduleBenchConfig("expert-centric", grad_allreduce="serial"),
    ScheduleBenchConfig("expert-centric", grad_allreduce="overlap"),
    ScheduleBenchConfig("auto", micro_batches=4),
    # Chunk autotuning: the tuner's per-block counts must beat every
    # fixed M on the compute-tight spec (and strictly beat at least one).
    ScheduleBenchConfig("pipelined-ec", chunks=1, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks=2, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks=4, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks=8, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks="auto", gpu="tight"),
    # Intra-A2A scheduling: arbitrated NIC fabric, unscheduled wave
    # launch vs. micro-round staggered grants.
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="wave"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="chain"),
)

# CI smoke subset: the headline structural wins plus their baselines —
# micro-batching vs. plain EC, tuned vs. best-fixed chunks, staggered
# vs. wave chunk sends.
QUICK_CONFIGS: Tuple[ScheduleBenchConfig, ...] = (
    ScheduleBenchConfig("expert-centric"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4),
    ScheduleBenchConfig("pipelined-ec", chunks=2, gpu="tight"),
    ScheduleBenchConfig("pipelined-ec", chunks="auto", gpu="tight"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="wave"),
    ScheduleBenchConfig("microbatch-ec", micro_batches=4, stagger="chain"),
)


def _mixed_model():
    from ..config import moe_gpt

    return moe_gpt(32).scaled(experts_per_block=dict(_MIXED_EXPERTS))


def time_schedule_config(spec: ScheduleBenchConfig, runs: int = 2) -> Dict:
    """Time ``runs`` cold iterations of one schedule; report the median."""
    from ..cluster import Cluster
    from ..cluster.hardware import GpuSpec, MachineSpec
    from ..core import JanusFeatures

    gpu_overrides = _GPU_SPECS[spec.gpu]
    cluster = (
        Cluster(_MACHINES, spec=MachineSpec(gpu=GpuSpec(**gpu_overrides)))
        if gpu_overrides is not None
        else Cluster(_MACHINES)
    )
    feature_kwargs = {}
    if spec.chunks == "auto":
        feature_kwargs["chunk_autotune"] = True
    elif spec.chunks is not None:
        feature_kwargs["ec_pipeline_chunks"] = spec.chunks
    features = JanusFeatures(
        micro_batches=spec.micro_batches,
        grad_allreduce=spec.grad_allreduce,
        a2a_stagger=spec.stagger,
        **feature_kwargs,
    )
    return time_engine(
        spec.mode, _mixed_model(), cluster, features, runs,
        check_memory=False,
    )


def _config(configs, runs: int) -> Dict:
    return {
        "model": "MoE-GPT",
        "experts_per_block": {
            str(block): count
            for block, count in sorted(_MIXED_EXPERTS.items())
        },
        "machines": _MACHINES,
        "runs": runs,
    }


# (faster key, slower key) — simulated-time orderings the schedules must
# preserve on every host.  Pairs whose keys a capture did not run (the
# --quick subset) are skipped.
STRUCTURAL_WINS: Tuple[Tuple[str, str], ...] = (
    ("microbatch-ec/mb4", "expert-centric"),
    ("expert-centric/ar-overlap", "expert-centric/ar-serial"),
    ("auto/mb4", "expert-centric"),
    # Intra-A2A chunk scheduling: with the NIC fabric arbitrated, the
    # micro-round stagger must beat the unscheduled wave launch.
    ("microbatch-ec/mb4/stagger", "microbatch-ec/mb4/wave"),
)

# Chunk-autotune gate: the tuned run must be no slower than *every* fixed
# chunk count captured for the same schedule/spec, and strictly faster
# than at least one of them (else the tuner is dead weight).
AUTOTUNE_WIN: Tuple[str, str] = ("pipelined-ec/tight/auto",
                                 "pipelined-ec/tight/c")


def check_schedule_wins(current: Dict, snapshot: Dict) -> List[str]:
    """Structural gate: the schedule speedups must hold in simulated time."""
    runs = current.get("runs", {})
    problems = [
        problem
        for fast, slow in STRUCTURAL_WINS
        if fast in runs and slow in runs
        for problem in beats(runs, fast, slow, "sim_seconds")
    ]
    return problems + check_autotune_win(current, snapshot)


def check_autotune_win(current: Dict, snapshot: Dict) -> List[str]:
    """The cost-model-tuned chunks must dominate the fixed-M sweep."""
    runs = current.get("runs", {})
    auto_key, fixed_prefix = AUTOTUNE_WIN
    if auto_key not in runs:
        return []
    fixed = {
        key: entry["sim_seconds"]
        for key, entry in runs.items()
        if key.startswith(fixed_prefix)
    }
    if not fixed:
        return []
    auto = runs[auto_key]["sim_seconds"]
    problems = []
    for key, seconds in sorted(fixed.items()):
        if auto > seconds:
            problems.append(
                f"{auto_key}: simulated {auto * 1e3:.2f} ms/iter is slower "
                f"than fixed {key} ({seconds * 1e3:.2f} ms/iter)"
            )
    if not problems and not any(auto < seconds
                                for seconds in fixed.values()):
        problems.append(
            f"{auto_key}: simulated {auto * 1e3:.2f} ms/iter beats no "
            f"fixed chunk count (tuner is dead weight)"
        )
    return problems


SUITE = Suite(
    name="schedules",
    summary="task-graph schedules on the mixed-R model",
    schema="janus-repro/bench-schedules/v1",
    path=SNAPSHOT_DIR / "BENCH_schedules.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    runs=(2, 1),
    measure=time_schedule_config,
    config=_config,
    columns=(
        column("sim ms/iter", "sim_seconds", ".2f", 1e3),
        ("vs EC", lambda entry, runs: ratio(
            runs.get("expert-centric"), entry, "sim_seconds"
        )),
        column("wall ms", "median_s", ".1f", 1e3),
        column("events", "events", "d"),
    ),
    gates=(check_schedule_wins,),
)
