"""Weak-scaling benchmark: fleet sizes from 8 to 128 machines.

The speed suite times the paper's Fig.-14 configs at a fixed 4-machine
cluster; this suite grows the *cluster* — MoE-GPT under the
expert-centric paradigm at 8, 16, 32, 64 and 128 machines (experts scale
with the fleet, 8 per machine) — and gates on two properties:

* **structure** (host-independent): wall microseconds per unit of
  simulator work — one kernel event or one admitted flow-ledger row —
  may grow at most ``MAX_PER_UNIT_GROWTH``x from the smallest to the
  largest fleet.  The two grow differently: every machine pair exchanges
  All-to-All traffic, so ledger rows grow ~quadratically with machines,
  while each collective is one flow group and each kernel one event, so
  events grow only linearly, with the task graph.  Each row costs its
  admission, water-fill and retirement and each event its dispatch; a
  superlinear term in any of them (solver, event core, flow tables)
  raises the per-unit cost.  An event costs more than a row and rows
  dominate at scale, so on a healthy sweep the per-unit cost *falls*
  with the fleet: the law has slack at the top point, and a slowdown
  confined to it is the wall gate's to catch;
* **wall clock** (calibration-rescaled like the speed suite): per-point
  medians vs the committed ``benchmarks/BENCH_scale.json``, plus an
  absolute budget — the 128-machine iteration must simulate in under
  ``TOP_ITERATION_BUDGET_S`` seconds after rescaling by the host
  calibration ratio.

The top point simulates several iterations back-to-back so one timed
sample spans over a million units of work.  Points run sequentially
(never a process pool): they share nothing, but timing the 128-machine
point next to four busy siblings would measure the pool, not the
simulator.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .harness import SNAPSHOT_DIR, Suite, calibration_scale, column, ratio
from .speed import time_engine

# Structural gate: wall cost per (event + admitted row) from the smallest
# to the largest fleet in a capture.
MAX_PER_UNIT_GROWTH = 1.3

# Absolute budget for one simulated iteration at the largest fleet,
# rescaled by the calibration ratio when checking against a snapshot.
TOP_ITERATION_BUDGET_S = 10.0


class ScaleBenchConfig(NamedTuple):
    """One weak-scaling point."""

    machines: int
    model: str = "MoE-GPT"
    mode: str = "expert-centric"
    iterations: int = 1     # simulated iterations per timed sample
    runs: int = 1           # timed samples (median reported)

    @property
    def experts(self) -> int:
        return self.machines * 8    # one expert per GPU

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}/{self.machines}m"


# Small points are cheap enough to sample three times (the median then
# shrugs off scheduler noise); the 128-machine point is long enough to be
# its own noise floor and runs four iterations per sample to cross a
# million units of work (~35k events + ~289k rows per iteration).
FULL_CONFIGS: Tuple[ScaleBenchConfig, ...] = (
    ScaleBenchConfig(machines=8, runs=3),
    ScaleBenchConfig(machines=16, runs=3),
    ScaleBenchConfig(machines=32, runs=2),
    ScaleBenchConfig(machines=64, runs=2),
    # Two samples: the first 128-machine run pays cold page faults for
    # gigabyte-scale flow tables; the best sample reflects steady state.
    ScaleBenchConfig(machines=128, iterations=4, runs=2),
)

# CI smoke subset: the scaling law needs two points to exist at all.
# Both are sub-second, so triple-sampling is cheap noise insurance.
QUICK_CONFIGS: Tuple[ScaleBenchConfig, ...] = (
    ScaleBenchConfig(machines=8, runs=3),
    ScaleBenchConfig(machines=16, runs=3),
)


def time_scale_config(spec: ScaleBenchConfig, runs: int = 0) -> Dict:
    """Time one weak-scaling point; the median is seconds per iteration.

    ``runs`` overrides the point's own sample count when positive.  Each
    sample simulates ``spec.iterations`` fresh iterations and reports wall
    seconds per iteration, so samples are comparable across points
    regardless of their iteration multiplier.  The garbage collector is
    paused inside the timed region: at 128 machines its generation-2 scans
    would drown the structural gate in noise.
    """
    from ..cluster import Cluster
    from ..config import TABLE1_MODELS
    from ..core import JanusFeatures

    entry = time_engine(
        spec.mode, TABLE1_MODELS[spec.model](spec.experts),
        Cluster(spec.machines),
        JanusFeatures(topology_aware=True, prefetch=True),
        runs or spec.runs, iterations=spec.iterations, pause_gc=True,
    )
    # A point reports per-unit cost instead of an event rate.  The growth
    # law divides two per-unit costs, so it wants the least-noise
    # estimator: the best sample, not the median (which the wall gate
    # uses — a regression should shift the whole distribution, while
    # scheduler noise only pads it).
    del entry["events_per_s"]
    events = entry["events"]
    units = events + entry["rows"]
    best_us = entry["best_s"] * 1e6
    return {
        "machines": spec.machines,
        "experts": spec.experts,
        "iterations": spec.iterations,
        **entry,
        "events_total": events * spec.iterations,
        "units_total": units * spec.iterations,
        "per_event_us": best_us / events if events else 0.0,
        "per_unit_us": best_us / units if units else 0.0,
    }


def _warmup() -> None:
    """A throwaway 2-machine iteration so no timed point pays first-use
    costs (imports, the compiled water-filling kernel, numpy warm-up)."""
    time_scale_config(ScaleBenchConfig(machines=2), runs=1)


def _config(configs, runs: int) -> Dict:
    return {
        "model": configs[0].model if configs else "",
        "mode": configs[0].mode if configs else "",
        "machines": [spec.machines for spec in configs],
        "features": "topology_aware+prefetch",
    }


def _ordered_points(current: Dict) -> List[Dict]:
    return sorted(
        current.get("runs", {}).values(), key=lambda e: e["machines"]
    )


def check_scale_structure(current: Dict, snapshot: Dict) -> List[str]:
    """Host-independent weak-scaling gate on one capture.

    Wall cost per unit of work (event + admitted row) from the smallest
    to the largest fleet must not grow beyond ``MAX_PER_UNIT_GROWTH``;
    both endpoints come from the same capture on the same host, so no
    calibration is involved.

    The law only engages when the capture spans at least a 4x machine
    range: between adjacent fleet sizes the per-unit delta is scheduler
    noise (sub-second points swing +-20% on a busy one-core runner), not
    scaling structure, and gating on it would make the quick CI subset
    flaky by construction.
    """
    points = _ordered_points(current)
    if len(points) < 2:
        return ["scaling law needs at least two fleet sizes in the capture"]
    first, last = points[0], points[-1]
    if last["machines"] < 4 * first["machines"]:
        return []
    if first["per_unit_us"] <= 0:
        return ["smallest point reported no work"]
    growth = last["per_unit_us"] / first["per_unit_us"]
    if growth > MAX_PER_UNIT_GROWTH:
        return [
            f"per-(event+row) cost grows {growth:.2f}x from "
            f"{first['machines']}m ({first['per_unit_us']:.2f} us) to "
            f"{last['machines']}m ({last['per_unit_us']:.2f} us); "
            f"allowed {MAX_PER_UNIT_GROWTH:.2f}x"
        ]
    return []


def check_top_budget(current: Dict, snapshot: Dict) -> List[str]:
    """The largest fleet's iteration must fit the calibration-rescaled
    ``TOP_ITERATION_BUDGET_S``."""
    points = _ordered_points(current)
    if not points:
        return []
    top = points[-1]
    scale = calibration_scale(current, snapshot)
    budget = TOP_ITERATION_BUDGET_S * scale
    if top["median_s"] <= budget:
        return []
    return [
        f"{top['machines']}m iteration takes {top['median_s']:.2f} s"
        f" vs budget {budget:.2f} s "
        f"({TOP_ITERATION_BUDGET_S:.0f} s x calibration {scale:.2f})"
    ]


# Points run inline (see the module docstring); ``runs`` 0 keeps every
# point's own sample count.
SUITE = Suite(
    name="scale",
    summary="weak-scaling sweep 8-128 machines",
    schema="janus-repro/bench-scale/v1",
    path=SNAPSHOT_DIR / "BENCH_scale.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    runs=(0, 0),
    measure=time_scale_config,
    config=_config,
    columns=(
        column("experts", "experts", "d"),
        column("s/iter", "median_s", ".3f"),
        column("events", "events", "d"),
        column("rows", "rows", "d"),
        column("us/event", "per_event_us", ".2f"),
        column("us/(event+row)", "per_unit_us", ".2f"),
        ("growth", lambda entry, runs: ratio(
            entry, _ordered_points({"runs": runs})[0], "per_unit_us"
        )),
    ),
    gates=(check_scale_structure, check_top_budget),
    wall="wall_s",
    warmup=_warmup,
)
