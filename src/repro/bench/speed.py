"""Wall-clock timing of the Fig. 14 simulation configs (``--suite sim``).

Each config runs ``runs`` cold iterations and reports the median seconds
per simulated iteration plus kernel events per host-second.  The configs
are independent, so the driver fans them out across a process pool and
records the multi-config scaling in the capture's ``parallel`` section.
The committed snapshot is ``benchmarks/BENCH_speed.json``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .harness import SNAPSHOT_DIR, Suite, column, rate, sample


class BenchConfig(NamedTuple):
    """One timed simulation configuration (a Fig. 14 comparison point)."""

    model: str
    mode: str
    experts: int = 32
    machines: int = 4

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}"


_MODES = ("expert-centric", "data-centric", "pipelined-ec", "unified")
_MODELS = ("MoE-BERT", "MoE-GPT", "MoE-Transformer-xl")

FULL_CONFIGS: Tuple[BenchConfig, ...] = tuple(
    BenchConfig(model, mode) for model in _MODELS for mode in _MODES
)

# CI smoke subset: the headline model under the three paradigms the paper
# compares head-to-head.
QUICK_CONFIGS: Tuple[BenchConfig, ...] = tuple(
    BenchConfig("MoE-GPT", mode)
    for mode in ("expert-centric", "data-centric", "unified")
)


def time_engine(mode, config, cluster, features, runs: int,
                iterations: int = 1, pause_gc: bool = False, **engine_kwargs):
    """Time ``runs`` samples of ``iterations`` cold simulated iterations.

    Engine and workload construction happen outside the timed region: a
    sample is seconds per :meth:`JanusEngine.run_iteration` (one fresh
    engine and :class:`Environment` per iteration), i.e. the simulation
    loop itself.  Returns the ``runs`` entry: the timing plus the last
    iteration's simulated seconds and kernel events.

    ``pause_gc`` pauses the cyclic garbage collector inside the timed
    region (and restores it after): generation-2 collections scan the
    whole live heap, which at fleet scale holds the iteration's task graph
    and every in-flight flow — a term that belongs to allocator policy,
    not to the simulator (measured 8.5 vs 6.5 us/event with gc on vs off
    at the 128-machine scale point).  This is the same discipline
    pytest-benchmark applies by default.
    """
    import gc

    from ..core import build_workload, engine_for

    workload = build_workload(config, cluster)

    def setup():
        engines = [
            engine_for(mode, config, cluster, workload=workload,
                       features=features, **engine_kwargs)
            for _ in range(iterations)
        ]
        if pause_gc:
            gc.collect()
        return engines

    def body(engines):
        paused = pause_gc and gc.isenabled()
        if paused:
            gc.disable()
        try:
            for engine in engines:
                result = engine.run_iteration()
        finally:
            if paused:
                gc.enable()
        return result

    timing, result = sample(runs, body, setup=setup, per=iterations)
    return {
        **timing,
        "sim_seconds": result.seconds,
        "events": result.sim_events,
        "events_per_s": rate(result.sim_events, timing),
    }


def time_config(spec: BenchConfig, runs: int = 3) -> Dict:
    """Time ``runs`` cold iterations of one config; report the median."""
    from ..cluster import Cluster
    from ..config import TABLE1_MODELS
    from ..core import JanusFeatures

    return time_engine(
        spec.mode, TABLE1_MODELS[spec.model](spec.experts),
        Cluster(spec.machines),
        JanusFeatures(topology_aware=True, prefetch=True), runs,
    )


def _config(configs, runs: int) -> Dict:
    return {
        "experts": configs[0].experts if configs else 0,
        "machines": configs[0].machines if configs else 0,
        "features": "full",
        "runs": runs,
    }


SUITE = Suite(
    name="sim",
    summary="simulator Fig. 14 configs",
    schema="janus-repro/bench-speed/v1",
    path=SNAPSHOT_DIR / "BENCH_speed.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    runs=(3, 1),
    measure=time_config,
    config=_config,
    columns=(
        column("median ms/run", "median_s", ".1f", 1e3),
        column("best", "best_s", ".1f", 1e3),
        column("events", "events", "d"),
        column("events/s", "events_per_s", ".0f"),
    ),
    wall="parallel",
)
