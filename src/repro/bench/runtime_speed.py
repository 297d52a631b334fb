"""Wall-clock timing of the numerical runtime (``--suite runtime``).

The host-time counterpart of the simulator suite, pointed at the
*numerical* half of the repo: the tensorlib autograd engine driving the
expert-centric / data-centric executors through full
:class:`~repro.runtime.trainer.DistributedTrainer` steps.  Each config
builds a distributed model once, runs warm-up steps (which also fill the
data-centric replica pool), then times ``runs`` steady-state steps and
reports the median host-seconds per step plus routed token-slots per
second.  The committed snapshot is ``benchmarks/BENCH_runtime.json``.

Timing is float64 by default — the dtype the equivalence battery pins —
and ``dtype="float32"`` is an opt-in for experiments; float32 captures
are never comparable to a float64 snapshot, which the dtype gate
enforces.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .harness import SNAPSHOT_DIR, Suite, column, rate, sample

_DTYPES = ("float64", "float32")


class RuntimeBenchConfig(NamedTuple):
    """One timed trainer-step configuration."""

    model: str
    mode: str  # "expert-centric" | "data-centric"
    machines: int = 2
    workers: int = 2

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}"


FULL_CONFIGS: Tuple[RuntimeBenchConfig, ...] = tuple(
    RuntimeBenchConfig(model, mode)
    for model in ("trainer-small", "trainer-moe-gpt")
    for mode in ("expert-centric", "data-centric")
)

# CI smoke subset: one steady-state trainer config (data-centric exercises
# the replica pool as well as the sorted dispatch path).
QUICK_CONFIGS: Tuple[RuntimeBenchConfig, ...] = (
    RuntimeBenchConfig("trainer-moe-gpt", "data-centric"),
)


# Numerics-scale model shapes.  ``trainer-moe-gpt`` keeps MoE-GPT's block
# layout (causal decoder, one late MoE block, top_k=4) at a width the
# float64 numpy engine can step in tens of milliseconds; ``trainer-small``
# is the smoke shape.
_MODEL_SHAPES = {
    "trainer-small": dict(
        batch_size=4, seq_len=8, top_k=2, hidden_dim=32, num_blocks=2,
        experts_per_block={1: 8}, num_heads=4, vocab_size=128,
    ),
    "trainer-moe-gpt": dict(
        batch_size=4, seq_len=32, top_k=4, hidden_dim=64, num_blocks=4,
        experts_per_block={3: 16}, num_heads=8, vocab_size=256,
    ),
}


def _runtime_model_config(name: str):
    from ..config import ModelConfig

    if name not in _MODEL_SHAPES:
        raise ValueError(f"unknown runtime bench model: {name!r}")
    return ModelConfig(name=name, causal=True, **_MODEL_SHAPES[name])


def _build_trainer(spec: RuntimeBenchConfig):
    from ..runtime import DistributedMoETransformer, DistributedTrainer, RankLayout
    from ..tensorlib import Adam
    from ..workloads import target_batches, token_batches

    config = _runtime_model_config(spec.model)
    layout = RankLayout(spec.machines, spec.workers)
    moe_blocks = {index: spec.mode for index in config.moe_block_indices}
    model = DistributedMoETransformer(
        config, layout, paradigm_for_block=moe_blocks,
        rng=np.random.default_rng(0),
    )
    trainer = DistributedTrainer(model, Adam(model.parameters(), lr=1e-3))
    rng = np.random.default_rng(1)
    batches = token_batches(config, layout.world_size, rng=rng)
    targets = target_batches(config, layout.world_size, rng=rng)
    return config, layout, trainer, batches, targets


def time_runtime_config(
    spec: RuntimeBenchConfig,
    runs: int = 3,
    warmup: int = 1,
    dtype: str = "float64",
) -> Dict:
    """Time ``runs`` steady-state trainer steps; report the median.

    Model/optimizer construction and ``warmup`` steps happen outside the
    timed region, so the number is host-seconds per
    :meth:`DistributedTrainer.step` in steady state (replica pools filled,
    optimizer state allocated).
    """
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {_DTYPES}, got {dtype!r}")
    from ..tensorlib import default_dtype

    with default_dtype(getattr(np, dtype)):
        config, layout, trainer, batches, targets = _build_trainer(spec)
        for _ in range(max(0, warmup)):
            trainer.step(batches, targets)
        timing, _ = sample(runs, lambda _: trainer.step(batches, targets))
    # Routed token-slots per step across all workers: B*S*k per worker.
    slots = config.tokens_per_worker * layout.world_size
    return {
        **timing,
        "token_slots": slots,
        "token_slots_per_s": rate(slots, timing),
        "loss": trainer.last_loss,
    }


def _config(configs, runs: int, dtype: str = "float64") -> Dict:
    return {"runs": runs, "warmup": 1, "dtype": dtype}


def check_dtype(current: Dict, snapshot: Dict) -> List[str]:
    """float32 runs ~2x faster; comparing across dtypes would either mask
    or fake a regression."""
    cur_dtype = current.get("config", {}).get("dtype")
    snap_dtype = snapshot.get("config", {}).get("dtype")
    if cur_dtype == snap_dtype:
        return []
    return [
        f"dtype mismatch: capture is {cur_dtype}, snapshot is "
        f"{snap_dtype} (timings are not comparable)"
    ]


SUITE = Suite(
    name="runtime",
    summary="numerical trainer steps",
    schema="janus-repro/bench-runtime/v1",
    path=SNAPSHOT_DIR / "BENCH_runtime.json",
    full=FULL_CONFIGS,
    quick=QUICK_CONFIGS,
    runs=(3, 2),
    measure=time_runtime_config,
    config=_config,
    columns=(
        column("median ms/step", "median_s", ".1f", 1e3),
        column("best", "best_s", ".1f", 1e3),
        column("slots", "token_slots", "d"),
        column("slots/s", "token_slots_per_s", ".0f"),
    ),
    gates=(check_dtype,),
    options=("dtype",),
    wall="wall_s",
)
