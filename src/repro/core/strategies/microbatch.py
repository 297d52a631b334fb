"""Micro-batched expert-centric execution.

Splits the global batch into M micro-batches and gives each its own worker
lane per rank, so the per-micro-batch block DAGs interleave: micro-batch
``i``'s expert compute overlaps micro-batch ``i+1``'s dispatch All-to-All
*across block boundaries* — the pipeline-parallel schedule of Parm/FlowMoE
generalized past a single block.  Each micro-batch carries 1/M of the
tokens (and of the dense flops, handled by the engine's micro worker
lanes) but pays the full kernel-launch overhead per block, which is the
cost that bounds useful M.

With ``micro_batches=1`` the graph builder uses the plain expert-centric
hooks this strategy inherits, so M=1 runs exactly as expert-centric.
"""

from __future__ import annotations

from .base import register_strategy
from .expert_centric import ExpertCentricStrategy

__all__ = ["MicroBatchExpertCentricStrategy"]


@register_strategy
class MicroBatchExpertCentricStrategy(ExpertCentricStrategy):
    """Expert-centric with M interleaved micro-batch pipelines."""

    name = "microbatch-ec"
    micro_capable = True

    def _micro_label(self, phase: str, index: int, m: int) -> str:
        return f"{self.name}.{phase}.b{index}.mb{m}"

    def micro_worker_tasks(self, ctx, rank: int, index: int, phase: str,
                           micro: int, micro_batches: int):
        return self._ec_worker_tasks(
            ctx, rank, index, phase, self._micro_label(phase, index, micro),
            micro_batches, f":mb{micro}",
        )

    def micro_service_lanes(self, ctx, graph, forward_only: bool,
                            micro_batches: int):
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        return [
            self._coordinator_lane(
                ctx, graph, index, phase, self._micro_label(phase, index, m),
                micro_batches, f":mb{m}",
            )
            for index in self.blocks
            for phase in phases
            for m in range(micro_batches)
        ]
