"""Expert-centric block execution: bulk-synchronous All-to-All.

The Tutel-equivalent baseline and the expert-centric mode of unified Janus:
all workers rendezvous at the block, a coordinator runs the dispatch
All-to-All, every worker computes its resident experts on the received
tokens, and the combine All-to-All returns the results.

The two task bodies here, :func:`compute_body` and :func:`a2a_body`, are
shared by every expert-centric variant: pipelined-ec runs them on 1/K of
the block's tokens per chunk, microbatch-ec on 1/M per micro-batch.
"""

from __future__ import annotations

from typing import Tuple

from ...netsim import all_to_all
from ..memory_model import EC_A2A_SLACK
from ..taskgraph import Task, TaskKind, gpu_claim
from .base import BlockStrategy, register_strategy

__all__ = ["ExpertCentricStrategy", "a2a_body", "compute_body"]

_BACKWARD = 2.0


def compute_body(engine, ctx, rank: int, index: int, phase: str,
                 split: int, detail: str):
    """Task body: ``rank`` computes its resident experts on 1/``split`` of
    the tokens they received for block ``index``.

    Every split pays the full kernel-launch overhead — one batched GEMM
    group per resident expert — which is the cost that bounds useful
    chunk and micro-batch counts.  ``split=1`` is the plain block.
    """

    def body():
        workload = engine.workload
        block = workload.blocks[index]
        placement = ctx.placements[index]
        gpu_flops = engine._rank_flops(rank)
        mult = _BACKWARD if phase == "bwd" else 1.0
        received = sum(
            int(block.routing[:, expert].sum())
            for expert in placement.experts_of(rank)
        )
        overhead = (
            engine.cluster.spec.gpu.kernel_overhead
            * placement.experts_per_worker
        )
        seconds = engine._jittered(
            (received / split * workload.expert_flops / gpu_flops + overhead)
            * mult
        )
        start = ctx.env.now
        yield ctx.env.process(ctx.fabric.compute(ctx.gpu_of[rank], seconds))
        if rank == engine.trace_worker:
            ctx.trace.record(
                "compute.expert", start, ctx.env.now,
                worker=rank, block=index, detail=detail,
            )

    return body


def a2a_body(engine, ctx, index: int, phase: str, split: int, combine: bool,
             suffix: str = ""):
    """Task body: one dispatch (or, with ``combine``, combine) All-to-All
    carrying 1/``split`` of block ``index``'s token matrix."""

    def body():
        workload = engine.workload
        block = workload.blocks[index]
        matrix = block.tokens_sent_matrix(
            ctx.placements[index], workload.token_bytes
        ) / split
        if combine:
            matrix = matrix.T
        start = ctx.env.now
        yield all_to_all(
            ctx.fabric, matrix,
            hierarchical=engine.features.hierarchical_a2a,
        )
        side = "combine" if combine else "dispatch"
        ctx.trace.record(
            "comm.a2a", start, ctx.env.now, block=index,
            detail=f"{phase}-{side}{suffix}",
        )

    return body


@register_strategy
class ExpertCentricStrategy(BlockStrategy):
    """Synchronous dispatch-compute-combine over All-to-All (§2.2)."""

    name = "expert-centric"

    def _label(self, phase: str, index: int) -> str:
        return f"{self.name}.{phase}.b{index}"

    def _ec_worker_tasks(self, ctx, rank: int, index: int, phase: str,
                         p: str, split: int, suffix: str):
        """Arrive, compute on 1/``split`` of the tokens, leave — the worker
        side of the block whose coordinator lane is labelled ``p``."""
        return [
            Task(
                f"{p}.w{rank}.arrive", TaskKind.GATE,
                signals=(f"{p}.arrive.{rank}",),
                worker=rank, block=index, phase=phase, traced=False,
            ),
            Task(
                f"{p}.w{rank}.compute", TaskKind.EXPERT_COMPUTE,
                waits=(f"{p}.dispatched",),
                signals=(f"{p}.computed.{rank}",),
                body=compute_body(
                    self.engine, ctx, rank, index, phase, split,
                    f"{phase}:ec{suffix}",
                ),
                claims=gpu_claim(rank),
                worker=rank, block=index, phase=phase,
                detail=f"{phase}:ec{suffix}",
            ),
            Task(
                f"{p}.w{rank}.leave", TaskKind.GATE,
                waits=(f"{p}.combined",),
                worker=rank, block=index, phase=phase, traced=False,
            ),
        ]

    def _coordinator_lane(self, ctx, graph, index: int, phase: str, p: str,
                          split: int, suffix: str):
        """The lane running block ``index``'s dispatch All-to-All once every
        worker arrived, and its combine once every worker computed."""
        world = self.engine.workload.world_size
        lane = graph.lane(f"{p}.coordinator", role="service")
        for side, waits, signal in (
            ("dispatch", "arrive", "dispatched"),
            ("combine", "computed", "combined"),
        ):
            lane.add(Task(
                f"{p}.a2a-{side}", TaskKind.A2A_CHUNK,
                waits=tuple(f"{p}.{waits}.{r}" for r in range(world)),
                signals=(f"{p}.{signal}",),
                body=a2a_body(
                    self.engine, ctx, index, phase, split,
                    combine=side == "combine", suffix=suffix,
                ),
                block=index, phase=phase, detail=f"{phase}-{side}{suffix}",
            ))
        return lane

    def worker_tasks(self, ctx, rank: int, index: int, phase: str):
        return self._ec_worker_tasks(
            ctx, rank, index, phase, self._label(phase, index), 1, ""
        )

    def service_lanes(self, ctx, graph, forward_only: bool):
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        return [
            self._coordinator_lane(
                ctx, graph, index, phase, self._label(phase, index), 1, ""
            )
            for index in self.blocks
            for phase in phases
        ]

    @classmethod
    def memory_terms(
        cls, config, num_blocks: int, credit_size: int, pipeline_chunks: int,
    ) -> Tuple[float, ...]:
        """Capacity-padded dispatch+combine payload copies alive until the
        block's backward completes — the Tutel buffer bloat of Fig. 16."""
        routed = config.tokens_per_worker * config.token_bytes
        return (EC_A2A_SLACK * 2.0 * routed * num_blocks,)
