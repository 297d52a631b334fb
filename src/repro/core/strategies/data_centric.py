"""Data-centric block execution: the Janus Task Queue pull pipeline.

Blocks run through per-worker Intra-Node Schedulers pulling experts
(credit-gated, optionally staggered and peer-scheduled) while per-machine
Inter-Node Schedulers fetch external experts into the cache; workers
compute each expert as it arrives and push gradients home in the backward
sweep (pre-reduced per machine when the hierarchical cache is on).
"""

from __future__ import annotations

from typing import Tuple

from ...cluster import Device
from ..inter_scheduler import InterNodeScheduler
from ..intra_scheduler import IntraNodeScheduler
from ..taskgraph import Task, TaskKind
from .base import BlockStrategy, register_strategy

__all__ = ["DataCentricStrategy"]

_BACKWARD = 2.0


@register_strategy
class DataCentricStrategy(BlockStrategy):
    """Fine-grained expert pulls through the Janus Task Queue (§4, §5)."""

    name = "data-centric"
    uses_task_queue = True

    def worker_tasks(self, ctx, rank: int, index: int, phase: str):
        """One composite task: compute resident experts, then each pulled
        expert as the Task Queue delivers it."""
        return [Task(
            f"{self.name}.{phase}.b{index}.w{rank}",
            TaskKind.EXPERT_COMPUTE,
            body=lambda: self._block_body(ctx, rank, index, phase),
            worker=rank, block=index, phase=phase,
            detail=f"{phase}:{self.name}",
        )]

    def _block_body(self, ctx, rank: int, index: int, phase: str):
        engine = self.engine
        workload = engine.workload
        block = workload.blocks[index]
        gpu = ctx.gpu_of[rank]
        gpu_flops = engine._rank_flops(rank)
        backward = phase == "bwd"
        mult = _BACKWARD if backward else 1.0
        record = rank == engine.trace_worker
        routing = block.routing[rank]

        overhead = engine.cluster.spec.gpu.kernel_overhead

        def expert_seconds(expert: int) -> float:
            return engine._jittered(
                (routing[expert] * workload.expert_flops / gpu_flops + overhead)
                * mult
            )

        # Resident experts first — they need no communication at all.
        for expert in ctx.own_experts_with_tokens(index, rank):
            start = ctx.env.now
            yield ctx.fabric.compute(gpu, expert_seconds(expert))
            if record:
                ctx.trace.record(
                    "compute.expert", start, ctx.env.now,
                    worker=rank, block=index, detail=f"{phase}:own:{expert}",
                )

        needed = ctx.needed_experts(index, rank)
        store = ctx.ready_store(phase, index, rank)
        for _ in range(len(needed)):
            expert = yield store.get()
            start = ctx.env.now
            yield ctx.fabric.compute(gpu, expert_seconds(expert))
            if record:
                ctx.trace.record(
                    "compute.expert", start, ctx.env.now,
                    worker=rank, block=index, detail=f"{phase}:{expert}",
                )
            ctx.credits[rank].put_nowait(1)
            if not backward:
                # Offload the used expert to host memory for backward reuse
                # (asynchronous; does not block the pipeline).
                ctx.fabric.transfer(
                    gpu,
                    Device.host(ctx.layout.machine_of(rank)),
                    workload.expert_bytes,
                    tag=("offload", index, rank, expert),
                )
            else:
                self._push_gradient(ctx, rank, index, expert)

    def service_lanes(self, ctx, graph, forward_only: bool):
        if not ctx.dc_block_indices:
            return []
        lanes = []
        phases = ("fwd",) if forward_only else ("fwd", "bwd")
        for rank in range(self.engine.workload.world_size):
            # One scheduler per rank shared by both phases: its credit and
            # cache state spans the iteration.
            scheduler = IntraNodeScheduler(ctx, rank)
            for phase in phases:
                lane = graph.lane(
                    f"dc.pull.w{rank}.{phase}", role="service", worker=rank,
                )
                lane.add(Task(
                    f"dc.pull.w{rank}.{phase}", TaskKind.PULL,
                    body=lambda s=scheduler, p=phase: s.pull_pipeline(p),
                    worker=rank, phase=phase, detail="intra-pull",
                ))
                lanes.append(lane)
        if ctx.features.hierarchical:
            for machine in range(ctx.layout.num_machines):
                inter = InterNodeScheduler(ctx, machine)
                for nic, chain in enumerate(inter.fetch_pipelines()):
                    lane = graph.lane(
                        f"dc.fetch.m{machine}.{nic}", role="service",
                    )
                    lane.add(Task(
                        f"dc.fetch.m{machine}.{nic}", TaskKind.PULL,
                        body=lambda c=chain: c,
                        detail=f"inter-fetch machine={machine}",
                    ))
                    lanes.append(lane)
        return lanes

    def collector_lanes(self, ctx, graph):
        if not ctx.features.hierarchical or not ctx.dc_block_indices:
            return []
        lanes = []
        for machine in range(ctx.layout.num_machines):
            inter = InterNodeScheduler(ctx, machine)
            for i, collector in enumerate(inter.grad_collectors()):
                lane = graph.lane(f"dc.grad.m{machine}.{i}", role="collector")
                lane.add(Task(
                    f"dc.grad.m{machine}.{i}", TaskKind.PULL,
                    body=lambda c=collector: c,
                    detail=f"grad-collect machine={machine}",
                ))
                lanes.append(lane)
        return lanes

    def _push_gradient(self, ctx, rank: int, index: int, expert: int):
        workload = self.engine.workload
        placement = ctx.placements[index]
        owner = placement.owner(expert)
        machine = ctx.layout.machine_of(rank)
        owner_machine = ctx.layout.machine_of(owner)
        gpu = ctx.gpu_of[rank]
        if owner_machine == machine:
            flow = ctx.fabric.transfer(
                gpu, ctx.gpu_of[owner], workload.expert_bytes,
                tag=("grad-internal", index, rank, expert),
            )
            ctx.grad_delivered.append(flow.done)
        elif ctx.features.hierarchical:
            flow = ctx.fabric.transfer(
                gpu, Device.host(machine), workload.expert_bytes,
                tag=("grad-stage", index, rank, expert),
            )
            ctx.env.process(
                _stage_grad(ctx, flow, index, machine, expert)
            )
        else:
            flow = ctx.fabric.transfer(
                gpu, ctx.gpu_of[owner], workload.expert_bytes,
                tag=("grad-direct", index, rank, expert),
            )
            ctx.grad_delivered.append(flow.done)

    @classmethod
    def memory_terms(
        cls, config, num_blocks: int, credit_size: int, pipeline_chunks: int,
    ) -> Tuple[float, ...]:
        """The credit buffer (C experts) plus one expert's activations —
        independent of sequence length (§5.1.1)."""
        if not num_blocks:
            return ()
        return (
            credit_size * config.expert_bytes,
            config.ffn_mult * config.tokens_per_worker * config.token_bytes,
        )


def _stage_grad(ctx, flow, index: int, machine: int, expert: int):
    yield flow.done
    yield ctx.grad_contrib_store(index, machine, expert).put(1)
