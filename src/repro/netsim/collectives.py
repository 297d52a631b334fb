"""Collective communication on the simulated fabric.

The only collective MoE expert parallelism needs is All-to-All (token
dispatch and combine).  It is *synchronous*: the operation completes when the
busiest participant has sent and received everything (§3.1 of the paper) —
modelled here by joining every constituent flow.

Flows are decomposed hierarchically to keep the fluid solver fast while
preserving where contention happens:

* intra-machine traffic: one flow per (src GPU, dst GPU) pair over NVLink;
* inter-machine traffic: per (src machine, dst machine) pair, the GPU-pair
  bytes are aggregated and split across the machine's NICs (NCCL/Tutel
  similarly aggregate cross-node All-to-All traffic per NIC channel).

Each collective is one :meth:`FluidNetwork.transfer_group`: its flows are
rows of a cached per-cluster *row plan* (route, latency and matrix cell
per candidate flow), filtered to the non-empty ones, and the group is the
event the caller waits on.

Collective flows bypass :meth:`Fabric.transfer` and with it the fault
injector's message-loss intercept.  That is exact, not an approximation:
``MessageLoss`` only accepts ``LOSSABLE_MESSAGE_KINDS`` (control-plane
pull requests and gradient pushes), so no fault plan can name an
``a2a-*`` or ``ar-*`` flow, and the intercept never drew a random number
for one.  Link faults still apply — they rescale link capacities, which
collective rows share with every other flow.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..cluster import Device
from ..simkit import Event
from .fabric import Fabric

__all__ = ["all_reduce", "all_to_all", "all_to_all_proc", "uniform_matrix"]


def uniform_matrix(world_size: int, bytes_per_pair: float) -> np.ndarray:
    """Send matrix where every rank sends the same amount to every other."""
    matrix = np.full((world_size, world_size), float(bytes_per_pair))
    np.fill_diagonal(matrix, 0.0)
    return matrix


class _Plan(NamedTuple):
    """Candidate flows of one collective phase, in issue order: the
    ``(src, dst)`` cell each reads its size from, and its cached route."""

    src: np.ndarray
    dst: np.ndarray
    paths: List[Tuple[int, ...]]
    latencies: np.ndarray


def _plan(fabric: Fabric, key: str, candidates: Callable[[], list]) -> _Plan:
    """The plan cached under ``key``, built once per cluster from the
    ``(src, dst, (path, latency, path_index))`` list ``candidates()``."""
    plan = fabric.collective_plans.get(key)
    if plan is None:
        found = candidates()
        plan = fabric.collective_plans[key] = _Plan(
            np.array([row[0] for row in found], dtype=np.int64),
            np.array([row[1] for row in found], dtype=np.int64),
            [row[2][2] for row in found],
            np.array([row[2][1] for row in found], dtype=float),
        )
    return plan


def _nonempty(plan: _Plan, sizes: np.ndarray):
    """The plan's rows with a positive size: ``(paths, sizes, latencies)``."""
    keep = sizes > 0
    return (
        list(itertools.compress(plan.paths, keep.tolist())),
        sizes[keep],
        plan.latencies[keep],
    )


def _start(fabric: Fabric, parts) -> Event:
    """Start every ``(paths, sizes, latencies)`` part as one flow group."""
    if not parts:
        return fabric.network.transfer_group([], [], [])
    paths, sizes, latencies = zip(*parts)
    return fabric.network.transfer_group(
        list(itertools.chain.from_iterable(paths)),
        np.concatenate(sizes),
        np.concatenate(latencies),
    )


def _machine_totals(matrix: np.ndarray, machines: int, g: int) -> np.ndarray:
    """Per machine-pair totals, bitwise ``matrix[src block, dst block].sum()``.

    NumPy sums a strided 2-D slice by buffering it in memory order and
    pairwise-summing the buffer.  Gathering every block contiguously in
    that order and reducing along the last axis performs the same
    additions for all blocks at once.  Blocks larger than the iterator
    buffer are summed in chunks, so those fall back to one slice sum each.
    """
    if g * g > np.getbufsize():
        return np.array([
            [
                matrix[s * g:(s + 1) * g, d * g:(d + 1) * g].sum()
                for d in range(machines)
            ]
            for s in range(machines)
        ])
    blocks = matrix.reshape(machines, g, machines, g)
    if abs(matrix.strides[0]) >= abs(matrix.strides[1]):
        blocks = blocks.transpose(0, 2, 1, 3)  # row-major blocks
    else:
        blocks = blocks.transpose(0, 2, 3, 1)  # column-major blocks
    return np.ascontiguousarray(blocks).reshape(
        machines, machines, g * g
    ).sum(axis=2)


def all_to_all(
    fabric: Fabric,
    send_bytes: Sequence[Sequence[float]],
    hierarchical: bool = True,
) -> Event:
    """Start an All-to-All; returns an event triggered when it completes.

    ``send_bytes[i][j]`` is the payload GPU of global rank ``i`` sends to
    global rank ``j``.  The matrix must be ``world_size`` square.

    ``hierarchical=True`` (default) models the optimized cross-node path
    used by Tutel/NCCL channels: per machine pair, the GPU payloads are
    aggregated and striped evenly over the machine's NICs.
    ``hierarchical=False`` is the naive flat decomposition: every GPU pair
    is its own cross-node flow pinned to the *source GPU's* NIC, so NIC
    load follows the (generally uneven) per-GPU send pattern and small
    per-pair messages pay per-flow latency — the behaviour hierarchical
    All-to-All papers (Tutel, SE-MoE) optimize away.
    """
    cluster = fabric.cluster
    matrix = np.asarray(send_bytes, dtype=float)
    world = cluster.world_size
    if matrix.shape != (world, world):
        raise ValueError(
            f"send matrix must be {world}x{world}, got {matrix.shape}"
        )
    if (matrix < 0).any():
        raise ValueError("send matrix entries must be non-negative")

    machines, g = cluster.num_machines, cluster.gpus_per_machine
    route, gpu = fabric.route, Device.gpu
    intra = _plan(fabric, "a2a-intra", lambda: [
        (m * g + s, m * g + d, route(gpu(m, s), gpu(m, d)))
        for m in range(machines)
        for s in range(g)
        for d in range(g)
        if s != d
    ])
    parts = [_nonempty(intra, matrix[intra.src, intra.dst])]
    if hierarchical:
        # Per machine pair, the summed payload striped over every NIC.
        nics = cluster.spec.num_nics
        stripes = _plan(fabric, "a2a-inter", lambda: [
            (s, d, fabric.nic_route(s, d, nic))
            for s in range(machines)
            for d in range(machines)
            if s != d
            for nic in range(nics)
        ])
        totals = _machine_totals(matrix, machines, g)
        paths, sizes, latencies = _nonempty(
            stripes, totals[stripes.src, stripes.dst]
        )
        parts.append((paths, sizes / nics, latencies))
    else:
        # One flow per cross-machine GPU pair, on its source GPU's NIC.
        device = cluster.gpu_device
        pairs = _plan(fabric, "a2a-flat", lambda: [
            (s, d, route(device(s), device(d)))
            for s in range(world)
            for d in range(world)
            if device(s).machine != device(d).machine
        ])
        parts.append(_nonempty(pairs, matrix[pairs.src, pairs.dst]))
    return _start(fabric, parts)


def all_reduce(
    fabric: Fabric,
    bytes_per_rank: float,
    hierarchical: bool = True,
) -> Event:
    """Start a ring all-reduce of ``bytes_per_rank`` per participant.

    Models the dense-gradient all-reduce of data parallelism with the
    standard ring cost: each rank exchanges ``2*(N-1)/N`` of its payload
    with its ring neighbours (reduce-scatter + all-gather).

    ``hierarchical=True`` (default) is the NCCL-style two-level ring:
    a local NVLink ring inside every machine (``2*(g-1)/g`` of the payload
    per adjacent GPU pair) plus one inter-machine ring over the NICs
    (``2*(n-1)/n`` of the payload, striped evenly across the NICs the way
    the hierarchical All-to-All stripes).  ``hierarchical=False`` runs one
    flat ring over the global rank order, so cross-machine hops carry the
    full ``2*(W-1)/W`` payload on a single NIC each.
    """
    if bytes_per_rank < 0:
        raise ValueError("bytes_per_rank must be non-negative")
    cluster = fabric.cluster
    world = cluster.world_size
    if bytes_per_rank == 0 or world <= 1:
        return _start(fabric, [])
    machines, g = cluster.num_machines, cluster.gpus_per_machine
    route, gpu, device = fabric.route, Device.gpu, cluster.gpu_device
    rings = []
    if hierarchical:
        if g > 1:
            ring = _plan(fabric, "ar-intra", lambda: [
                (m * g + s, m * g + (s + 1) % g,
                 route(gpu(m, s), gpu(m, (s + 1) % g)))
                for m in range(machines)
                for s in range(g)
            ])
            rings.append((ring, 2.0 * (g - 1) / g * bytes_per_rank))
        if machines > 1:
            nics = cluster.spec.num_nics
            ring = _plan(fabric, "ar-inter", lambda: [
                (m, (m + 1) % machines,
                 fabric.nic_route(m, (m + 1) % machines, nic))
                for m in range(machines)
                for nic in range(nics)
            ])
            inter_bytes = 2.0 * (machines - 1) / machines * bytes_per_rank
            rings.append((ring, inter_bytes / nics))
    else:
        ring = _plan(fabric, "ar-flat", lambda: [
            (r, (r + 1) % world, route(device(r), device((r + 1) % world)))
            for r in range(world)
        ])
        rings.append((ring, 2.0 * (world - 1) / world * bytes_per_rank))
    return _start(fabric, [
        (ring.paths, np.full(len(ring.paths), size), ring.latencies)
        for ring, size in rings
    ])


def all_to_all_proc(fabric: Fabric, send_bytes: Sequence[Sequence[float]]):
    """Process form: ``yield env.process(all_to_all_proc(...))``."""
    start = fabric.env.now
    yield all_to_all(fabric, send_bytes)
    return fabric.env.now - start
