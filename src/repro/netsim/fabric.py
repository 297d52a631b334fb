"""Binds a static :class:`~repro.cluster.Cluster` to live simulation state.

A :class:`Fabric` owns:

* one :class:`~repro.netsim.fluid.FluidNetwork` with a bandwidth server per
  directed link of the cluster, and
* one serial compute stream per GPU (kernels on a stream execute in order;
  DMA/copy engines are separate, which is what allows computation and
  communication to overlap — the fact Janus's fine-grained scheduling
  exploits).  A stream is a FIFO server with a busy-until clock: a kernel
  is charged in closed form at submission and costs one completion event,
  not a process.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..cluster import Cluster, Device, LinkId
from ..simkit import Environment, Event
from .fluid import Flow, FluidNetwork

__all__ = ["Fabric"]


class Fabric:
    """Live simulation resources for one cluster."""

    def __init__(self, env: Environment, cluster: Cluster):
        self.env = env
        self.cluster = cluster
        self.network = FluidNetwork(env)
        self._latency: Dict[LinkId, float] = {}
        for link_id, bandwidth, latency in cluster.iter_links():
            self.network.add_link(link_id, bandwidth)
            self._latency[link_id] = latency
        # Per-GPU compute stream: the time its last submitted kernel ends.
        self._stream_free_at: Dict[Device, float] = dict.fromkeys(
            cluster.gpus(), float("-inf")
        )
        # Set by FaultInjector.install(); None on the (default) happy path.
        self.fault_injector = None
        # Routes are a pure function of the immutable topology, and link
        # indices are assigned in ``cluster.iter_links()`` order — i.e.
        # identically in every Fabric built from the same cluster.  The
        # memo of (src, dst, nic_index) -> (path tuple, summed latency,
        # packed link-index tuple) therefore lives on the *cluster*, so
        # fresh fabrics (one per simulated iteration) skip the LinkId
        # construction, the latency sum and the fluid path interning for
        # every route the fleet has already used: at 128 machines that
        # is ~70k routes per iteration.
        memo = getattr(cluster, "_fabric_route_memo", None)
        if memo is None:
            memo = ({}, {}, {})
            cluster._fabric_route_memo = memo
        self._route_cache: Dict[tuple, tuple] = memo[0]
        # (src machine, dst machine, nic) -> same triple, for collectives
        # that stripe machine-pair traffic over the NICs directly.
        self._nic_route_cache: Dict[tuple, tuple] = memo[1]
        # Collective row plans built from these routes (see collectives).
        self.collective_plans: Dict[str, object] = memo[2]

    # -- communication -------------------------------------------------------

    def path_latency(self, path: Iterable[LinkId]) -> float:
        return sum(self._latency[link_id] for link_id in path)

    def nic_route(self, src_machine: int, dst_machine: int, nic: int):
        """Cached ``(path, latency, path_index)`` for one NIC-to-NIC hop:
        the stripes the collectives spread machine-pair traffic over."""
        key = (src_machine, dst_machine, nic)
        cached = self._nic_route_cache.get(key)
        if cached is None:
            path, path_index = self.network.resolve_path((
                LinkId("nic", src_machine, nic, "out"),
                LinkId("nic", dst_machine, nic, "in"),
            ))
            cached = (path, self.path_latency(path), path_index)
            self._nic_route_cache[key] = cached
        return cached

    def route(self, src: Device, dst: Device, nic_index: Optional[int] = None):
        """Cached ``(path, latency, path_index)`` from ``src`` to ``dst``."""
        key = (src, dst, nic_index)
        cached = self._route_cache.get(key)
        if cached is None:
            path, path_index = self.network.resolve_path(
                self.cluster.route(src, dst, nic_index=nic_index)
            )
            cached = (path, self.path_latency(path), path_index)
            self._route_cache[key] = cached
        return cached

    def transfer(
        self,
        src: Device,
        dst: Device,
        size: float,
        nic_index: Optional[int] = None,
        tag=None,
    ) -> Flow:
        """Start a point-to-point transfer; wait on ``.done``."""
        if self.fault_injector is not None:
            dropped = self.fault_injector.intercept(src, dst, size, tag)
            if dropped is not None:
                return dropped
        path, latency, path_index = self.route(src, dst, nic_index)
        return self.network.transfer(
            path, size, latency=latency, tag=tag, path_index=path_index
        )

    # -- computation ----------------------------------------------------------

    def compute(self, gpu: Device, seconds: float) -> Event:
        """Run a ``seconds`` kernel on ``gpu``'s stream; yield the returned
        event, which fires when the kernel ends.

        Kernels on a stream run in submission order: this one starts at
        ``max(now, end of the previous kernel)`` and ends ``seconds`` later
        (stretched by any straggler window, evaluated at that start).  The
        end is scheduled at its absolute time, so a queued kernel ends at
        exactly the timestamp it would have if timed from its grant.
        """
        if gpu.kind != "gpu":
            raise ValueError(f"compute target must be a GPU, got {gpu}")
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        env = self.env
        start = self._stream_free_at[gpu]
        if start < env.now:
            start = env.now
        if self.fault_injector is not None:
            seconds = self.fault_injector.compute_duration(
                gpu.machine, seconds, start
            )
        end = self._stream_free_at[gpu] = start + seconds
        return env.timeout_at(end)

    def flops_time(self, flops: float) -> float:
        """Seconds a GPU needs for ``flops`` floating point operations."""
        return flops / self.cluster.spec.gpu.flops

    # -- accounting -----------------------------------------------------------

    def nic_bytes(self, machine: int, direction: str = "out") -> float:
        """Total bytes through all of a machine's NICs in one direction."""
        total = 0.0
        for nic in range(self.cluster.spec.num_nics):
            link_id = LinkId("nic", machine, nic, direction)
            total += self.network.link_bytes[link_id]
        return total

    def total_cross_machine_bytes(self) -> float:
        """Sum of NIC egress bytes across all machines."""
        return sum(
            self.nic_bytes(machine, "out")
            for machine in range(self.cluster.num_machines)
        )
