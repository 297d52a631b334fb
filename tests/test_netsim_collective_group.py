"""Exactness battery for collective flow groups.

``all_to_all`` and ``all_reduce`` start their flows as one
:meth:`FluidNetwork.transfer_group` and wait on one event.  The bar is
exact equality with the per-flow formulation it replaced: the same flows
issued one at a time through :meth:`FluidNetwork.transfer` and joined by
``AllOf``.  For random send matrices (with zeros and skew), both
All-to-All decompositions and both all-reduce modes, with background
point-to-point traffic and a mid-flight ``set_capacity``, the
collective's completion time, every background flow's completion time,
every link's byte counter and ``total_bytes_completed`` must match
bit for bit — under coalescing on and off, and with the compiled and the
pure-python water-fill.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Device, MachineSpec
from repro.netsim import Fabric, FluidNetwork, all_reduce, all_to_all
from repro.netsim import _waterfill
from repro.simkit import AllOf, Environment

US = 1e-6


# -- the per-flow reference ---------------------------------------------------


def _flow(fabric, route, size):
    path, latency, path_index = route
    return fabric.network.transfer(
        path, size, latency=latency, path_index=path_index
    )


def reference_all_to_all(fabric, matrix, hierarchical):
    """One ``transfer`` per flow, in issue order, joined by ``AllOf``."""
    cluster = fabric.cluster
    g = cluster.gpus_per_machine
    flows = []
    for machine in range(cluster.num_machines):
        base = machine * g
        for src in range(g):
            for dst in range(g):
                size = matrix[base + src, base + dst]
                if src != dst and size > 0:
                    route = fabric.route(
                        Device.gpu(machine, src), Device.gpu(machine, dst)
                    )
                    flows.append(_flow(fabric, route, size))
    if hierarchical:
        nics = cluster.spec.num_nics
        for src in range(cluster.num_machines):
            for dst in range(cluster.num_machines):
                if src == dst:
                    continue
                total = matrix[
                    src * g:(src + 1) * g, dst * g:(dst + 1) * g
                ].sum()
                if total <= 0:
                    continue
                for nic in range(nics):
                    route = fabric.nic_route(src, dst, nic)
                    flows.append(_flow(fabric, route, total / nics))
    else:
        for src in range(cluster.world_size):
            for dst in range(cluster.world_size):
                size = matrix[src, dst]
                if src // g != dst // g and size > 0:
                    route = fabric.route(
                        cluster.gpu_device(src), cluster.gpu_device(dst)
                    )
                    flows.append(_flow(fabric, route, size))
    return AllOf(fabric.env, flows)


def reference_all_reduce(fabric, nbytes, hierarchical):
    cluster = fabric.cluster
    world = cluster.world_size
    flows = []
    if nbytes > 0 and world > 1:
        if hierarchical:
            g = cluster.gpus_per_machine
            n = cluster.num_machines
            if g > 1:
                size = 2.0 * (g - 1) / g * nbytes
                for machine in range(n):
                    for src in range(g):
                        route = fabric.route(
                            Device.gpu(machine, src),
                            Device.gpu(machine, (src + 1) % g),
                        )
                        flows.append(_flow(fabric, route, size))
            if n > 1:
                nics = cluster.spec.num_nics
                size = 2.0 * (n - 1) / n * nbytes / nics
                for machine in range(n):
                    for nic in range(nics):
                        route = fabric.nic_route(machine, (machine + 1) % n, nic)
                        flows.append(_flow(fabric, route, size))
        else:
            size = 2.0 * (world - 1) / world * nbytes
            for rank in range(world):
                route = fabric.route(
                    cluster.gpu_device(rank),
                    cluster.gpu_device((rank + 1) % world),
                )
                flows.append(_flow(fabric, route, size))
    return AllOf(fabric.env, flows)


# -- scenarios -----------------------------------------------------------------

_PAYLOAD = st.one_of(
    st.just(0.0),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=1e4, max_value=1e9),
)


@st.composite
def scenarios(draw):
    machines = draw(st.integers(min_value=1, max_value=4))
    gpus = draw(st.sampled_from([2, 4]))
    world = machines * gpus
    kind = draw(st.sampled_from(["a2a", "a2a-flat", "ar", "ar-flat"]))
    matrix = np.array(
        draw(st.lists(_PAYLOAD, min_size=world * world, max_size=world * world))
    ).reshape(world, world)
    hot = draw(st.integers(min_value=0, max_value=world - 1))
    matrix[hot] *= draw(st.sampled_from([1.0, 10.0, 1000.0]))  # skew
    if draw(st.booleans()):
        matrix = matrix.T  # the combine direction is a transposed view
    background = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40 * US),
            st.integers(min_value=0, max_value=world - 1),
            st.integers(min_value=0, max_value=world - 1),
            st.floats(min_value=0.0, max_value=1e8),
        ),
        max_size=4,
    ))
    rescale = draw(st.one_of(st.none(), st.tuples(
        st.floats(min_value=0.0, max_value=60 * US),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.05, max_value=4.0),
    )))
    return dict(
        machines=machines, gpus=gpus, kind=kind, matrix=matrix,
        allreduce_bytes=draw(_PAYLOAD),
        start=draw(st.sampled_from([0.0, 3 * US, 10 * US])),
        background=background, rescale=rescale,
    )


def _fabric(machines, gpus, coalesce):
    env = Environment()
    fabric = Fabric(env, Cluster(machines, MachineSpec(num_gpus=gpus)))
    if not coalesce:
        network = FluidNetwork(env, coalesce=False)
        for link_id, bandwidth, _ in fabric.cluster.iter_links():
            network.add_link(link_id, bandwidth)
        fabric.network = network
    return env, fabric


def run_scenario(case, grouped, coalesce):
    """Play one scenario; return everything observable about its traffic."""
    env, fabric = _fabric(case["machines"], case["gpus"], coalesce)
    network = fabric.network
    cluster = fabric.cluster
    kind = case["kind"]
    hierarchical = not kind.endswith("flat")
    finished = {}
    flows = []

    def collective():
        yield env.timeout(case["start"])
        if kind.startswith("a2a"):
            issue = all_to_all if grouped else reference_all_to_all
            done = issue(fabric, case["matrix"], hierarchical)
        else:
            issue = all_reduce if grouped else reference_all_reduce
            done = issue(fabric, case["allreduce_bytes"], hierarchical)
        yield done
        finished["collective"] = env.now

    def background():
        for delay, src, dst, size in case["background"]:
            yield env.timeout(delay)
            flows.append(fabric.transfer(
                cluster.gpu_device(src), cluster.gpu_device(dst), size
            ))

    def rescale():
        at, link, factor = case["rescale"]
        yield env.timeout(at)
        link_id = network.links()[link % len(network.links())]
        network.set_capacity(link_id, network.capacity(link_id) * factor)

    env.process(collective())
    env.process(background())
    if case["rescale"] is not None:
        env.process(rescale())
    env.run()
    assert network.live_rows == 0
    return (
        finished["collective"],
        [flow.completed_at for flow in flows],
        {link: network.link_bytes[link] for link in network.links()},
        network.total_bytes_completed,
    )


@contextmanager
def _solver(python):
    original = _waterfill.kernel
    if python:
        _waterfill.kernel = lambda: None
    try:
        yield
    finally:
        _waterfill.kernel = original


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_collective_group_equals_per_flow_join_exactly(case):
    solvers = [True] if _waterfill.kernel() is None else [False, True]
    for python in solvers:
        with _solver(python):
            for coalesce in (True, False):
                grouped = run_scenario(case, grouped=True, coalesce=coalesce)
                reference = run_scenario(case, grouped=False, coalesce=coalesce)
                assert grouped == reference  # exact, not approx


# -- transfer_group on a bare network -------------------------------------------


@st.composite
def batches(draw):
    """Members with shared, distinct, zero and sub-ulp latencies, and
    zero-byte and link-less members among them."""
    num_links = draw(st.integers(min_value=1, max_value=4))
    bandwidths = draw(st.lists(
        st.floats(min_value=1.0, max_value=500.0),
        min_size=num_links, max_size=num_links,
    ))
    member = st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=num_links - 1),
            max_size=2, unique=True,
        ),
        st.one_of(
            st.sampled_from([0.0, 100.0]),
            st.floats(min_value=1.0, max_value=1000.0),
        ),
        # At start 0.1 a 1e-300 latency, and at 1e17 both 0.25 and 0.5,
        # are positive latencies whose start instant is ``now`` itself.
        st.sampled_from([0.0, 1e-300, 0.25, 0.5, 1.0]),
    )
    members = draw(st.lists(member, max_size=10))
    start = draw(st.sampled_from([0.0, 0.1, 1e17]))
    return bandwidths, members, start


def _play_batch(batch, grouped):
    """Start a flow on link 0, then the members, then another flow on
    link 0; log the order the three completions are processed in
    (simultaneous finishes are common: sizes repeat)."""
    bandwidths, members, start = batch
    env = Environment(initial_time=start)
    network = FluidNetwork(env)
    for index, bandwidth in enumerate(bandwidths):
        network.add_link(index, bandwidth)
    order = []
    lead = network.transfer((0,), 100.0)
    resolved = [network.resolve_path(path)[1] for path, _, _ in members]
    if grouped:
        done = network.transfer_group(
            resolved,
            [size for _, size, _ in members],
            [latency for _, _, latency in members],
        )
    else:
        done = AllOf(env, [
            network.transfer(
                tuple(path), size, latency=latency, path_index=path_index
            )
            for (path, size, latency), path_index in zip(members, resolved)
        ])
    tail = network.transfer((0,), 100.0)
    for name, event in (("lead", lead), ("join", done), ("tail", tail)):
        event.callbacks.append(
            lambda _, name=name: order.append((name, env.now))
        )
    env.run()
    return (
        order,
        {link: network.link_bytes[link] for link in network.links()},
        network.total_bytes_completed,
    )


@settings(max_examples=80, deadline=None)
@given(batches())
# Last member and trailing flow land in one timer: the group must trigger
# after the trailing flow's event, where the join would.
@example(([100.0], [([0], 100.0, 0.0), ([0], 100.0, 0.0)], 0.0))
# Two latencies, one start instant: members join the ledger in member
# order (the landing order decides how total_bytes_completed rounds).
@example((
    [5000.0],
    [([0], 134.451, 0.25), ([0], 847.449, 0.5), ([0], 763.798, 0.25)],
    1e17,
))
def test_transfer_group_equals_per_flow_join_exactly(batch):
    assert _play_batch(batch, grouped=True) == _play_batch(batch, grouped=False)


class TestTransferGroupApi:
    def test_empty_group_triggers_at_once(self):
        env = Environment()
        network = FluidNetwork(env)
        done = network.transfer_group([], [], [])
        assert done.triggered
        env.run()
        assert done.processed and env.now == 0.0

    def test_rows_are_not_flows(self):
        env = Environment()
        network = FluidNetwork(env)
        network.add_link("wire", 100.0)
        path_index = network.resolve_path(("wire",))[1]
        network.transfer_group([path_index] * 3, [50.0] * 3, [0.0] * 3)
        flow = network.transfer(("wire",), 50.0)
        env.run(until=env.now)
        assert network.active_flows == [flow]
        assert network.live_rows == 4
        env.run()
        assert network.live_rows == 0
        assert network.total_bytes_completed == 200.0

    @pytest.mark.parametrize("sizes, latencies", [
        ([-1.0], [0.0]), ([1.0], [-1.0]), ([1.0, 2.0], [0.0]),
    ])
    def test_bad_members_rejected(self, sizes, latencies):
        env = Environment()
        network = FluidNetwork(env)
        network.add_link("wire", 100.0)
        path_index = network.resolve_path(("wire",))[1]
        with pytest.raises(ValueError):
            network.transfer_group([path_index] * len(sizes), sizes, latencies)
