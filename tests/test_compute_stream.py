"""Equivalence battery for the busy-until compute stream and the
event-free Task Queue hand-offs.

``Fabric.compute`` charges a kernel in closed form: it starts at
``max(now, end of the stream's previous kernel)`` and its one completion
event is keyed at the absolute end time.  The reference here is the
process-per-kernel stream it replaced: a kernel process that requests a
capacity-1 :class:`Resource`, reads the straggler hook at its grant and
times out.  For random kernel arrivals and durations on one or more
GPUs, with contention and slowdown windows, every kernel must end at the
same timestamp, bit for bit, and each stream must finish its kernels in
the same order.  Without contention the whole completion order matches
too; a queued kernel's completion is ordered by its submission rather
than by its grant, which only reorders completions that land on the
same instant on different streams.

At engine level the reference also restores the data-centric hand-offs
(``Store.put``/``Container.put`` events nobody waits on, and a
``ContainerGet`` event for every credit): times, traffic, credit levels
and the trace must be identical, and the reference's extra events must
be exactly the closed form of ``tests/test_metrics_golden.py``.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Device, MachineSpec
from repro.config import moe_bert, moe_gpt
from repro.core import engine_for
from repro.faults import FaultInjector, FaultPlan
from repro.faults.spec import ComputeSlowdown
from repro.netsim import Fabric
from repro.simkit import (
    Container,
    Environment,
    Resource,
    SimulationError,
    Store,
)
from repro.simkit.resources import ContainerGet

from tests.test_metrics_golden import kernel_event_drop, spy_kernel_bookkeeping


# -- the process-per-kernel reference -----------------------------------------


def reference_compute(fabric, gpu, seconds, grants=None):
    """The kernel as a process on a capacity-1 stream ``Resource``."""
    if gpu.kind != "gpu":
        raise ValueError(f"compute target must be a GPU, got {gpu}")
    if seconds < 0:
        raise ValueError("compute time must be non-negative")
    env = fabric.env
    streams = fabric.__dict__.setdefault("_reference_streams", {})
    stream = streams.get(gpu)
    if stream is None:
        stream = streams[gpu] = Resource(env, capacity=1)
    submitted = env.now

    def kernel():
        with stream.request() as slot:
            yield slot
            if grants is not None:
                grants.append(env.now > submitted)
            duration = seconds
            if fabric.fault_injector is not None:
                duration = fabric.fault_injector.compute_duration(
                    gpu.machine, seconds, env.now
                )
            yield env.timeout(duration)

    return env.process(kernel(), name="compute")


def use_process_reference(monkeypatch):
    """Swap the reference stream and event-per-put/get hand-offs in."""
    monkeypatch.setattr(Fabric, "compute", reference_compute)
    monkeypatch.setattr(Store, "put_nowait", Store.put)
    monkeypatch.setattr(Container, "put_nowait", Container.put)
    monkeypatch.setattr(
        Container, "get", lambda container, amount: ContainerGet(
            container, amount
        )
    )


# -- random kernel schedules on a bare fabric ---------------------------------

# Arrivals on a coarse grid collide on purpose (same-instant submissions,
# kernels queued behind each other); the free draws exercise rounding.
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
)
_DURATIONS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0 / 3.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def schedules(draw):
    machines = draw(st.integers(1, 2))
    gpus = draw(st.sampled_from([2, 4]))
    world = machines * gpus
    kernels = draw(st.lists(
        st.tuples(_TIMES, st.integers(0, world - 1), _DURATIONS),
        min_size=1, max_size=14,
    ))
    windows = draw(st.lists(
        st.tuples(
            st.integers(0, machines - 1),
            st.sampled_from([0.25, 0.5, 0.3]),
            _TIMES,
            st.floats(0.01, 1.5, allow_nan=False),
        ),
        max_size=3,
    ))
    return machines, gpus, kernels, windows


def run_schedule(schedule, compute):
    """Submit every kernel at its arrival; return ``[(kernel, end)]`` in
    the order the submitters resumed."""
    machines, gpus, kernels, windows = schedule
    cluster = Cluster(machines, MachineSpec(num_gpus=gpus))
    env = Environment()
    fabric = Fabric(env, cluster)
    if windows:
        plan = FaultPlan(faults=tuple(
            ComputeSlowdown(machine, speed, start, start + length)
            for machine, speed, start, length in windows
        ))
        FaultInjector(plan, fabric).install()
    finished = []

    def submitter(index, arrival, rank, seconds):
        yield env.timeout(arrival)
        yield compute(fabric, cluster.gpu_device(rank), seconds)
        finished.append((index, env.now))

    for index, (arrival, rank, seconds) in enumerate(kernels):
        env.process(submitter(index, arrival, rank, seconds))
    env.run()
    return finished


class TestBusyUntilStream:
    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_matches_the_process_reference(self, schedule):
        grants = []
        reference = run_schedule(
            schedule,
            lambda fabric, gpu, seconds: reference_compute(
                fabric, gpu, seconds, grants
            ),
        )
        stream = run_schedule(schedule, Fabric.compute)
        assert dict(stream) == dict(reference)  # exact end times
        kernels = schedule[2]
        for rank in {rank for _, rank, _ in kernels}:
            assert [i for i, _ in stream if kernels[i][1] == rank] == [
                i for i, _ in reference if kernels[i][1] == rank
            ]
        if not any(grants):
            assert stream == reference

    def test_same_instant_completions_resume_in_submission_order(self):
        # GPU 0 queues kernel 1 behind kernel 0; kernel 2 on GPU 1 is
        # submitted later but ends on the same instant as kernel 1.
        schedule = (1, 2, [(0.0, 0, 1.0), (0.0, 0, 1.0), (0.5, 1, 1.5)], [])
        assert run_schedule(schedule, Fabric.compute) == [
            (0, 1.0), (1, 2.0), (2, 2.0),
        ]

    def test_queued_kernel_reads_the_straggler_hook_at_its_start(self):
        # Kernel 1 starts at 1.0, inside the half-speed window [1, 2).
        kernels = [(0.0, 0, 1.0), (0.0, 0, 0.25)]
        schedule = (1, 2, kernels, [(0, 0.5, 1.0, 1.0)])
        assert run_schedule(schedule, Fabric.compute) == [
            (0, 1.0), (1, 1.5),
        ]

    def test_end_is_keyed_at_its_absolute_time(self):
        # 0.7 + (3.1 - 0.7) is not 3.1 in binary floating point: a
        # relative timeout from ``now`` would end one ulp off.
        assert 0.7 + (3.1 - 0.7) != 3.1
        env = Environment()
        ends = []

        def waiter():
            yield env.timeout(0.7)
            yield env.timeout_at(3.1)
            ends.append(env.now)

        env.process(waiter())
        env.run()
        assert ends == [3.1]

    def test_timeout_at_now_joins_the_current_instant(self):
        env = Environment()
        order = []

        def first():
            env.timeout(0.0).callbacks.append(
                lambda _: order.append("timeout")
            )
            env.timeout_at(env.now).callbacks.append(
                lambda _: order.append("at")
            )
            yield env.timeout(0.0)

        env.process(first())
        env.run()
        assert order == ["timeout", "at"]

    def test_timeout_at_in_the_past_is_rejected(self):
        env = Environment(initial_time=1.0)
        with pytest.raises(SimulationError):
            env.timeout_at(0.5)

    def test_one_event_per_kernel(self):
        env = Environment()
        fabric = Fabric(env, Cluster(1, MachineSpec(num_gpus=2)))
        gpu = Device.gpu(0, 0)
        for seconds in (1.0, 2.0, 0.0):
            fabric.compute(gpu, seconds)
        env.run()
        assert (env.now, env.events_processed, env.processes_started) == (
            3.0, 3, 0
        )


# -- engine level -------------------------------------------------------------


def _fingerprint(result):
    return (
        result.seconds,
        result.nic_egress_bytes.tolist(),
        result.trace.spans,
        result.credit_levels,
        result.credit_min_levels,
    )


def _run(mode, model, fault_plan):
    """Two iterations on two machines: fingerprints and event counts."""
    kwargs = {"fault_plan": fault_plan} if fault_plan else {}
    engine = engine_for(
        mode, model, Cluster(2), rng=np.random.default_rng(0), **kwargs
    )
    results = engine.run(2)
    return (
        [_fingerprint(result) for result in results],
        sum(result.sim_events for result in results),
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode, model, faults", [
        # The stream really contends here: most micro-batch kernels queue.
        ("microbatch-ec", moe_bert, None),
        ("microbatch-ec", moe_gpt, "slow=0*0.5@0.001:0.02"),
        ("data-centric", moe_gpt, "slow=1*0.3;seed=3"),
        ("pipelined-ec", moe_bert, None),
    ])
    def test_matches_the_process_reference(
        self, mode, model, faults, monkeypatch
    ):
        plan = FaultPlan.parse(faults) if faults else None
        contended = Counter()
        compute = Fabric.compute

        def spy(fabric, gpu, seconds):
            contended[fabric._stream_free_at[gpu] > fabric.env.now] += 1
            return compute(fabric, gpu, seconds)

        with monkeypatch.context() as patch:
            patch.setattr(Fabric, "compute", spy)
            counts = spy_kernel_bookkeeping(patch)
            stream, stream_events = _run(mode, model(), plan)
        with monkeypatch.context() as patch:
            use_process_reference(patch)
            reference, reference_events = _run(mode, model(), plan)
        assert stream == reference
        assert reference_events - stream_events == kernel_event_drop(counts)
        if mode == "microbatch-ec":
            assert contended[True] > contended[False] > 0


# -- event-free deposits and the credit fast path -----------------------------


class TestStoreDeposit:
    def test_deposit_without_a_getter_costs_no_event(self):
        env = Environment()
        store = Store(env)
        store.put_nowait("a")
        store.put_nowait("b")
        assert store.items == ["a", "b"]
        env.run()
        assert env.events_processed == 0

    def test_deposit_serves_the_oldest_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item, env.now))

        def producer():
            yield env.timeout(1.0)
            store.put_nowait("x")
            store.put_nowait("y")

        env.process(getter("first"))
        env.process(getter("second"))
        env.process(producer())
        env.run()
        assert got == [("first", "x", 1.0), ("second", "y", 1.0)]
        assert store.items == []
        # Per getter its start, its served get and its exit; the producer
        # its start, timeout and exit: no event for either deposit.
        assert env.events_processed == 2 * 3 + 3

    def test_deposit_into_a_full_store_is_rejected(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put_nowait("a")
        with pytest.raises(SimulationError):
            store.put_nowait("b")


class TestContainerDepositAndGrant:
    def test_deposit_raises_the_level_without_an_event(self):
        env = Environment()
        container = Container(env, capacity=4, init=1)
        container.put_nowait(2)
        assert container.level == 3
        env.run()
        assert env.events_processed == 0

    def test_deposit_rejects_overflow_and_non_positive_amounts(self):
        env = Environment()
        container = Container(env, capacity=2, init=2)
        with pytest.raises(SimulationError):
            container.put_nowait(1)
        with pytest.raises(SimulationError):
            container.put_nowait(0)

    def test_deposit_serves_queued_getters_in_fifo_order(self):
        env = Environment()
        container = Container(env, capacity=4, init=0)
        got = []

        def getter(name, amount):
            yield container.get(amount)
            got.append((name, env.now))

        def producer():
            yield env.timeout(1.0)
            container.put_nowait(1)
            yield env.timeout(1.0)
            assert got == []  # "one" fits but waits behind "two"
            container.put_nowait(2)

        env.process(getter("two", 2))
        env.process(getter("one", 1))
        env.process(producer())
        env.run()
        assert got == [("two", 2.0), ("one", 2.0)]
        assert (container.level, container.min_level) == (0, 0)

    def test_free_unit_is_granted_on_the_spot(self):
        env = Environment()
        container = Container(env, capacity=3, init=3)
        resumed = []

        def taker():
            amount = yield container.get(2)
            resumed.append((amount, env.now, container.level))

        env.process(taker())
        env.run()
        assert resumed == [(2, 0.0, 1)]
        assert container.min_level == 1
        # Process start and exit only: the grant cost no event.
        assert env.events_processed == 2

    def test_instant_grant_returns_a_processed_event(self):
        env = Environment()
        container = Container(env, capacity=2, init=2)
        event = container.get(1)
        assert event.processed and event.value == 1
        assert (container.level, container.min_level) == (1, 1)

    def test_no_instant_grant_while_a_getter_is_queued(self):
        env = Environment()
        container = Container(env, capacity=3, init=1)
        blocked = container.get(2)
        assert not blocked.triggered
        behind = container.get(1)  # the level covers it, but FIFO rules
        assert not behind.triggered and container.level == 1
        container.put_nowait(2)
        env.run()
        assert blocked.processed and behind.processed
        assert container.level == 0

    def test_instant_grant_tracks_min_level(self):
        env = Environment()
        container = Container(env, capacity=4, init=4)
        for _ in range(3):
            container.get(1)
        container.put_nowait(2)
        container.get(1)
        assert (container.level, container.min_level) == (2, 1)

    def test_instant_grant_admits_a_queued_put(self):
        env = Environment()
        container = Container(env, capacity=2, init=2)
        put = container.put(1)  # full: queues
        assert not put.triggered
        container.get(1)
        assert put.triggered and container.level == 2

    def test_invalid_amount_still_rejected(self):
        env = Environment()
        container = Container(env, capacity=2, init=2)
        with pytest.raises(SimulationError):
            container.get(0)
