"""Kernel semantics of the allocation-lean hot path.

The event kernel schedules internal timers as ``call_later`` records,
keeps each event's tie-break id on the event itself, lets processes and
conditions register themselves as callbacks, builds ``AllOf`` values
lazily and makes every :class:`~repro.netsim.fluid.Flow` its own
completion event.  These tests pin that none of it changes what a
simulation observes, and that a training iteration leaves no cyclic
garbage behind.
"""

import gc
from collections.abc import Mapping

import pytest

from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.core import build_workload, engine_for
from repro.faults import FaultInjector, FaultPlan, MessageLoss
from repro.netsim import Fabric
from repro.netsim.fluid import FluidNetwork
from repro.simkit import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)

# -- call_later ---------------------------------------------------------------


def _timer_order(use_call_later: bool, delay: float):
    """Log of a scenario with one internal timer created mid-stream.

    Same-time work is queued before and after the timer at the instant
    it comes due (and, for ``delay == 0``, in the current instant), so
    the log pins the timer's exact (time, priority, eid) slot.
    """
    env = Environment()
    log = []

    def worker(name, wait):
        yield env.timeout(wait)
        log.append((name, env.now))

    env.process(worker("early", delay))
    env.process(worker("zero", 0.0))

    def arm():
        yield env.timeout(0.0)
        if use_call_later:
            env.call_later(delay, log.append, ("timer", "value"))
        else:
            timer = env.timeout(delay, value=("timer", "value"))
            timer.callbacks.append(lambda event: log.append(event.value))
        env.process(worker("late", delay))
        yield env.timeout(delay)
        log.append(("armer", env.now))

    env.process(arm())
    env.run()
    return log, env.events_processed, env.now


@pytest.mark.parametrize("delay", [0.0, 1.5])
def test_call_later_takes_the_slot_of_an_equal_timeout(delay):
    expected = _timer_order(use_call_later=False, delay=delay)
    assert _timer_order(use_call_later=True, delay=delay) == expected
    assert ("timer", "value") in expected[0]


def test_call_later_negative_delay_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.call_later(-1e-9, print, None)


# -- conditions ---------------------------------------------------------------


def test_lazy_all_of_value_equals_eager_dict_including_nested():
    env = Environment()
    first = env.timeout(1, value="a")
    gate = env.event()
    inner_x = env.timeout(2, value="x")
    inner_y = env.timeout(3, value="y")
    inner = AllOf(env, [inner_x, inner_y])
    outer = AllOf(env, [first, gate, inner])
    seen = {}

    def opener():
        yield env.timeout(0.5)
        gate.succeed(7)

    def waiter():
        seen["value"] = yield outer

    env.process(opener())
    env.process(waiter())
    env.run()
    value = seen["value"]
    eager = {first: "a", gate: 7, inner: {inner_x: "x", inner_y: "y"}}
    assert value == eager
    assert eager == value
    assert isinstance(value, Mapping)
    assert list(value) == [first, gate, inner]
    assert value[gate] == 7
    assert len(value) == 3
    assert outer.value is value
    assert inner.value == {inner_x: "x", inner_y: "y"}


def test_any_of_value_is_fixed_at_trigger_time():
    env = Environment()
    fast = env.timeout(1, value="fast")
    slow = env.timeout(2, value="slow")
    cond = AnyOf(env, [fast, slow])

    def waiter():
        yield cond
        yield env.timeout(5)

    env.process(waiter())
    env.run()
    # ``slow`` fired later; the condition's value still reads as it did
    # when the condition triggered.
    assert slow.processed
    assert cond.value == {fast: "fast"}


# -- processes ----------------------------------------------------------------


def test_interrupt_detaches_self_registered_process_from_its_target():
    env = Environment()
    gate = env.event()
    log = []

    def sleeper():
        try:
            yield gate
            log.append(("gate", env.now))
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))
        yield env.timeout(5)
        log.append(("woke", env.now))

    def interrupter(target):
        yield env.timeout(1)
        assert target in gate.callbacks
        target.interrupt("stop")
        assert target not in gate.callbacks
        yield env.timeout(1)
        gate.succeed()

    proc = env.process(sleeper())
    env.process(interrupter(proc))
    env.run()
    assert log == [("interrupted", 1, "stop"), ("woke", 6)]


# -- flows ---------------------------------------------------------------------


def test_flow_is_its_own_completion_event():
    env = Environment()
    net = FluidNetwork(env)
    net.add_link("l", 100.0)
    flow = net.transfer(("l",), 100.0, latency=0.5)
    assert flow.done is flow
    assert not flow.triggered
    env.run(until=flow.done)
    assert flow.processed
    assert flow.value is None
    assert flow.completed_at == pytest.approx(1.5)


def test_fault_injector_dropped_flow_never_triggers():
    env = Environment()
    fabric = Fabric(env, Cluster(2))
    plan = FaultPlan(faults=(MessageLoss(("pull-request",), rate=1.0),))
    injector = FaultInjector(plan, fabric).install()
    cluster = fabric.cluster
    flow = fabric.transfer(
        cluster.gpu_device(0), cluster.gpu_device(cluster.spec.num_gpus),
        1e6, tag=("pull-request", 0),
    )
    outcome = {}

    def waiter():
        outcome["value"] = yield AnyOf(env, [flow, env.timeout(1.0)])

    env.process(waiter())
    env.run()
    assert injector.stats.dropped_messages == 1
    assert not flow.triggered
    assert flow.completed_at is None
    assert flow not in outcome["value"]
    assert fabric.network.total_bytes_completed == 0.0


# -- cyclic garbage --------------------------------------------------------------


@pytest.mark.parametrize(
    "mode",
    ["expert-centric", "data-centric", "pipelined-ec", "microbatch-ec"],
)
def test_warm_iteration_leaves_no_cyclic_garbage(mode):
    """Everything an iteration allocates is freed by reference counting.

    A finished flow or event that referenced itself (for instance through
    ``succeed(self)``) would survive as a reference cycle, and at fleet
    scale tens of thousands of them per iteration drive the collector.
    """
    config = moe_gpt(16)
    cluster = Cluster(2)
    engine = engine_for(
        mode, config, cluster, workload=build_workload(config, cluster)
    )
    engine.run_iteration()  # warm: first-iteration memos and caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine.run_iteration()
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert unreachable == 0
