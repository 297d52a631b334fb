"""Edge-case tests for the simulation kernel beyond the basics."""

import pytest

from repro.simkit import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    SimulationError,
    StalledSimulationError,
    Store,
)


class TestConditionEdgeCases:
    def test_all_of_with_failure_propagates(self):
        env = Environment()
        gate = env.event()
        caught = []

        def proc():
            try:
                yield AllOf(env, [env.timeout(5), gate])
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer():
            yield env.timeout(1)
            gate.fail(RuntimeError("bad"))

        env.process(proc())
        env.process(failer())
        env.run()
        assert caught == ["bad"]

    def test_any_of_value_maps_triggered_events(self):
        env = Environment()
        results = []

        def proc():
            fast = env.timeout(1, value="fast")
            slow = env.timeout(10, value="slow")
            value = yield AnyOf(env, [fast, slow])
            results.append(list(value.values()))

        env.process(proc())
        env.run()
        assert results == [["fast"]]

    def test_nested_conditions(self):
        env = Environment()
        times = []

        def proc():
            yield (env.timeout(1) & env.timeout(2)) | env.timeout(10)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [2]

    def test_condition_over_pretriggered_events(self):
        env = Environment()
        done = env.event()
        done.succeed("x")
        times = []

        def proc():
            yield env.timeout(1)
            yield AllOf(env, [done])
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1]


class TestInterruptEdgeCases:
    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append(("interrupted", env.now))
            yield env.timeout(5)
            log.append(("done", env.now))

        def interrupter(target):
            yield env.timeout(2)
            target.interrupt()

        target = env.process(victim())
        env.process(interrupter(target))
        env.run()
        assert log == [("interrupted", 2), ("done", 7)]

    def test_interrupt_while_waiting_on_resource(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def holder():
            with resource.request() as req:
                yield req
                yield env.timeout(50)

        def waiter():
            request = resource.request()
            try:
                yield request
            except Interrupt:
                request.cancel()
                log.append(("gave-up", env.now))

        def interrupter(target):
            yield env.timeout(3)
            target.interrupt()

        env.process(holder())
        target = env.process(waiter())
        env.process(interrupter(target))
        env.run()
        assert log == [("gave-up", 3)]
        assert not resource.queue

    def test_cannot_self_interrupt(self):
        env = Environment()
        errors = []

        def proc():
            current = env.active_process
            try:
                current.interrupt()
            except SimulationError:
                errors.append(True)
            yield env.timeout(1)

        env.process(proc())
        env.run()
        assert errors == [True]


class TestStoreAndPriorityEdgeCases:
    def test_store_multiple_waiting_consumers_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        for name in ("a", "b"):
            env.process(consumer(name))

        def producer():
            yield env.timeout(1)
            yield store.put(1)
            yield store.put(2)

        env.process(producer())
        env.run()
        assert got == [("a", 1), ("b", 2)]

    def test_priority_resource_preserves_running_user(self):
        env = Environment()
        resource = PriorityResource(env, capacity=1)
        order = []

        def low_then_high():
            with resource.request(priority=5) as req:
                yield req
                order.append("low-start")
                env.process(high())
                yield env.timeout(10)
                order.append("low-end")

        def high():
            with resource.request(priority=0) as req:
                yield req
                order.append("high")

        env.process(low_then_high())
        env.run()
        # Priorities reorder the queue, they do not preempt the holder.
        assert order == ["low-start", "low-end", "high"]

    def test_zero_delay_timeouts_preserve_creation_order(self):
        env = Environment()
        order = []

        def proc(name):
            yield env.timeout(0)
            order.append(name)

        for name in "abc":
            env.process(proc(name))
        env.run()
        assert order == list("abc")


class TestRunSemantics:
    def test_step_on_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_future_time_with_no_events(self):
        env = Environment()
        env.run(until=100)
        assert env.now == 100

    def test_processes_spawned_during_run_execute(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(1)
            log.append(env.now)

        def parent():
            yield env.timeout(1)
            env.process(child())

        env.process(parent())
        env.run()
        assert log == [2]


class TestStallDiagnostics:
    def test_waiting_on_never_triggered_event_raises_stalled_simulation(self):
        """A process blocked on an event nobody will trigger is named in a
        StalledSimulationError instead of env.run() silently returning."""
        env = Environment()
        never = env.event()

        def waiter():
            yield never

        env.process(waiter(), name="stuck-waiter")
        with pytest.raises(StalledSimulationError) as excinfo:
            env.run()
        assert "stuck-waiter" in str(excinfo.value)
        assert any(
            proc.name == "stuck-waiter" for proc in excinfo.value.processes
        )

    def test_run_until_unreachable_event_raises(self):
        env = Environment()
        with pytest.raises(StalledSimulationError):
            env.run(until=env.event())

    def test_daemon_waiters_do_not_trip_stall_detection(self):
        """A daemon blocked forever (a listener loop) leaves plain
        env.run() draining cleanly."""
        env = Environment()
        done = env.timeout(1.0)

        def listener():
            yield env.event()

        env.process(listener(), name="listener", daemon=True)
        env.run()
        assert done.processed
