"""Discrete-event simulation kernel.

A small, dependency-free process-based discrete-event engine in the style of
SimPy.  Processes are Python generators that ``yield`` events; the
:class:`Environment` advances simulated time and resumes processes when the
events they wait on are triggered.

The kernel is deterministic: events scheduled at the same simulated time are
processed in insertion order (a monotonically increasing sequence number
breaks ties in the event heap).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Mapping
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Interrupt",
    "SimulationError",
    "StalledSimulationError",
]


class SimulationError(Exception):
    """Raised for malformed use of the simulation kernel."""


class StalledSimulationError(SimulationError):
    """The event queue drained while processes were still blocked.

    A stall is almost always a lost wakeup: a process is waiting on an event
    nobody will ever trigger (the canonical example is a pull whose request
    was lost, run without a resilience policy to retry it).  The
    exception names the blocked processes so the deadlock is diagnosable
    instead of silently returning control to the caller.
    """

    def __init__(self, processes, reason: str = "event queue exhausted"):
        self.processes = list(processes)
        names = ", ".join(p.name for p in self.processes) or "<none>"
        super().__init__(
            f"simulation stalled: {reason} with "
            f"{len(self.processes)} blocked process(es): {names}"
        )


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


class Event:
    """An event that may be triggered once with a value or an exception.

    Processes wait on events by yielding them.  Callbacks registered through
    :attr:`callbacks` run when the event is processed by the environment.
    ``_eid`` is the event's tie-break sequence number, assigned when it is
    scheduled (an event is scheduled at most once).
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_defused", "_eid")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused:
            raise self._exception

    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: timeouts are the hottest event kind.
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._defused = False
        self.delay = delay
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal event that starts a process at the current time."""

    __slots__ = ()

    def __init__(
        self, env: "Environment", process: "Process", priority: int = 1
    ):
        super().__init__(env)
        self._value = None
        self.callbacks.append(process)
        env._schedule(self, priority=priority)


class Process(Event):
    """Wraps a generator; the process itself is an event that triggers when
    the generator returns (with its return value) or raises.

    A process is its own resume callback (``__call__`` is :meth:`_resume`),
    so waiting on an event appends the process itself to the event's
    callbacks instead of allocating a bound method per wait.
    """

    __slots__ = ("_generator", "_target", "name", "daemon")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
        daemon: bool = False,
        priority: int = 1,
    ):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Daemon processes (e.g. server listen loops) are expected to stay
        # blocked forever and are exempt from stall detection.
        self.daemon = daemon
        env.processes_started += 1
        env._alive.add(self)
        # ``priority`` orders the process's first dispatch among same-time
        # events: priority > 1 starts only after all normal-priority work
        # scheduled for the current instant (background lanes, e.g. the
        # overlapped gradient all-reduce of the task-graph scheduler).
        Initialize(env, self, priority=priority)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._value = None
        event._exception = Interrupt(cause)
        event._defused = True
        # Detach from the old target so its trigger no longer resumes us.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self)
            except ValueError:
                pass
        event.callbacks = [self]
        self.env._schedule(event, priority=0)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            try:
                if event._exception is not None:
                    event._defused = True
                    target = self._generator.throw(event._exception)
                else:
                    target = self._generator.send(event._value)
            except StopIteration as stop:
                self._target = None
                self.env._active_process = None
                self.env._alive.discard(self)
                self.succeed(getattr(stop, "value", None))
                return
            except BaseException as exc:
                self._target = None
                self.env._active_process = None
                self.env._alive.discard(self)
                self.fail(exc)
                return

            if not isinstance(target, Event):
                self.env._active_process = None
                raise SimulationError(
                    f"process yielded a non-event: {target!r}"
                )
            if target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            self._target = target
            target.callbacks.append(self)
            break
        self.env._active_process = None

    __call__ = _resume


class Condition(Event):
    """Waits on a set of events until ``evaluate`` says the condition holds.

    The value of a condition maps each constituent event that has fired
    to its value, in constituent order; :meth:`_trigger_value` builds it.
    A condition is its own callback on every constituent (``__call__`` is
    :meth:`_check`).
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self)

    def _trigger_value(self) -> Any:
        # Only events that actually fired (callbacks processed) belong in
        # the condition's value: a Timeout carries its value from creation
        # but has not "happened" until the clock reaches it.
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._exception is None
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        self._count += 1
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
        elif self._evaluate(len(self._events), self._count):
            self.succeed(self._trigger_value())

    __call__ = _check


class ConditionValue(Mapping):
    """The value of an :class:`AllOf`: ``{event: value}`` built on demand.

    When an ``AllOf`` triggers, every constituent has fired successfully
    and an event's value never changes afterwards, so building the dict
    lazily gives exactly the dict an eager build would have.  Most waiters
    never read it, so the build is skipped unless someone does.  Compares
    equal to the eager dict.
    """

    __slots__ = ("_events", "_dict")

    def __init__(self, events: List[Event]):
        self._events = events
        self._dict: Optional[dict] = None

    def todict(self) -> dict:
        if self._dict is None:
            self._dict = {event: event._value for event in self._events}
        return self._dict

    def __getitem__(self, event: Event) -> Any:
        return self.todict()[event]

    def __iter__(self):
        return iter(self.todict())

    def __len__(self) -> int:
        return len(self.todict())

    def __repr__(self) -> str:
        return repr(self.todict())


def _all_done(total: int, done: int) -> bool:
    return done == total


def _any_done(total: int, done: int) -> bool:
    return done >= 1


class AllOf(Condition):
    """Triggered when all constituent events have triggered; its value is
    a lazily built :class:`ConditionValue`."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, _all_done, events)

    def _trigger_value(self) -> ConditionValue:
        return ConditionValue(self._events)


class AnyOf(Condition):
    """Triggered when any constituent event has triggered; its value is
    fixed at trigger time (later-firing constituents are not in it)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, _any_done, events)


class _Call:
    """A kernel callback record: runs ``fn(arg)`` when its time comes.

    Scheduled by :meth:`Environment.call_later`.  Nobody waits on it, so
    it carries no callbacks list, value or exception state — it exists
    only to hold its place in the ``(time, priority, eid)`` order.
    """

    __slots__ = ("_fn", "_arg", "_eid")

    def __init__(self, fn: Callable[[Any], None], arg: Any):
        self._fn = fn
        self._arg = arg

    def _process_callbacks(self) -> None:
        self._fn(self._arg)


class Environment:
    """Coordinates event scheduling and process execution."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Calendar-bucket front-end on the heap: the heap holds one
        # ``(time, priority)`` key per distinct scheduling instant, and the
        # events themselves sit in per-key FIFO buckets.  Dense-timer
        # regimes (hundreds of compute kernels finishing at the same
        # simulated instant at fleet scale) then cost one heap push for the
        # whole cohort instead of one per event, and draining a cohort is a
        # bucket walk, not repeated heap pops.  Bucket FIFO order is eid
        # order (eids are handed out monotonically at schedule time), so
        # the merged pop order is exactly the (time, priority, eid) order
        # of a single flat heap.
        self._queue: List = []
        self._buckets: dict = {}
        # Zero-delay, normal-priority schedules (the vast majority: every
        # succeed()/fail() and delay-0 timeout) bypass the heap.  Invariant:
        # every entry was enqueued at the current ``_now``, so the deque is
        # already in (time, priority, eid) order and ``_now`` cannot advance
        # while it is non-empty.
        self._immediate: deque = deque()
        # Callbacks to run when the current instant's cohort has fully
        # drained (no event due at ``_now`` remains), just before the clock
        # would advance.  This is how the fluid network recomputes rates
        # once per same-timestamp cohort instead of once per event.
        self._instant_hooks: List[Callable[[], None]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._alive: set = set()
        # Kernel accounting (harvested by repro.metrics; never read by the
        # simulation itself).
        self.events_processed = 0
        self.processes_started = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def call_later(
        self, delay: float, callback: Callable[[Any], None], value: Any = None
    ) -> None:
        """Run ``callback(value)`` ``delay`` time units from now.

        The call takes exactly the place in the event order that a
        :class:`Timeout` of the same delay created at this point would,
        and counts as one processed event, but allocates one small record
        instead of an event and its callbacks list.  Use it for internal
        timers nobody waits on; per-flow callers pass a plain function
        rather than a freshly bound method.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self._schedule(_Call(callback, value), delay=delay)

    def process(
        self,
        generator: Generator,
        name: Optional[str] = None,
        daemon: bool = False,
        priority: int = 1,
    ) -> Process:
        return Process(
            self, generator, name=name, daemon=daemon, priority=priority
        )

    def blocked_processes(self) -> List[Process]:
        """Non-daemon processes that are alive (started, not finished)."""
        return [p for p in self._alive if not p.daemon]

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Any, delay: float = 0.0, priority: int = 1) -> None:
        self._eid = event._eid = self._eid + 1
        if delay == 0.0 and priority == 1:
            self._immediate.append(event)
        else:
            key = (self._now + delay, priority)
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = bucket = deque()
                heapq.heappush(self._queue, key)
            bucket.append(event)

    def defer_to_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the current instant's cohort has drained.

        The callback fires after every event due at the current simulated
        time has been processed, immediately before the clock would advance
        (or the queue exhausts).  Callbacks may schedule new events — at
        the current instant or later — in which case those are processed
        (and the hooks re-flushed) before time moves.
        """
        self._instant_hooks.append(callback)

    def _instant_drained(self) -> bool:
        """No event due at the current instant remains."""
        if self._immediate:
            return False
        queue = self._queue
        return not queue or queue[0][0] > self._now

    def _flush_instant_hooks(self) -> None:
        while self._instant_hooks and self._instant_drained():
            hooks = self._instant_hooks
            self._instant_hooks = []
            for hook in hooks:
                hook()

    def peek(self) -> float:
        """Time of the next scheduled activity, or +inf if none.

        Pending instant-end hooks count as activity at the current time:
        they may schedule events at ``now`` when they run.
        """
        if self._immediate or self._instant_hooks:
            return self._now
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        The merged pop order over the heap buckets and the immediate deque
        is exactly the (time, priority, eid) order a single flat heap would
        give: bucket times are always >= ``_now``, so a bucket entry wins
        only when it is at the current time with a higher priority or an
        earlier eid than the oldest immediate event.  When the current
        instant has fully drained, pending instant-end hooks run before
        the clock advances.
        """
        immediate = self._immediate
        queue = self._queue
        if self._instant_hooks and not immediate and (
            not queue or queue[0][0] > self._now
        ):
            self._flush_instant_hooks()
        if immediate:
            event = None
            if queue:
                key = queue[0]
                if key[0] == self._now:
                    bucket = self._buckets[key]
                    priority = key[1]
                    if priority < 1 or (
                        priority == 1 and bucket[0]._eid < immediate[0]._eid
                    ):
                        event = bucket.popleft()
                        if not bucket:
                            del self._buckets[key]
                            heapq.heappop(queue)
            if event is None:
                event = immediate.popleft()
        else:
            if not queue:
                raise SimulationError("no more events to process")
            key = queue[0]
            bucket = self._buckets[key]
            event = bucket.popleft()
            if not bucket:
                del self._buckets[key]
                heapq.heappop(queue)
            self._now = key[0]
        self.events_processed += 1
        event._process_callbacks()

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        Returns the value of ``until`` when it is an event.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        queue = self._queue
        immediate = self._immediate
        step = self.step
        while queue or immediate or self._instant_hooks:
            if stop_event is not None and stop_event.callbacks is None:
                return stop_event.value
            if stop_time is not None and self.peek() > stop_time:
                self._now = stop_time
                return None
            if self._instant_hooks and not immediate and (
                not queue or queue[0][0] > self._now
            ):
                # The current instant has drained: run the instant-end
                # hooks, then re-apply the stop checks before any event
                # they scheduled (possibly later than ``until``) runs.
                self._flush_instant_hooks()
                continue
            step()

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise StalledSimulationError(
                sorted(self.blocked_processes(), key=lambda p: p.name),
                reason="run() finished but the awaited event never triggered",
            )
        if stop_time is not None:
            self._now = stop_time
            return None
        blocked = self.blocked_processes()
        if blocked:
            raise StalledSimulationError(
                sorted(blocked, key=lambda p: p.name)
            )
        return None
