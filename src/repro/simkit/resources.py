"""Shared-resource primitives for the simulation kernel.

Provides FIFO and priority-ordered resources (semaphores with queueing),
an item store, and a numeric container.  All follow the SimPy usage idiom::

    with resource.request() as req:
        yield req
        ...critical section...

Releases happen either via the context manager or an explicit
``resource.release(request)``.
"""

from __future__ import annotations

from typing import Any, List

from .core import Environment, Event, SimulationError

__all__ = [
    "Request",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Store",
    "Container",
]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self._queue: List[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue(self) -> List[Request]:
        """Requests waiting for a slot (oldest first)."""
        return list(self._queue)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` (no-op if it never got one)."""
        if request in self.users:
            self.users.remove(request)
            self._trigger_requests()
        else:
            request.cancel()

    def _sort_queue(self) -> None:
        """Hook for subclasses that keep an ordered queue."""

    def _trigger_requests(self) -> None:
        self._sort_queue()
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.pop(0)
            self.users.append(request)
            request.succeed()


class PriorityRequest(Request):
    """Request with a priority; smaller value means earlier service."""

    __slots__ = ("priority", "time", "seq")

    _seq = 0

    def __init__(self, resource: "PriorityResource", priority: float = 0.0):
        self.priority = priority
        PriorityRequest._seq += 1
        self.time = resource.env.now
        self.seq = PriorityRequest._seq
        super().__init__(resource)

    @property
    def key(self):
        return (self.priority, self.time, self.seq)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def request(self, priority: float = 0.0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _sort_queue(self) -> None:
        self._queue.sort(key=lambda request: request.key)  # type: ignore[attr-defined]


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A FIFO item buffer with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Deposit ``item`` without an event (for producers that never
        wait on the put): the oldest queued getter, if any, is served at
        once, exactly as an un-yielded :meth:`put` would serve it."""
        if self._put_queue or len(self.items) >= self.capacity:
            raise SimulationError("put_nowait on a full store")
        self.items.append(item)
        if self._get_queue:
            self._trigger()

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._get_queue and self.items:
                get = self._get_queue.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A homogeneous quantity (e.g. credits, bytes of buffer space)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init level out of range")
        self.env = env
        self.capacity = capacity
        self._level = init
        self.min_level = init
        self._put_queue: List[ContainerPut] = []
        self._get_queue: List[ContainerGet] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def put_nowait(self, amount: float) -> None:
        """Raise the level by ``amount`` without an event (for producers
        that never wait on the put); queued getters the new level covers
        are served in FIFO order, as an un-yielded :meth:`put` would."""
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        if self._put_queue or self._level + amount > self.capacity:
            raise SimulationError("put_nowait would overflow the container")
        self._level += amount
        if self._get_queue:
            self._trigger()

    def get(self, amount: float) -> Event:
        """Take ``amount``; yield the returned event to wait for it.

        With the level sufficient and no getter queued ahead, the amount
        is taken now and the returned event is already processed, so the
        yielding process resumes without an event.  Otherwise the get
        queues (FIFO) until a put covers it.
        """
        if not self._get_queue and 0 < amount <= self._level:
            self._level -= amount
            if self._level < self.min_level:
                self.min_level = self._level
            if self._put_queue:
                self._trigger()
            granted = Event(self.env)
            granted._value = amount
            granted.callbacks = None
            return granted
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if (
                self._put_queue
                and self._level + self._put_queue[0].amount <= self.capacity
            ):
                put = self._put_queue.pop(0)
                self._level += put.amount
                put.succeed()
                progressed = True
            if self._get_queue and self._level >= self._get_queue[0].amount:
                get = self._get_queue.pop(0)
                self._level -= get.amount
                self.min_level = min(self.min_level, self._level)
                get.succeed(get.amount)
                progressed = True
