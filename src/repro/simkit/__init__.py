"""Minimal process-based discrete-event simulation kernel (SimPy-style)."""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StalledSimulationError,
    Timeout,
)
from .resources import (
    Container,
    PriorityRequest,
    PriorityResource,
    Request,
    Resource,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "StalledSimulationError",
    "Store",
    "Timeout",
]
