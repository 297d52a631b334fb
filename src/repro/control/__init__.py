"""Online adaptive control plane (DESIGN.md §10).

Between-iteration feedback loop over the timed engine: harvest one
iteration's measured signals (:mod:`repro.control.signals`), decide
(:mod:`repro.control.policy`) which blocks should switch paradigm, which
hot experts to replicate across machines and which cold replicas to evict,
and apply the decisions plus the next iteration's popularity drift
(:mod:`repro.control.controller`).  Unifies the fault-driven
:class:`~repro.faults.DegradationPolicy` of the resilience layer and the
new load-driven adaptation behind one policy interface, with hysteresis,
cooldown and probation-based recovery so decisions neither flap nor
ratchet one-way.
"""

from .controller import Controller
from .policy import (
    ChunkPlan,
    ControlConfig,
    ControlDecision,
    ControlPolicy,
    CostModel,
    tune_engine_chunks,
)
from .signals import BlockLoadSignals, ControlSignals

__all__ = [
    "BlockLoadSignals",
    "ChunkPlan",
    "ControlConfig",
    "ControlDecision",
    "ControlPolicy",
    "ControlSignals",
    "Controller",
    "CostModel",
    "tune_engine_chunks",
]
