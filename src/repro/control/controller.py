"""The engine-facing controller: apply drift, harvest, decide, actuate.

:class:`Controller` is the object the engine's run loop talks to.  Before
every iteration it advances the workload's drift process (if any); after
every iteration it harvests :class:`~repro.control.signals.ControlSignals`,
runs the :class:`~repro.control.policy.ControlPolicy`, and actuates the
decision — rewriting the engine's per-block strategy map and replica map,
emitting ``control.*`` metrics and trace marks.  Everything happens
*between* iterations: the controller never touches a live simulation.

This module deliberately never imports :mod:`repro.core` at module level,
so ``repro.core.engine`` can lazily import it (for the
``degradation=`` auto-wrap) without a cycle.
"""

from __future__ import annotations

from typing import Optional

from .policy import ControlDecision, ControlPolicy, CostModel
from .signals import ControlSignals

__all__ = ["Controller"]


class Controller:
    """Between-iteration control loop for one :class:`JanusEngine`.

    ``policy`` may be None (drift-only controller: the workload shifts but
    nothing adapts — the static-paradigm baseline under drift); ``drift``
    may be None (adapt-only controller for organically shifting or faulted
    workloads).  ``decisions`` keeps the full decision history for
    inspection and the CLI summary.
    """

    def __init__(self, policy: Optional[ControlPolicy] = None, drift=None):
        self.policy = policy
        self.drift = drift
        self.decisions = []
        self._cost_model: Optional[CostModel] = None
        self._drift_applied: Optional[int] = None

    def prepare(self, engine) -> None:
        """Called by the engine before each iteration it runs.

        Normally :meth:`observe` has already advanced the drift process for
        this iteration (it decides on the upcoming routing); this covers
        the first iteration and standalone ``run_iteration`` calls.
        """
        iteration = engine.iterations_run
        if self.policy is not None and self._cost_model is None:
            self.policy.attach(dict(engine.block_strategies))
            self._cost_model = CostModel.from_engine(engine)
            if self.policy.config.adapt_chunks:
                # Arm the engine's per-iteration chunk retune: the engine
                # re-runs the tuner at every iteration start, which *is*
                # the controller's between-iteration chunk adaptation
                # (each retune sees the freshly drifted routing).
                import dataclasses

                engine.features = dataclasses.replace(
                    engine.features, chunk_autotune=True
                )
        if self.drift is not None and self._drift_applied != iteration:
            from ..workloads.drift import apply_drift

            apply_drift(engine.workload, self.drift, iteration)
            self._drift_applied = iteration

    def observe(self, engine, result) -> Optional[ControlDecision]:
        """Called by the engine after each iteration; actuates the policy.

        Janus schedules *fine-grained*: each iteration's paradigm choice
        may use that iteration's routing, which the gate produces before
        any MoE communication starts.  So the drift process is advanced
        first, and the decision for iteration ``i+1`` sees iteration
        ``i+1``'s routing aggregates alongside iteration ``i``'s measured
        outcome (times, fault counters) — adaptation without a one-
        iteration lag, exactly the information a real control plane holds
        between the gate pass and the dispatch.
        """
        next_iteration = engine.iterations_run
        if self.drift is not None and self._drift_applied != next_iteration:
            from ..workloads.drift import apply_drift

            apply_drift(engine.workload, self.drift, next_iteration)
            self._drift_applied = next_iteration
        if self.policy is None:
            return None
        signals = ControlSignals.harvest(
            result, engine.workload, iteration=next_iteration
        )
        decision = self.policy.decide(signals, self._cost_model)
        self._actuate(engine, result, decision)
        self.decisions.append(decision)
        return decision

    # -- actuation -----------------------------------------------------------

    def _actuate(self, engine, result, decision: ControlDecision) -> None:
        metrics = engine.metrics
        trace = result.trace
        now = result.seconds
        for block in sorted(decision.strategies):
            resolved = engine.set_block_strategy(
                block, decision.strategies[block]
            )
            cause = decision.causes.get(block)
            if cause == "fault":
                # The fault arm stays observable through the fault stats
                # and the fault.* trace lane.
                if result.fault_stats is not None:
                    result.fault_stats.degraded_blocks[block] = resolved
                trace.mark(
                    "fault.degrade", now, block=block, strategy=resolved
                )
                if metrics is not None:
                    metrics.inc("control.fault_degrades", block=block)
            elif cause == "recover":
                trace.mark(
                    "control.recover", now, block=block, strategy=resolved
                )
                if metrics is not None:
                    metrics.inc("control.recoveries", block=block)
            else:
                trace.mark(
                    "control.switch", now, block=block, strategy=resolved,
                    cause=cause,
                )
                if metrics is not None:
                    metrics.inc("control.switches", block=block)
        for block, expert, machine in decision.replicate:
            trace.mark(
                "control.replicate", now, block=block, expert=expert,
                machine=machine,
            )
            if metrics is not None:
                metrics.inc("control.replications", block=block)
        for block, expert, machine in decision.evict:
            trace.mark(
                "control.evict", now, block=block, expert=expert,
                machine=machine,
            )
            if metrics is not None:
                metrics.inc("control.evictions", block=block)
        engine.replicas = {
            block: dict(experts)
            for block, experts in decision.replicas.items()
        }

    # -- inspection ----------------------------------------------------------

    @property
    def switch_count(self) -> int:
        return sum(len(d.strategies) for d in self.decisions)

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        switches = sum(
            1
            for d in self.decisions
            for c in d.causes.values()
            if c in ("fault", "load")
        )
        recoveries = sum(
            1 for d in self.decisions
            for c in d.causes.values() if c == "recover"
        )
        replications = sum(len(d.replicate) for d in self.decisions)
        evictions = sum(len(d.evict) for d in self.decisions)
        return (
            f"control: {switches} switch(es), {recoveries} recover(ies), "
            f"{replications} replication(s), {evictions} eviction(s)"
        )
