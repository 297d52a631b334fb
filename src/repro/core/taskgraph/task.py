"""Task nodes of the iteration task graph.

A :class:`Task` is one schedulable unit of an iteration: a gate
synchronization point, a dense or expert compute kernel, one All-to-All
chunk, a Task-Queue pull pipeline, or a gradient all-reduce.  Tasks carry

* **dependencies** — ``waits`` (event labels the task blocks on before its
  body runs) and ``signals`` (event labels it triggers after the body),
* **resource claims** — which simulated resources (GPU compute streams,
  NIC links) the body occupies, used by the structural validator and the
  DAG export (the actual arbitration happens in the fabric's resources),
* **priority** — the simkit dispatch priority of the owning lane
  (background lanes such as the overlapped gradient all-reduce run at
  priority > 1 so they start after same-instant foreground work).

Tasks never touch the simulation kernel themselves: the executor resolves
labels to events and drives bodies (see :mod:`.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

__all__ = ["TaskKind", "ResourceClaim", "Task"]


class TaskKind(str, Enum):
    """What one task node does (the Fig. 5 activity classes)."""

    GATE = "gate"                      # pure synchronization, no duration
    DENSE_COMPUTE = "dense-compute"    # attention (+ gate) kernels
    EXPERT_COMPUTE = "expert-compute"  # expert FFN kernels
    A2A_CHUNK = "a2a-chunk"            # one (chunk of an) All-to-All
    PULL = "pull"                      # Task-Queue pull machinery
    GRAD_ALLREDUCE = "grad-allreduce"  # dense-gradient all-reduce


@dataclass(frozen=True, slots=True)
class ResourceClaim:
    """One simulated resource a task occupies while its body runs.

    ``mode`` is ``"scoped"`` when the claim is acquired and released inside
    the task body (the common case: a ``fabric.compute`` kernel or a flow
    holds its stream or links only until its completion event).  A claim
    split across tasks uses an ``"acquire"`` on one task and a matching
    ``"release"`` on a later task of the same lane; the validator checks
    every acquire is released.

    Most claims are descriptive (the fabric arbitrates its own resources);
    a claim with a non-``None`` ``priority`` is *enforced* when the
    executor is handed an arbiter for its resource — the task then holds a
    slot of that resource for the duration of its body, granted in
    priority order (smaller first, FIFO within a priority).  The intra-A2A
    chunk scheduler uses this to stagger chunk sends over a shared NIC
    fabric.
    """

    resource: str
    mode: str = "scoped"
    priority: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("scoped", "acquire", "release"):
            raise ValueError(f"unknown claim mode {self.mode!r}")


@dataclass(slots=True)
class Task:
    """One node of the task graph.

    ``waits``/``signals`` are event *labels* (strings); the owning
    :class:`~repro.core.taskgraph.graph.TaskGraph` maps labels to simkit
    events, which keeps graphs buildable (and validatable / exportable)
    without an environment.  ``body`` is either ``None`` (pure
    synchronization), a plain callable (instant bookkeeping), or a
    generator function yielding simkit events (timed work).
    """

    name: str
    kind: TaskKind
    waits: Tuple[str, ...] = ()
    signals: Tuple[str, ...] = ()
    body: Optional[Callable] = None
    claims: Tuple[ResourceClaim, ...] = field(default_factory=tuple)
    priority: int = 1
    worker: Optional[int] = None
    block: Optional[int] = None
    phase: Optional[str] = None
    detail: Optional[str] = None
    #: Whether the executor's observer books this task (``task.*`` span and
    #: per-kind counters).  Builders turn it off for bookkeeping gates.
    traced: bool = True

    def __post_init__(self):
        if type(self.kind) is not TaskKind:
            self.kind = TaskKind(self.kind)
        if self.priority < 1:
            raise ValueError("task priority must be >= 1")

    def describe(self) -> dict:
        """JSON-ready structural view of this task (no body)."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "waits": list(self.waits),
            "signals": list(self.signals),
            "claims": [
                {"resource": claim.resource, "mode": claim.mode}
                if claim.priority is None
                else {
                    "resource": claim.resource,
                    "mode": claim.mode,
                    "priority": claim.priority,
                }
                for claim in self.claims
            ],
            "priority": self.priority,
            "worker": self.worker,
            "block": self.block,
            "phase": self.phase,
            "detail": self.detail,
        }
