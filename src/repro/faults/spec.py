"""Fault specifications: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a deterministic, seeded description of adverse
conditions applied to one simulated run.  Each fault is a frozen dataclass
with an activity window ``[start, end)`` in simulated seconds (``end`` may
be ``inf`` for the whole run), so the same plan + seed always reproduces
the same timeline.  Supported fault kinds:

* :class:`LinkFault` — rescale the bandwidth of a set of links for the
  window (degradation with ``factor < 1``, flaps via several windows);
* :class:`MessageLoss` — probabilistic loss of pull control messages
  (``pull-request``, ``grad-push``, ``pull-direct``) drawn from the plan's
  seeded RNG;
* :class:`ServerOutage` — a machine's pull server goes dark: the pull
  requests it receives are dropped, or held until the window ends;
* :class:`ComputeSlowdown` — per-machine compute slowdown, the library
  generalization of the straggler ablation's static ``machine_speed``.

The CLI's ``--faults`` string is parsed by :meth:`FaultPlan.parse`; see
that method for the mini-grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

__all__ = [
    "LOSSABLE_MESSAGE_KINDS",
    "ComputeSlowdown",
    "FaultPlan",
    "LinkFault",
    "MessageLoss",
    "ServerOutage",
]

# Control-plane tags whose loss the resilient schedulers can survive.
# Dropping arbitrary data-plane flows would deadlock callers that hold no
# timeout on them, so MessageLoss is restricted to these kinds.
LOSSABLE_MESSAGE_KINDS = ("pull-request", "grad-push", "pull-direct")

_INF = float("inf")


def _check_window(start: float, end: float) -> None:
    if start < 0:
        raise ValueError(f"fault window start must be >= 0, got {start}")
    if end <= start:
        raise ValueError(f"fault window [{start}, {end}) is empty")


@dataclass(frozen=True)
class LinkFault:
    """Multiply the capacity of the links matched by ``selector`` during
    the window.  ``selector`` is a link-kind prefix (``"nic"``, ``"nvlink"``,
    ``"pcie"``, ``"*"`` for all), optionally scoped to one machine with
    ``"kind.machine"`` (e.g. ``"nic.0"``)."""

    selector: str
    factor: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError(f"link factor must be positive, got {self.factor}")
        _check_window(self.start, self.end)

    def matches(self, link_id) -> bool:
        kind, machine = self.selector, None
        if "." in self.selector:
            kind, machine_text = self.selector.split(".", 1)
            machine = int(machine_text)
        if kind != "*" and not str(link_id.kind).startswith(kind):
            return False
        return machine is None or link_id.machine == machine


@dataclass(frozen=True)
class MessageLoss:
    """Drop each matching control message with probability ``rate``."""

    kinds: Tuple[str, ...] = ("pull-request", "grad-push")
    rate: float = 0.1
    start: float = 0.0
    end: float = _INF

    def __post_init__(self):
        if isinstance(self.kinds, str):
            object.__setattr__(self, "kinds", (self.kinds,))
        else:
            object.__setattr__(self, "kinds", tuple(self.kinds))
        for kind in self.kinds:
            if kind not in LOSSABLE_MESSAGE_KINDS:
                raise ValueError(
                    f"cannot inject loss on {kind!r}; lossable kinds: "
                    f"{LOSSABLE_MESSAGE_KINDS}"
                )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.rate}")
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ServerOutage:
    """Machine ``machine``'s pull serving goes dark during the window.

    ``mode="drop"`` discards incoming pull requests; ``mode="pause"`` holds
    them and serves them when the window ends (see
    :meth:`~repro.faults.FaultInjector.hold_until`).
    """

    machine: int
    mode: str = "drop"
    start: float = 0.0
    end: float = _INF

    def __post_init__(self):
        if self.machine < 0:
            raise ValueError("machine index must be non-negative")
        if self.mode not in ("drop", "pause"):
            raise ValueError(f"outage mode must be drop|pause, got {self.mode!r}")
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class ComputeSlowdown:
    """Machine ``machine`` computes at ``speed`` (< 1) during the window."""

    machine: int
    speed: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self):
        if self.machine < 0:
            raise ValueError("machine index must be non-negative")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        _check_window(self.start, self.end)


FaultSpec = Union[LinkFault, MessageLoss, ServerOutage, ComputeSlowdown]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of fault specs for one run."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def of_type(self, cls) -> Tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if isinstance(f, cls))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI ``--faults`` mini-grammar.

        Semicolon-separated clauses; each fault clause is
        ``kind=target*magnitude[@start:end]`` (window in simulated seconds,
        omitted = whole run):

        * ``seed=7``                       — RNG seed for probabilistic faults
        * ``loss=pull-request*0.1``        — drop 10% of pull requests
          (several kinds: ``loss=pull-request+grad-push*0.05``)
        * ``link=nic*0.25@0.005:0.015``    — NIC links at 25% bandwidth for
          the window (selector may scope a machine: ``nic.0``)
        * ``slow=0*0.5``                   — machine 0 computes at half speed
        * ``outage=1@0.002:0.004``         — machine 1 drops pull requests
          (``outage=1:pause@...`` holds them to the window end)
        """
        seed = 0
        faults = []
        for raw_clause in text.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(f"malformed fault clause {clause!r}")
            key, _, body = clause.partition("=")
            key = key.strip()
            try:
                if key == "seed":
                    seed = int(body)
                elif key == "loss":
                    target, magnitude, start, end = _split_clause(body)
                    faults.append(MessageLoss(
                        kinds=tuple(target.split("+")), rate=magnitude,
                        start=start, end=end,
                    ))
                elif key == "link":
                    target, magnitude, start, end = _split_clause(body)
                    faults.append(LinkFault(
                        selector=target, factor=magnitude,
                        start=start, end=end,
                    ))
                elif key == "slow":
                    target, magnitude, start, end = _split_clause(body)
                    faults.append(ComputeSlowdown(
                        machine=int(target), speed=magnitude,
                        start=start, end=end,
                    ))
                elif key == "outage":
                    target, _, window = body.partition("@")
                    machine, _, mode = target.partition(":")
                    start, end = _parse_window(window)
                    faults.append(ServerOutage(
                        machine=int(machine), mode=mode or "drop",
                        start=start, end=end,
                    ))
                else:
                    raise ValueError(f"unknown fault kind {key!r}")
            except ValueError:
                raise
            except Exception as exc:  # int()/float() parse failures
                raise ValueError(
                    f"malformed fault clause {clause!r}: {exc}"
                ) from None
        return cls(seed=seed, faults=tuple(faults))


def _split_clause(body: str):
    """``target*magnitude[@start:end]`` -> (target, magnitude, start, end)."""
    spec, _, window = body.partition("@")
    target, sep, magnitude = spec.rpartition("*")
    if not sep:
        raise ValueError(f"expected 'target*magnitude', got {spec!r}")
    start, end = _parse_window(window)
    return target.strip(), float(magnitude), start, end


def _parse_window(window: str):
    if not window:
        return 0.0, _INF
    start_text, sep, end_text = window.partition(":")
    if not sep:
        raise ValueError(f"expected 'start:end' window, got {window!r}")
    start = float(start_text)
    end = _INF if end_text in ("", "inf") else float(end_text)
    if not math.isfinite(start):
        raise ValueError("window start must be finite")
    return start, end
