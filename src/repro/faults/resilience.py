"""Resilience knobs for the schedulers and the degradation policy.

:class:`ResilienceConfig` gives every cross-machine control interaction a
timeout, a bounded retry budget with exponential backoff, and a per-block
deadline; :class:`DegradationPolicy` decides, between iterations, which
blocks should abandon the pull-based data-centric paradigm and fall back
to expert-centric (the unified selector's escape hatch when the fault
pattern makes fine-grained pulls lose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .injector import FaultStats

__all__ = ["DegradationPolicy", "ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Timeout/retry/backoff budgets for faulted runs.

    ``pull_timeout`` is the first attempt's wait for a pull request to be
    served (its control leg plus any hold at a paused server; the whole
    payload for a direct pull); each retry multiplies it by ``backoff`` up
    to ``max_retries`` re-sends.  ``push_timeout`` guards gradient pushes (data
    flows, so it must dominate a healthy transfer time).  ``block_deadline``
    bounds the total time a machine spends fetching any one block's external
    experts before remaining fetches fall back to the stale cached copy;
    ``None`` disables the deadline.  ``on_failure`` picks between graceful
    degradation (``"degrade"``: stale-copy fallback, counted in
    :class:`~repro.faults.injector.FaultStats`) and ``"raise"`` (surface
    :class:`~repro.comm.PullFailedError` to the caller).
    """

    pull_timeout: float = 1e-3
    max_retries: int = 3
    backoff: float = 2.0
    push_timeout: float = 20e-3
    block_deadline: Optional[float] = 100e-3
    on_failure: str = "degrade"

    def __post_init__(self):
        if self.pull_timeout <= 0:
            raise ValueError("pull_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.push_timeout <= 0:
            raise ValueError("push_timeout must be positive")
        if self.block_deadline is not None and self.block_deadline <= 0:
            raise ValueError("block_deadline must be positive")
        if self.on_failure not in ("degrade", "raise"):
            raise ValueError("on_failure must be 'degrade' or 'raise'")


@dataclass(frozen=True)
class DegradationPolicy:
    """Flip a block's paradigm after it keeps missing its pull deadlines.

    A block that accumulated at least ``degrade_after_fallbacks`` stale
    fallbacks in one iteration is switched to ``fallback_strategy``
    (expert-centric All-to-All needs no cross-machine pull round-trips, so
    it is immune to pull-request loss) for subsequent iterations.

    ``recover_after_clean`` un-ratchets the policy: after that many
    consecutive iterations with no fault symptoms, a degraded block returns
    to its preferred (Eq. 1) strategy on probation — re-degrading during
    the probation window doubles the required clean streak (exponential
    backoff, handled by the adaptive controller the engine wraps this
    policy in).  The default ``None`` preserves the historical one-way
    behaviour exactly.
    """

    fallback_strategy: str = "expert-centric"
    degrade_after_fallbacks: int = 1
    recover_after_clean: Optional[int] = None

    def __post_init__(self):
        if self.degrade_after_fallbacks <= 0:
            raise ValueError("degrade_after_fallbacks must be positive")
        if self.recover_after_clean is not None and self.recover_after_clean <= 0:
            raise ValueError("recover_after_clean must be positive")

    def decide(self, stats: FaultStats) -> Dict[int, str]:
        """Blocks to switch, given one iteration's fault counters."""
        return {
            block: self.fallback_strategy
            for block, count in sorted(stats.fallbacks_by_block.items())
            if count >= self.degrade_after_fallbacks
        }
