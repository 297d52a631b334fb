"""The pull primitive: socket request, then RDMA payload (§6).

:func:`pull` implements the sequence the paper describes: "the requester
sends a request to the target worker through the socket, and calls the
recv API to receive data.  The target worker listens to the port of the
socket all the time.  After receiving the request, the target worker calls
the send API to send data to the requester through the RDMA connection."
The request is a zero-byte ``pull-request`` flow (latency only) followed
by :data:`SOCKET_OVERHEAD_S` of socket processing; the payload is one
data-plane flow.  Callers that model a one-sided read (the
non-hierarchical direct pull) pass no request leg.

:func:`pull` and :func:`retry` are generators the calling process drives
with ``yield from``: a pull starts no process of its own and creates no
event beyond its flows and timers.

Resilience: with a :class:`~repro.faults.ResilienceConfig`, every attempt
runs under a timer (``pull_timeout``, scaled by ``backoff`` per retry, at
most ``max_retries`` re-sends) and the whole pull under an optional
deadline.  With a request leg, the timer covers the request and any time
the request is held at a paused server (``ServerOutage(mode="pause")``);
the payload is then bounded by the deadline alone.  Without one, the
timer covers the payload.  A pull that runs out of attempts or deadline
returns ``False`` (the caller serves its stale copy) or, under
``on_failure="raise"``, raises :class:`PullFailedError`.  Callers keep
their own accounting: ``on_retry`` is called at each re-send.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from ..cluster import Device
from ..netsim import Fabric
from ..simkit import AnyOf

__all__ = ["PullFailedError", "SOCKET_OVERHEAD_S", "pull", "retry"]

# Kernel/userspace socket processing cost per control message.
SOCKET_OVERHEAD_S = 15e-6

_INF = float("inf")


class PullFailedError(Exception):
    """A pull exhausted its retry budget without receiving the payload."""

    def __init__(self, requester, target, key, attempts: int):
        self.requester = requester
        self.target = target
        self.key = key
        self.attempts = attempts
        super().__init__(
            f"pull {key!r} from {target} to {requester} failed "
            f"after {attempts} attempt(s)"
        )


def retry(
    env,
    send: Callable,
    timeout: float,
    policy,
    deadline: float = _INF,
    on_retry: Optional[Callable[[], None]] = None,
    hold: Optional[Callable[[float, float], float]] = None,
):
    """Generator: re-run ``send()`` until one attempt lands; return whether
    one did.

    ``send`` starts one attempt and returns its flow.  Each attempt waits
    for the flow or its timer: ``timeout`` for the first, times
    ``policy.backoff`` per retry, and never past ``deadline``.  No attempt
    starts once ``deadline`` has passed.  ``hold(now, expires)`` gives the
    time a flow landing at ``now`` is served; an attempt whose timer
    ``expires`` first has failed.
    """
    delay = timeout
    for attempt in range(policy.max_retries + 1):
        budget = deadline - env.now
        if budget <= 0:
            break
        flow = send()
        window = min(delay, budget)
        expires = env.now + window
        timer = env.timeout(window)
        yield AnyOf(env, [flow.done, timer])
        if flow.done.triggered:
            release = env.now if hold is None else hold(env.now, expires)
            if release <= expires:
                if release > env.now:
                    yield env.timeout(release - env.now)
                return True
            yield timer
        if attempt < policy.max_retries:
            if on_retry is not None:
                on_retry()
            delay *= policy.backoff
    return False


def pull(
    fabric: Fabric,
    source: Device,
    requester: Device,
    payload_bytes: float,
    tag,
    *,
    request_tag=None,
    nic_index: Optional[int] = None,
    resilience=None,
    deadline: float = _INF,
    on_retry: Optional[Callable[[], None]] = None,
    key: Hashable = None,
):
    """Generator: pull ``payload_bytes`` from ``source`` to ``requester``.

    ``tag`` labels the payload flow; ``request_tag``, when given, adds the
    socket request leg before it.  Both legs use ``nic_index``.  Returns
    ``True`` once the payload has landed and ``False`` when ``resilience``
    gave up on it; raises :class:`PullFailedError` (naming ``key``) instead
    under ``on_failure="raise"``.  Without ``resilience`` a lost request
    or payload is never retried, like a socket with no listener.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    env = fabric.env
    injector = fabric.fault_injector

    def payload():
        return fabric.transfer(
            source, requester, payload_bytes, nic_index=nic_index, tag=tag
        )

    def request():
        return fabric.transfer(
            requester, source, 0.0, nic_index=nic_index, tag=request_tag
        )

    if resilience is None:
        if request_tag is not None:
            yield request().done
            if injector is not None:
                release = injector.hold_until(source.machine, env.now)
                if release == _INF:
                    yield env.event()  # paused for good: never served
                elif release > env.now:
                    yield env.timeout(release - env.now)
            yield env.timeout(SOCKET_OVERHEAD_S)
        yield payload().done
        return True
    if request_tag is None:
        landed = yield from retry(
            env, payload, resilience.pull_timeout, resilience, deadline,
            on_retry,
        )
    else:
        hold = None
        if injector is not None:

            def hold(now, expires):
                release = injector.hold_until(source.machine, now)
                if expires < release < _INF:
                    # The paused server still serves the abandoned request
                    # when its window ends; the requester has moved on, so
                    # those bytes are wasted traffic.
                    env.call_later(
                        release - now + SOCKET_OVERHEAD_S,
                        lambda _: payload(),
                    )
                return release

        landed = yield from retry(
            env, request, resilience.pull_timeout, resilience, deadline,
            on_retry, hold,
        )
        if landed:
            yield env.timeout(SOCKET_OVERHEAD_S)
            flow = payload()
            remaining = deadline - env.now
            if remaining == _INF:
                yield flow.done
            else:
                yield AnyOf(env, [flow.done, env.timeout(max(remaining, 0.0))])
            # A degraded link may keep the payload in flight past the
            # deadline; the bytes still move (wasted traffic) but the
            # requester stops waiting for them.
            landed = flow.done.triggered
    if not landed and resilience.on_failure == "raise":
        raise PullFailedError(
            requester, source, key, resilience.max_retries + 1
        )
    return landed
