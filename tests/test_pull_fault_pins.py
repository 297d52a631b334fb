"""Characterization pins for the engine's faulted pull paths.

Exact simulated seconds and fault counters for the three resilient loops
the schedulers run under a fault plan: the Inter-Node Scheduler's
request→payload fetch, its gradient push, and the non-hierarchical direct
pull (``JanusFeatures(hierarchical=False)``, where every worker pulls its
remote experts itself and there is no request leg).  Any change to the
timer, retry, backoff, deadline or fallback logic moves at least one pin.
"""

import pytest

from repro.cluster import Cluster
from repro.comm import PullFailedError
from repro.config import moe_gpt
from repro.core import JanusFeatures, build_workload, engine_for
from repro.faults import FaultPlan, ResilienceConfig

DIRECT = JanusFeatures(hierarchical=False)

# spec -> (seconds, dropped_messages, retries, stale_fallbacks, grad_failures)
HIERARCHICAL_PINS = {
    "seed=7;loss=pull-request*0.5": (0.07532739188053336, 13, 12, 1, 0),
    "seed=4;loss=grad-push*0.5": (0.09798357271608892, 7, 7, 0, 0),
    "seed=3;loss=pull-request+grad-push*0.3": (0.07532739188053336, 14, 14, 0, 0),
    "outage=1@0.0:0.01": (0.07532739188053336, 16, 12, 4, 0),
}
DIRECT_PINS = {
    "seed=11;loss=pull-direct*0.5": (0.14238419947250894, 202, 243, 39, 0),
    "seed=5;loss=pull-direct*0.3": (0.17254264121457769, 149, 340, 89, 0),
    "seed=2;loss=pull-direct*0.5@0.0:0.02": (0.17050870585457767, 62, 339, 81, 0),
}


@pytest.fixture(scope="module")
def setup():
    config = moe_gpt(16)
    cluster = Cluster(2)
    return config, cluster, build_workload(config, cluster)


def run(setup, spec, **kwargs):
    config, cluster, workload = setup
    engine = engine_for(
        "data-centric", config, cluster, workload=workload,
        fault_plan=FaultPlan.parse(spec), **kwargs,
    )
    return engine.run_iteration()


def observed(result):
    stats = result.fault_stats
    return (
        float(result.seconds), stats.dropped_messages, stats.retries,
        stats.stale_fallbacks, stats.grad_failures,
    )


@pytest.mark.parametrize("spec", sorted(HIERARCHICAL_PINS))
def test_hierarchical_fault_pins(setup, spec):
    assert observed(run(setup, spec)) == HIERARCHICAL_PINS[spec]


@pytest.mark.parametrize("spec", sorted(DIRECT_PINS))
def test_direct_pull_fault_pins(setup, spec):
    result = run(setup, spec, features=DIRECT)
    assert observed(result) == DIRECT_PINS[spec]
    # Each direct retry lands one span on the fault lane.
    assert len(result.trace.spans_of("fault.retry")) == result.fault_stats.retries


def test_direct_pull_raise_surfaces_pull_failure(setup):
    with pytest.raises(PullFailedError) as excinfo:
        run(
            setup, "seed=5;loss=pull-direct*1.0", features=DIRECT,
            resilience=ResilienceConfig(on_failure="raise"),
        )
    assert excinfo.value.attempts == ResilienceConfig().max_retries + 1
    assert excinfo.value.key[0] == "direct"
