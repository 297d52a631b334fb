"""Property test: degenerate schedules are bit-identical to expert-centric.

``microbatch-ec`` with one micro-batch and ``pipelined-ec`` with one chunk
are expert-centric blocks spelled differently.  For a randomized sweep of
model/cluster shapes, the same seeded iteration must produce *exactly*
equal simulated seconds and NIC egress bytes.  Micro-batching at M=1 builds
the very same graph, so the simulation-kernel counters (events processed,
processes started) agree too; pipelining at K=1 keeps a separate combiner
lane, so its counters legitimately differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JanusFeatures,
    build_workload,
    expert_centric_engine,
    pipelined_expert_centric_engine,
    strategy_engine,
)
from repro.metrics import MetricsRegistry

from tests.conftest import small_cluster, small_config

# Each degenerate variant, the features that make it degenerate, and how
# many of the (seconds, bytes, events, processes) fields must agree.
VARIANTS = {
    "microbatch-ec": (JanusFeatures(micro_batches=1), 4),
    "pipelined-ec": (JanusFeatures(ec_pipeline_chunks=1), 2),
}


def _run(paradigm, features, machines, experts_per_worker, batch,
         imbalance, seed, forward_only=False):
    experts = machines * 2 * experts_per_worker  # world size = machines * 2
    config = small_config(
        batch_size=batch, experts_per_block={1: experts, 3: experts}
    )
    registry = MetricsRegistry()
    engine = strategy_engine(
        paradigm, config, small_cluster(machines, 2),
        rng=np.random.default_rng(seed), imbalance=imbalance,
        features=features, metrics=registry,
    )
    result = engine.run_iteration(forward_only=forward_only)
    return (
        result.seconds,
        tuple(float(b) for b in result.nic_egress_bytes),
        registry.gauge("sim.events_processed", iteration=0),
        registry.gauge("sim.processes_started", iteration=0),
    )


class TestTaskGraphBitEquivalence:
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        machines=st.integers(2, 3),
        experts_per_worker=st.integers(1, 2),
        batch=st.sampled_from([8, 16]),
        imbalance=st.sampled_from([0.0, 0.3, 0.6]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=16, deadline=None)
    def test_degenerate_schedules_agree_exactly(
        self, variant, machines, experts_per_worker, batch, imbalance, seed
    ):
        features, fields = VARIANTS[variant]
        args = (features, machines, experts_per_worker, batch, imbalance,
                seed)
        ec = _run("expert-centric", *args)
        degenerate = _run(variant, *args)
        assert degenerate[:fields] == ec[:fields]  # exact

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_forward_only_agrees_exactly(self, variant):
        features, fields = VARIANTS[variant]
        args = (features, 2, 1, 16, 0.3, 0)
        ec = _run("expert-centric", *args, forward_only=True)
        degenerate = _run(variant, *args, forward_only=True)
        assert degenerate[:fields] == ec[:fields]

    def test_single_chunk_degenerates_to_plain_ec(self):
        config = small_config()
        cluster = small_cluster()
        workload = build_workload(config, cluster)
        features = JanusFeatures(ec_pipeline_chunks=1)
        ec = expert_centric_engine(
            config, cluster, workload=workload, features=features
        ).run_iteration()
        pipelined = pipelined_expert_centric_engine(
            config, cluster, workload=workload, features=features
        ).run_iteration()
        assert pipelined.seconds == ec.seconds
        np.testing.assert_array_equal(
            pipelined.nic_egress_bytes, ec.nic_egress_bytes
        )
