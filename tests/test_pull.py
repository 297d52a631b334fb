"""Tests for the §6 pull primitive (:func:`repro.comm.pull`)."""

import pytest

from repro.cluster import Cluster, Device
from repro.comm import SOCKET_OVERHEAD_S, PullFailedError, pull
from repro.config import moe_gpt
from repro.core import build_workload, engine_for
from repro.faults import FaultInjector, FaultPlan, ResilienceConfig
from repro.netsim import Fabric
from repro.simkit import Environment, StalledSimulationError

SERVER = Device.host(1)
REQUESTER = Device.host(0)
PAYLOAD = 25e9 * 0.01  # 10 ms of one NIC


def make_fabric(faults=None):
    env = Environment()
    fabric = Fabric(env, Cluster(2))
    if faults is not None:
        FaultInjector(FaultPlan.parse(faults), fabric).install()
    return env, fabric


def start_pull(fabric, outcome, source=SERVER, requester=REQUESTER,
               size=PAYLOAD, **kwargs):
    """Run one request→payload pull in its own process; ``outcome``
    collects the result and the completion time."""
    env = fabric.env
    kwargs.setdefault("request_tag", ("pull-request", "e0"))
    kwargs.setdefault("nic_index", 0)

    def puller():
        landed = yield from pull(
            fabric, source, requester, size, ("fetch-external", "e0"),
            key="e0", **kwargs,
        )
        outcome.append((landed, env.now))

    return env.process(puller(), name="puller")


def nic_time(fabric, src, dst, size, nic=0):
    """One-way flow time: path latency plus size over the bottleneck."""
    path, latency, _ = fabric.route(src, dst, nic)
    return latency + size / min(fabric.network.capacity(link) for link in path)


class TestPull:
    def test_round_trip_is_request_plus_socket_overhead_plus_payload(self):
        env, fabric = make_fabric()
        outcome = []
        start_pull(fabric, outcome)
        env.run()
        request = nic_time(fabric, REQUESTER, SERVER, 0.0)
        payload = nic_time(fabric, SERVER, REQUESTER, PAYLOAD)
        assert outcome == [
            (True, pytest.approx(request + SOCKET_OVERHEAD_S + payload))
        ]
        assert fabric.nic_bytes(1, "out") == PAYLOAD

    def test_without_request_leg_only_the_payload_moves(self):
        env, fabric = make_fabric()
        outcome = []
        start_pull(fabric, outcome, request_tag=None)
        env.run()
        payload = nic_time(fabric, SERVER, REQUESTER, PAYLOAD)
        assert outcome == [(True, pytest.approx(payload))]

    def test_negative_size_rejected(self):
        env, fabric = make_fabric()
        with pytest.raises(ValueError):
            next(pull(fabric, SERVER, REQUESTER, -1, ("fetch-external",)))

    def test_concurrent_pulls_from_one_server_share_bandwidth(self):
        env, fabric = make_fabric()
        source = Device.gpu(1, 0)
        outcome = []
        for gpu in range(2):
            start_pull(
                fabric, outcome, source=source, requester=Device.gpu(0, gpu),
                request_tag=None, nic_index=None,
            )
        env.run()
        solo = PAYLOAD / fabric.cluster.spec.nic.bandwidth
        assert len(outcome) == 2
        assert min(t for _, t in outcome) > 1.8 * solo

    def test_sequential_pulls_keep_a_steady_cadence(self):
        """A chain of one-at-a-time pulls, like an Inter-Node Scheduler
        fetch chain, completes in order at a uniform pace."""
        env, fabric = make_fabric()
        completions = []

        def chain():
            for expert in range(4):
                yield from pull(
                    fabric, SERVER, REQUESTER, 1e7, ("fetch-external", expert),
                    request_tag=("pull-request", expert), nic_index=0,
                )
                completions.append(env.now)

        env.process(chain())
        env.run()
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        assert len(completions) == 4
        assert max(gaps) == pytest.approx(min(gaps))

    def test_lost_request_without_resilience_never_completes(self):
        """No policy, no retry: like a socket with no listener, the
        requester stays blocked and the stall is diagnosed by name."""
        env, fabric = make_fabric("loss=pull-request*1.0")
        start_pull(fabric, [])
        with pytest.raises(StalledSimulationError, match="puller"):
            env.run()


class TestRetry:
    def test_backoff_schedule_then_pull_failed(self):
        """Three attempts wait 1 + 2 + 4 ms, then the pull fails."""
        env, fabric = make_fabric("loss=pull-request*1.0")
        policy = ResilienceConfig(
            pull_timeout=1e-3, max_retries=2, backoff=2.0, on_failure="raise",
        )
        retries = []

        def puller():
            with pytest.raises(PullFailedError) as excinfo:
                yield from pull(
                    fabric, SERVER, REQUESTER, PAYLOAD, ("fetch-external",),
                    request_tag=("pull-request",), resilience=policy,
                    on_retry=lambda: retries.append(env.now), key="e0",
                )
            assert excinfo.value.attempts == 3
            assert excinfo.value.key == "e0"

        env.run(until=env.process(puller()))
        assert env.now == pytest.approx(0.007)
        assert retries == [pytest.approx(0.001), pytest.approx(0.003)]

    def test_degrade_returns_false_for_a_stale_fallback(self):
        env, fabric = make_fabric("loss=pull-request*1.0")
        outcome = []
        start_pull(
            fabric, outcome,
            resilience=ResilienceConfig(pull_timeout=1e-3, max_retries=2),
        )
        env.run()
        assert outcome == [(False, pytest.approx(0.007))]
        assert fabric.nic_bytes(1, "out") == 0.0

    def test_deadline_cuts_the_last_timer_and_stops_attempts(self):
        env, fabric = make_fabric("loss=pull-request*1.0")
        outcome = []
        start_pull(
            fabric, outcome, deadline=0.0025,
            resilience=ResilienceConfig(pull_timeout=1e-3, max_retries=5),
        )
        env.run()
        # Attempts at 0 (1 ms) and 1 ms (2 ms, cut to 1.5 ms by the
        # deadline); none starts at the deadline.
        assert outcome == [(False, pytest.approx(0.0025))]
        assert fabric.fault_injector.stats.dropped_messages == 2

    def test_invalid_retry_policy_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(pull_timeout=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff=0.9)


class TestServerOutage:
    def test_drop_outage_discards_every_attempt(self):
        env, fabric = make_fabric("outage=1@0.0:1.0")
        outcome = []
        start_pull(
            fabric, outcome,
            resilience=ResilienceConfig(pull_timeout=1e-3, max_retries=1),
        )
        env.run()
        assert outcome == [(False, pytest.approx(0.003))]
        assert fabric.fault_injector.stats.dropped_messages == 2

    def test_pause_holds_the_request_until_the_window_ends(self):
        env, fabric = make_fabric("outage=1:pause@0.0:0.01")
        outcome = []
        start_pull(fabric, outcome)
        env.run()
        payload = nic_time(fabric, SERVER, REQUESTER, PAYLOAD)
        assert outcome == [
            (True, pytest.approx(0.01 + SOCKET_OVERHEAD_S + payload))
        ]
        assert fabric.fault_injector.stats.dropped_messages == 0

    def test_pause_shorter_than_the_retry_budget_is_served(self):
        """The per-attempt timer covers the hold: the first attempt
        (2 ms) expires while held, the retry (4 ms) outlasts the 5 ms
        window.  The paused server still serves the abandoned request,
        so two payloads leave machine 1."""
        env, fabric = make_fabric("outage=1:pause@0.0:0.005")
        outcome = []
        retries = []
        start_pull(
            fabric, outcome, size=1e6, on_retry=lambda: retries.append(1),
            resilience=ResilienceConfig(pull_timeout=2e-3, max_retries=4),
        )
        env.run()
        [(landed, finished)] = outcome
        assert landed and finished > 0.005
        assert len(retries) == 1
        assert fabric.nic_bytes(1, "out") == pytest.approx(2e6)

    def test_pause_longer_than_the_retry_budget_falls_back(self):
        env, fabric = make_fabric("outage=1:pause@0.0:0.02")
        outcome = []
        start_pull(
            fabric, outcome,
            resilience=ResilienceConfig(pull_timeout=1e-3, max_retries=2),
        )
        env.run()
        assert outcome == [(False, pytest.approx(0.007))]
        assert fabric.fault_injector.stats.dropped_messages == 0


class TestEnginePause:
    """A 10 ms pause of machine 1 on 2-machine MoE-GPT, data-centric.
    The same window in drop mode is pinned in test_pull_fault_pins.py."""

    # tests/test_faults.py's no-fault golden for this setup.
    GOLDEN = 0.07532739188053336

    @pytest.fixture(scope="class")
    def setup(self):
        config = moe_gpt(16)
        cluster = Cluster(2)
        return config, cluster, build_workload(config, cluster)

    def run(self, setup, spec):
        config, cluster, workload = setup
        engine = engine_for(
            "data-centric", config, cluster, workload=workload,
            fault_plan=FaultPlan.parse(spec),
        )
        return engine.run_iteration()

    def test_pause_is_ridden_out_by_retries(self, setup):
        result = self.run(setup, "outage=1:pause@0.0:0.01")
        stats = result.fault_stats
        assert stats.dropped_messages == 0
        assert stats.stale_fallbacks == 0
        assert stats.retries >= 1
        assert result.seconds >= self.GOLDEN
        # Every fetch machine 0 issues targets machine 1, so none can
        # complete before the pause ends.
        ends = [
            span.end for span in result.trace.spans_of("comm.fetch")
            if "machine=0" in span.detail
        ]
        assert ends and min(ends) > 0.01
