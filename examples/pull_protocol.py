"""The pull protocol under the hood (paper §6).

Shows the primitive Janus builds its data-centric communication from: a
socket request to the expert's home machine, then the expert payload back
over RDMA.  Machine 0's host pulls four experts from machine 1, first
sequentially (fine-grained, as the Inter-Node Scheduler issues them) and
then all at once (to see the NIC being shared).  A last run pauses
machine 1's server for 5 ms: the requester's retries ride the pause out.

Run:  python examples/pull_protocol.py
"""

from repro.cluster import Cluster, Device
from repro.comm import pull
from repro.faults import FaultInjector, FaultPlan, ResilienceConfig
from repro.netsim import Fabric
from repro.simkit import Environment

EXPERT_BYTES = 18.9e6  # one H=768 fp32 expert
REQUESTER, SERVER = Device.host(0), Device.host(1)


def fetch(fabric, expert, **kwargs):
    """One expert pull (a generator the caller drives with yield from)."""
    return pull(
        fabric, SERVER, REQUESTER, EXPERT_BYTES,
        ("fetch-external", expert),
        request_tag=("pull-request", expert), nic_index=0, **kwargs,
    )


def main():
    cluster = Cluster(num_machines=2)
    env = Environment()
    fabric = Fabric(env, cluster)

    print("sequential fine-grained pulls (one outstanding, like one "
          "Inter-Node Scheduler fetch chain):")

    def sequential():
        last = env.now
        for expert in range(4):
            yield from fetch(fabric, expert)
            print(f"  expert {expert}: arrived at {env.now * 1e3:6.2f} ms "
                  f"(+{(env.now - last) * 1e3:.2f} ms)")
            last = env.now

    env.run(until=env.process(sequential()))
    sequential_time = env.now

    print("\nconcurrent pulls (all four at once):")
    start = env.now
    for expert in range(4):
        env.process(fetch(fabric, f"c{expert}"))
    env.run()
    concurrent_time = env.now - start
    print(f"  all four arrived after {concurrent_time * 1e3:.2f} ms "
          f"(sequential took {sequential_time * 1e3:.2f} ms)")
    print(f"\ncross-machine bytes moved: "
          f"{fabric.total_cross_machine_bytes() / 1e6:.1f} MB")
    print("requester-side NIC is the bottleneck either way — which is why "
          "Janus overlaps pulls with expert compute instead of racing them.")

    print("\nmachine 1's server paused for 5 ms, 2 ms timer, backoff 2x:")
    env = Environment()
    fabric = Fabric(env, cluster)
    FaultInjector(FaultPlan.parse("outage=1:pause@0.0:0.005"), fabric).install()
    retries = []

    def resilient():
        landed = yield from fetch(
            fabric, "r0",
            resilience=ResilienceConfig(pull_timeout=2e-3, max_retries=3),
            on_retry=lambda: retries.append(env.now),
        )
        print(f"  {'served' if landed else 'stale fallback'} at "
              f"{env.now * 1e3:.2f} ms after {len(retries)} retry(ies); "
              f"the abandoned request was still served at resume")

    env.run(until=env.process(resilient()))


if __name__ == "__main__":
    main()
