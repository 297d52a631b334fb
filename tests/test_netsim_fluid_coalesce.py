"""Coalescing equivalence battery.

Flow coalescing collapses concurrent flows sharing an interned path
group into one macro-flow row of the water-filling solve, with a
per-member byte ledger (tombstoned retirement).  The acceptance bar is
*exact* equivalence, not approximate: under any interleaving of
arrivals, departures and mid-flight capacity rescales, the coalesced
network must hand every flow the same IEEE-754 rate, finish it at the
same simulated time, and account the same per-link bytes as the
uncoalesced solver.  The same bar applies to the compiled water-filling
kernel against the pure-python filling loop.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import FluidNetwork
from repro.netsim import _waterfill, fluid
from repro.simkit import Environment


@st.composite
def schedules(draw):
    """Random link tables plus arrival/group/rescale schedules.

    Paths are drawn from a small pool so several flows routinely share a
    path group — the case coalescing actually batches.  A group op starts
    a :meth:`FluidNetwork.transfer_group` whose members (some zero-byte,
    some sharing a start instant) are ledger rows without flow objects.
    """
    num_links = draw(st.integers(min_value=2, max_value=5))
    links = [
        (f"l{i}", draw(st.floats(min_value=1.0, max_value=500.0)))
        for i in range(num_links)
    ]
    paths = st.lists(
        st.integers(min_value=0, max_value=num_links - 1),
        min_size=1,
        max_size=2,
        unique=True,
    )
    members = st.lists(
        st.tuples(
            paths,
            st.one_of(
                st.just(0.0), st.floats(min_value=1.0, max_value=1000.0)
            ),
            st.sampled_from([0.0, 0.25, 1.0]),
        ),
        min_size=1,
        max_size=6,
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("arrive"),
                    paths,
                    st.floats(min_value=1.0, max_value=1000.0),
                ),
                st.tuples(st.just("group"), members),
                st.tuples(
                    st.just("rescale"),
                    st.integers(min_value=0, max_value=num_links - 1),
                    st.floats(min_value=1.0, max_value=500.0),
                ),
            ),
            min_size=1,
            max_size=14,
        )
    )
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0),
            min_size=len(ops),
            max_size=len(ops),
        )
    )
    return links, ops, gaps


def _settle(env):
    env.run(until=env.now)


class _InstantLog(FluidNetwork):
    """A network that logs its whole ledger at every rate assignment:
    the instant, the armed ETA, and every row's remaining bytes, rate and
    live bit plus every link's bytes, as raw IEEE-754 words (so ``-0.0``
    and ``0.0`` differ)."""

    def __init__(self, env, coalesce):
        super().__init__(env, coalesce=coalesce)
        self.instants = []
        self.compactions = 0

    def _assign_rates(self):
        eta = super()._assign_rates()
        n = self._n
        self.instants.append((
            self.env.now,
            np.float64(eta).tobytes(),
            self._remaining[:n].tobytes(),
            self._rates[:n].tobytes(),
            self._live[:n].tobytes(),
            self._link_bytes[: self._num_links].tobytes(),
        ))
        return eta

    def _compact(self):
        self.compactions += 1
        super()._compact()


def _run_schedule(schedule, coalesce, record=False):
    """Replay one schedule; return (rate log, flow finish times, group
    finish times, link bytes, total bytes completed), plus the network's
    instant log and compaction count when ``record`` is set.

    The rate log snapshots every active flow's rate and every live ledger
    row's rate (group members included, in row order) after each
    operation settles, so a divergence is caught at the instant it
    appears rather than washed out by completions.
    """
    links, ops, gaps = schedule
    env = Environment()
    net = (_InstantLog if record else FluidNetwork)(env, coalesce=coalesce)
    for link_id, bandwidth in links:
        net.add_link(link_id, bandwidth)
    flows = []
    groups = []
    rate_log = []
    for (op, *payload), gap in zip(ops, gaps):
        if gap > 0:
            until = env.now + gap
            if net._n:
                until = min(until, env.peek())
            env.run(until=until)
        if op == "arrive":
            indices, size = payload
            flows.append(
                net.transfer(tuple(f"l{i}" for i in indices), size)
            )
        elif op == "group":
            (members,) = payload
            groups.append(_start_group(env, net, members))
        else:
            index, bandwidth = payload
            net.set_capacity(f"l{index}", bandwidth)
        _settle(env)
        rate_log.append((
            [flow.rate for flow in flows],
            net._rates[: net._n][net._live[: net._n]].tolist(),
        ))
    while net.live_rows or not all(done for done in groups):
        env.run(until=env.peek())
        _settle(env)
    finish_times = [flow.completed_at for flow in flows]
    link_bytes = {link_id: net.link_bytes[link_id] for link_id, _ in links}
    outcome = (
        rate_log, finish_times, groups, link_bytes, net.total_bytes_completed
    )
    if record:
        return outcome + (net.instants, net.compactions)
    return outcome


def _start_group(env, net, members):
    """Start ``members`` as one group; the returned list receives the
    group's completion time."""
    finished = []
    group = net.transfer_group(
        [
            net.resolve_path(tuple(f"l{i}" for i in indices))[1]
            for indices, _, _ in members
        ],
        [size for _, size, _ in members],
        [latency for _, _, latency in members],
    )
    group.callbacks.append(lambda _: finished.append(env.now))
    return finished


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_coalesced_equals_uncoalesced_exactly(schedule):
    coalesced = _run_schedule(schedule, coalesce=True)
    plain = _run_schedule(schedule, coalesce=False)
    # Exact float equality on every rate at every instant, every finish
    # time, and every link's byte counter — not approx.
    assert coalesced == plain


@contextmanager
def _python_solver():
    """Force the pure-python filling loops for the duration."""
    original = _waterfill.kernel
    _waterfill.kernel = lambda: None
    try:
        yield
    finally:
        _waterfill.kernel = original


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_compiled_kernel_equals_python_solver_exactly(schedule):
    if _waterfill.kernel() is None:
        return  # no C compiler on this host; the python path is the only one
    # Every row's remaining and rate, every link's bytes and the armed
    # ETA, bit for bit at every instant — not only the end state.
    compiled = _run_schedule(schedule, coalesce=True, record=True)
    with _python_solver():
        plain = _run_schedule(schedule, coalesce=True, record=True)
    assert compiled == plain


def _churn_schedule():
    """A fixed schedule past the compaction threshold: 160 flows of
    staggered sizes over shared paths finish one cohort at a time, so
    tombstones pile up until the ledger compacts, with capacity rescales
    in flight."""
    links = [(f"l{i}", 40.0 + 15.0 * i) for i in range(5)]
    ops = []
    for index in range(160):
        path = [index % 5] if index % 3 else [index % 5, (index + 2) % 5]
        ops.append(("arrive", path, 10.0 + (index * 37) % 113))
        if index % 40 == 39:
            ops.append(("rescale", index % 5, 25.0 + index % 7))
    gaps = [0.0 if index % 4 else 0.05 for index in range(len(ops))]
    return links, ops, gaps


@pytest.mark.skipif(_waterfill.kernel() is None, reason="no C compiler")
def test_compiled_kernel_equals_python_solver_through_compaction():
    compiled = _run_schedule(_churn_schedule(), coalesce=True, record=True)
    with _python_solver():
        plain = _run_schedule(_churn_schedule(), coalesce=True, record=True)
    assert compiled == plain
    # The schedule really left tombstones in the ledger and compacted it.
    *_, instants, compactions = compiled
    assert any(0 in np.frombuffer(live, dtype=np.uint8)
               for *_, live, _ in instants)
    assert compactions > 0


@pytest.mark.skipif(_waterfill.kernel() is None, reason="no C compiler")
def test_compiled_kernel_equals_python_solver_under_cache_eviction(
    monkeypatch,
):
    # A budget of a few rate arrays evicts the solve memo (and rewinds the
    # compiled solver's arena) every few solves, and slabs of about one
    # rate array make the arena skip to fresh slabs as the group table
    # grows.
    monkeypatch.setattr(fluid, "_SOLVE_CACHE_BUDGET", 64)
    monkeypatch.setattr(_waterfill, "_SLAB_DOUBLES", 8)
    compiled = _run_schedule(_churn_schedule(), coalesce=True, record=True)
    with _python_solver():
        plain = _run_schedule(_churn_schedule(), coalesce=True, record=True)
    assert compiled == plain


class TestSetCapacityRescale:
    """Coalescing must respect mid-flight ``set_capacity`` rescales."""

    def _shared_group_network(self, coalesce):
        env = Environment()
        net = FluidNetwork(env, coalesce=coalesce)
        net.add_link("wire", 100.0)
        # Three flows in ONE path group: the group's macro-row carries
        # multiplicity 3 through the rescale.
        flows = [net.transfer(("wire",), 300.0) for _ in range(3)]
        _settle(env)
        return env, net, flows

    def test_rescale_rerates_a_coalesced_group(self):
        env, net, flows = self._shared_group_network(coalesce=True)
        assert [flow.rate for flow in flows] == [100.0 / 3] * 3
        env.run(until=1.0)
        net.set_capacity("wire", 30.0)
        _settle(env)
        assert [flow.rate for flow in flows] == [10.0] * 3
        while net.live_rows:
            env.run(until=env.peek())
            _settle(env)
        # 300 bytes each: 100/3 moved in the first second, the rest at
        # 10 B/s after the rescale.
        for flow in flows:
            assert flow.completed_at == 1.0 + (300.0 - 100.0 / 3) / 10.0

    def test_rescale_matches_uncoalesced_exactly(self):
        outcomes = []
        for coalesce in (True, False):
            env, net, flows = self._shared_group_network(coalesce)
            env.run(until=1.0)
            net.set_capacity("wire", 30.0)
            _settle(env)
            rates_after = [flow.rate for flow in flows]
            while net.live_rows:
                env.run(until=env.peek())
                _settle(env)
            outcomes.append(
                (
                    rates_after,
                    [flow.completed_at for flow in flows],
                    net.link_bytes["wire"],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_rescale_epoch_invalidates_solve_memo(self):
        # Same group signature before and after the rescale: only the
        # capacity epoch distinguishes the cache keys.
        env, net, flows = self._shared_group_network(coalesce=True)
        before = flows[0].rate
        net.set_capacity("wire", 60.0)
        _settle(env)
        after = flows[0].rate
        assert before == 100.0 / 3
        assert after == 20.0
