"""Unit tests for the compiled fluid-ledger kernels (``netsim/_waterfill``).

Each native pass is checked bit for bit against the numpy code it
replaces on the compiled backend: ``advance`` against
``fluid._move_bytes`` (the numpy body of ``FluidNetwork._advance``),
``assign`` against the scatter plus ``min`` of ``_assign_rates``.  The
last class reallocates every bound array while flows are in flight and
demands the same ledger as the numpy backend, which a stale address
cannot give.
"""

import numpy as np
import pytest

from repro.netsim import FluidNetwork, _waterfill
from repro.netsim.fluid import _move_bytes
from repro.simkit import Environment

LIB = _waterfill.kernel()

pytestmark = pytest.mark.skipif(LIB is None, reason="no C compiler")


def _rows(rates, remaining, paths, link_bytes):
    return (
        np.array(rates, dtype=float),
        np.array(remaining, dtype=float),
        np.array(paths, dtype=np.int64).reshape(-1, 2),
        np.array(link_bytes, dtype=float),
    )


def _both_advances(dt, *rows):
    """(native result, numpy result), each as raw bytes of (remaining,
    link bytes), from the same starting rows."""
    outcomes = []
    for native in (True, False):
        rates, remaining, paths, link_bytes = (a.copy() for a in _rows(*rows))
        if native:
            ledger = _waterfill.Ledger(LIB)
            ledger.bind(rates=rates, remaining=remaining, paths=paths,
                        link_bytes=link_bytes)
            ledger.advance(rates.shape[0], dt)
        else:
            _move_bytes(rates, remaining, paths, link_bytes, dt)
        outcomes.append((remaining.tobytes(), link_bytes.tobytes()))
    return outcomes


class TestAdvance:
    def test_zero_dt_moves_nothing(self):
        rows = ([3.0, 5.0], [10.0, 20.0], [0, -1, 0, 1], [1.0, 2.0])
        native, reference = _both_advances(0.0, *rows)
        assert native == reference
        assert native == (np.array([10.0, 20.0]).tobytes(),
                          np.array([1.0, 2.0]).tobytes())

    def test_all_rates_zero_moves_nothing(self):
        # Nothing moved, so nothing is clamped either: -0.0 keeps its sign.
        rows = ([0.0, 0.0, 0.0], [10.0, -0.0, 20.0], [0, -1, 1, -1, 0, 1],
                [1.0, 2.0])
        native, reference = _both_advances(0.5, *rows)
        assert native == reference
        assert native[0] == np.array([10.0, -0.0, 20.0]).tobytes()

    def test_one_link_and_two_link_paths(self):
        rows = (
            [0.3, 0.7, 1.1],
            [1.0, 0.1, 5.0],  # row 1 overshoots and clamps to 0
            [2, -1, 0, 1, 1, 2],
            [0.0, 0.25, 0.5],
        )
        native, reference = _both_advances(1.0 / 3.0, *rows)
        assert native == reference

    def test_link_bytes_follow_row_order(self):
        # 1e16 + 1 rounds back to 1e16 (ulp 2, ties to even), so adding
        # the rows in row order loses both ones; summing them first would
        # not.  The native pass must match np.add.at's row order.
        rows = ([1e16, 1.0, 1.0], [2e16, 2.0, 2.0], [0, -1] * 3, [0.0])
        native, reference = _both_advances(1.0, *rows)
        assert native == reference
        assert np.frombuffer(native[1])[0] == 1e16
        assert (1.0 + 1.0) + 1e16 != 1e16  # the other order differs

    def test_clamp_keeps_numpy_signed_zero_and_nan(self):
        # Row 0 moves nothing, yet is clamped because row 1 moves:
        # np.maximum(-0.0, 0.0) is +0.0 and a NaN stays NaN.
        rows = ([0.0, 1.0, 0.0], [-0.0, 5.0, np.nan], [0, -1] * 3, [0.0])
        native, reference = _both_advances(1.0, *rows)
        assert native == reference
        remaining = np.frombuffer(native[0])
        assert not np.signbit(remaining[0]) and np.isnan(remaining[2])


def _both_assigns(grates, gids, remaining, live, only_live):
    """(native, numpy) (ETA, rates bytes) for one scatter + scan."""
    grates = np.array(grates, dtype=float)
    outcomes = []
    for native in (True, False):
        rates = np.zeros(len(gids))
        gid_array = np.array(gids, dtype=np.int64)
        remaining_array = np.array(remaining, dtype=float)
        live_array = np.array(live, dtype=bool)
        if native:
            ledger = _waterfill.Ledger(LIB)
            ledger.bind(rates=rates, gids=gid_array,
                        remaining=remaining_array, live=live_array)
            eta = ledger.assign(len(gids), grates.ctypes.data, only_live)
        else:
            if only_live:
                rates[live_array] = grates[gid_array[live_array]]
            else:
                rates[:] = grates[gid_array]
            moving = rates > 0
            eta = (
                float((remaining_array[moving] / rates[moving]).min())
                if moving.any() else _waterfill.NOTHING_MOVING
            )
        outcomes.append((np.float64(eta).tobytes(), rates.tobytes()))
    return outcomes


class TestAssign:
    def test_scatter_and_earliest_completion(self):
        native, reference = _both_assigns(
            [2.0, 0.5, 0.0], [0, 1, 2, 1], [4.0, 1.0, 9.0, 0.75],
            [True] * 4, 0,
        )
        assert native == reference
        assert np.frombuffer(native[0])[0] == 1.5

    def test_tombstoned_rows_keep_a_zero_rate(self):
        # Row 1's group lies beyond the rate array's trim: a dead row must
        # not index it.
        native, reference = _both_assigns(
            [2.0], [0, 7, 0], [4.0, 0.0, 1.0], [True, False, True], 1,
        )
        assert native == reference

    def test_nothing_moving_is_the_sentinel(self):
        native, reference = _both_assigns(
            [0.0], [0, 0], [4.0, 1.0], [True, True], 0,
        )
        assert native == reference
        assert np.frombuffer(native[0])[0] == _waterfill.NOTHING_MOVING

    def test_a_nan_quotient_wins(self):
        native, reference = _both_assigns(
            [1.0, 2.0], [0, 1, 0], [1.0, np.nan, 3.0], [True] * 3, 0,
        )
        assert native == reference
        assert np.isnan(np.frombuffer(native[0])[0])


class TestLedgerBinding:
    def test_bind_rejects_a_wrong_dtype_or_layout(self):
        ledger = _waterfill.Ledger(LIB)
        with pytest.raises(TypeError):
            ledger.bind(rates=np.zeros(4, dtype=np.float32))
        with pytest.raises(TypeError):
            ledger.bind(paths=np.zeros((4, 2), dtype=np.int64).T)

    def test_arena_rewind_reuses_its_slabs(self):
        ledger = _waterfill.Ledger(LIB)
        first, address = ledger.carve(100)
        second, next_address = ledger.carve(100)
        assert next_address == address + 8 * 100
        assert second.ctypes.data == next_address
        ledger.rewind()
        again, again_address = ledger.carve(100)
        assert again_address == address
        large, _ = ledger.carve(1 << 17)  # beyond a slab: a slab of its own
        assert large.shape == (1 << 17,)


def _tables(net):
    """Every array a ledger binds, by slot name."""
    return {
        "capacity": net._capacity,
        "load_counts": net._load_counts,
        "link_bytes": net._link_bytes,
        "gpaths": net._group_paths,
        "gcount": net._group_count,
        "csr_groups": net._csr_groups,
        "csr_starts": net._csr_starts,
        "paths": net._paths,
        "remaining": net._remaining,
        "rates": net._rates,
        "sizes": net._sizes,
        "gids": net._gids,
        "live": net._live,
        "picked": net._picked,
    }


def _in_flight_growth(python):
    """Start flows on a small network, let the backend bind, then grow
    the link table, the group table and the row arrays past their
    allocations while those flows still move; run to the end and return
    every flow's finish time, every link's bytes and the instant log."""
    original = _waterfill.kernel
    if python:
        _waterfill.kernel = lambda: None
    try:
        env = Environment()
        net = FluidNetwork(env)
        for index in range(4):
            net.add_link(f"l{index}", 100.0 + index)
        flows = [
            net.transfer(("l0",), 400.0), net.transfer(("l1", "l2"), 300.0)
        ]
        env.run(until=0.5)
        assert net._ledger is None if python else net._ledger is not None
        start = _tables(net)
        for index in range(4, 40):  # 16 -> 64 link slots
            net.add_link(f"l{index}", 50.0 + index)
        env.run(until=0.75)
        for index in range(40):  # 16 -> 64 group slots, 32 -> 64 rows
            partner = "l1" if index == 0 else "l0"
            path = (f"l{index}",) if index % 2 else (f"l{index}", partner)
            flows.append(net.transfer(path, 20.0 + index))
        # The next solve rebuilds the adjacency; build it now so its
        # binding is checked before any kernel reads it.
        net._ensure_csr(net._num_groups)
        grown = _tables(net)
        for name, array in grown.items():
            if name != "picked" or not python:
                assert array is not start[name], name  # reallocated
            if not python:
                bound = getattr(net._ledger._slots, name)
                assert bound == array.ctypes.data, f"stale {name}"
        instants = []
        while net.live_rows:
            env.run(until=env.peek())
            env.run(until=env.now)
            instants.append((
                env.now,
                net._remaining[: net._n].tobytes(),
                net._rates[: net._n].tobytes(),
                net._link_bytes[: net._num_links].tobytes(),
            ))
        return (
            [flow.completed_at for flow in flows],
            {link: net.link_bytes[link] for link in net.links()},
            instants,
        )
    finally:
        _waterfill.kernel = original


class TestReallocationInFlight:
    def test_rebound_arrays_match_the_numpy_backend(self):
        assert _in_flight_growth(python=False) == _in_flight_growth(
            python=True
        )
