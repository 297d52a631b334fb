"""Fluid (max-min fair share) network simulation.

Concurrent transfers are modelled as fluid flows: every active flow crossing
a link shares that link's capacity max-min fairly, and rates are recomputed
whenever a flow starts or finishes (progressive filling / water filling).
This is the standard flow-level abstraction used by network simulators and it
reproduces exactly the contention effects the paper's scheduling strategies
manipulate: egress serialization on NVSwitch ports (Fig. 7), sharing of the
PCIe-switch uplink (Fig. 8/9), and the NIC bottleneck for cross-machine
pulls.

Per-flow latency (the sum of link latencies on the path) is charged once, as
a startup delay before the flow begins moving bytes.

Implementation notes (this module is the simulator's hottest path — the
solver reruns on every flow arrival/departure):

* Link ids are interned to integer indices at registration; capacities,
  per-link byte counters and per-link load counts live in numpy arrays that
  grow geometrically (``add_link`` is amortized O(1)).
* Per-flow state (packed ``(F, 2)`` path matrix, remaining bytes, rates)
  is maintained *incrementally* as flows join and leave instead of being
  rebuilt for every water-filling pass; ``Flow.remaining``/``Flow.rate``
  are views into those arrays while the flow is active.
* Flows are grouped by identical path: the water-filling rounds run over
  path *groups* (with multiplicities), and solves are memoized by
  (capacity epoch, group-count signature) — flow populations recur, so a
  recompute frequently reuses the cached per-group rates of an earlier
  identical population.  All shortcuts are arranged to be bit-identical to
  a fresh global recompute (same float operations in the same order),
  which the golden-metrics battery and a hypothesis property test pin
  down.
* Coalescing (default, ``coalesce=True``): the path group acts as a
  macro-flow and the packed member rows are its byte ledger.  Finishing
  members are *tombstoned* (rate zeroed, live bit cleared, group count and
  link loads decremented) in O(finished) instead of compacting the whole
  ledger per completion event, and the arrays are compacted only when at
  least half the rows are dead (amortized O(1) per flow).  The solver
  additionally restricts each filling pass to links with at least one
  crossing flow.  Both shortcuts are bit-identical to the uncoalesced
  path (``coalesce=False`` keeps it alive for the property battery):
  tombstoned rows have rate exactly 0 so they move no bytes and touch no
  link counters, compaction only relocates rows, and inactive links can
  never be the bottleneck of a filling round.
* Rate recomputation is deferred to the end of the simulated instant
  (``Environment.defer_to_instant_end``): a burst of arrivals/finishes at
  one timestamp — spread over any number of kernel events — triggers one
  water-filling pass for the whole cohort, not one per event.
* A ledger row is owned by a point-to-point :class:`Flow` or by a
  :class:`FlowGroup` (:meth:`FluidNetwork.transfer_group`): a collective's
  flows are rows only, admitted by one vectorized append per start
  instant and joined by a countdown, so they cost no per-flow object,
  latency record or completion event.
* Where a C compiler is available, the per-instant arithmetic — the byte
  advance, the fill and its set-up, the rate scatter with the
  next-completion scan, and the timer's finish scan and release — runs
  in the compiled kernels of :mod:`._waterfill` on addresses bound in
  advance; the numpy code beside each call is the fallback and the
  bit-identical reference (``REPRO_WATERFILL=python``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import _waterfill
from ..simkit import Environment, Event

# Memoized-solve cache ceiling in bytes of cached rate arrays; entries
# are also capped at 4096.  Hitting either bound evicts the whole cache
# (and recycles the arrays) rather than tracking LRU order — signatures
# either recur constantly (steady state: the cache never fills) or
# almost never (fleet-scale churn: nothing is worth keeping).
_SOLVE_CACHE_BUDGET = 64 << 20

__all__ = ["Flow", "FlowGroup", "FluidNetwork"]

_EPSILON = 1e-12
# The _on_timer fallback may only force-finish a flow whose remaining bytes
# are within this relative band of its size — i.e. genuine floating-point
# residue.  A stale timer observing a flow with real bytes left (e.g. after
# a mid-flight set_capacity rescale) must reschedule instead.
_FORCE_FINISH_REL = 1e-9


class Flow(Event):
    """One transfer in flight; the flow is its own completion event.

    The flow triggers (with value ``None``) when its last byte lands, so
    processes wait on it directly; :attr:`done` is the flow itself.  A
    flow never holds itself as its value, so a finished flow is freed by
    reference counting rather than left as cyclic garbage.

    Attributes:
        path: directed link ids the flow crosses (may be empty for a
            device-local copy).
        size: total bytes.
        remaining: bytes still to move.
        rate: current fair-share rate in bytes/second (0 until activated).
        done: the flow itself, the event to wait on for completion.
    """

    _ids = itertools.count()

    __slots__ = (
        "id", "path", "path_index", "size", "latency",
        "tag", "created_at", "started_at", "completed_at",
        "_net", "_row", "_remaining", "_rate",
    )

    def __init__(
        self,
        env: Environment,
        path: Tuple[Hashable, ...],
        path_index: Tuple[int, ...],
        size: float,
        latency: float,
        tag: Optional[Hashable] = None,
        network: Optional["FluidNetwork"] = None,
    ):
        super().__init__(env)
        self.id = next(Flow._ids)
        self.path = path
        self.path_index = path_index
        self.size = float(size)
        self.latency = latency
        self.tag = tag
        self.created_at = env.now
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        # The network that carries the flow (None for one that never
        # starts, e.g. a dropped message).  While active (_row >= 0),
        # remaining/rate live in the network's packed arrays at _row;
        # before activation and after completion the cached scalars below
        # are authoritative.
        self._net = network
        self._row = -1
        self._remaining = float(size)
        self._rate = 0.0

    @property
    def done(self) -> "Flow":
        """The completion event: the flow itself."""
        return self

    @property
    def remaining(self) -> float:
        """Bytes still to move (live view while the flow is active)."""
        if self._row >= 0:
            return float(self._net._remaining[self._row])
        return self._remaining

    @property
    def rate(self) -> float:
        """Current fair-share rate (live view while the flow is active)."""
        if self._row >= 0:
            return float(self._net._rates[self._row])
        return self._rate

    def _start(self) -> None:
        """End of the latency stage: join the network's active set."""
        self._net._activate(self)

    @property
    def duration(self) -> Optional[float]:
        """Wall time from creation to completion (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    def __repr__(self) -> str:
        return (
            f"<Flow {self.id} size={self.size:.0f}B "
            f"remaining={self.remaining:.0f}B rate={self.rate:.3g}B/s>"
        )


class FlowGroup(Event):
    """A batch of flows started and joined as one unit; the group is its
    own completion event.

    Members are rows of the network's packed ledger, not :class:`Flow`
    objects.  The group triggers (with value ``None``) once its last
    member has landed, at the point in the event order where a join over
    per-member completion events would have triggered.
    """

    __slots__ = ("_pending",)

    def __init__(self, env: Environment, members: int):
        super().__init__(env)
        self._pending = members


class _LinkBytesView:
    """Read-only mapping from link id to total bytes moved over it."""

    def __init__(self, network: "FluidNetwork"):
        self._network = network

    def __getitem__(self, link_id: Hashable) -> float:
        index = self._network._index[link_id]
        return float(self._network._link_bytes[index])

    def __contains__(self, link_id: Hashable) -> bool:
        return link_id in self._network._index

    def items(self):
        for link_id, index in self._network._index.items():
            yield link_id, float(self._network._link_bytes[index])


class FluidNetwork:
    """Max-min fair bandwidth sharing over a set of directed links."""

    def __init__(self, env: Environment, coalesce: bool = True):
        self.env = env
        # Coalesced mode (default) tombstones finished ledger rows and
        # water-fills over active links only; ``coalesce=False`` keeps the
        # eager row-compaction/dense-solve path alive as the bit-identical
        # reference for the equivalence property battery.
        self.coalesce = coalesce
        self._index: Dict[Hashable, int] = {}
        # Per-link arrays; only the first _num_links entries are valid.
        self._capacity = np.zeros(0)
        self._link_bytes = np.zeros(0)
        self._load_counts = np.zeros(0, dtype=np.int64)
        self._num_links = 0
        self._capacity_epoch = 0
        # Per-flow packed state; rows parallel _active, first _n valid.
        # Each row's owner is its Flow or the FlowGroup it belongs to.
        self._active: List[object] = []
        self._paths = np.full((0, 2), -1, dtype=np.int64)
        self._remaining = np.zeros(0)
        self._rates = np.zeros(0)
        self._sizes = np.zeros(0)
        self._gids = np.zeros(0, dtype=np.int64)
        # Tombstone ledger (coalesced mode): _live marks rows whose flow is
        # still in flight; _active carries None at dead rows so row indices
        # stay aligned until the next compaction.
        self._live = np.zeros(0, dtype=bool)
        # Compiled backend only: the rows a finish scan picked.
        self._picked = np.zeros(0, dtype=np.int64)
        self._live_count = 0
        self._dead_count = 0
        self._n = 0
        # Path groups: flows with identical path share a group; the solver
        # runs over groups with multiplicities.  Groups are never deleted.
        self._group_of: Dict[Tuple[int, ...], int] = {}
        self._group_paths = np.full((0, 2), -1, dtype=np.int64)
        self._group_count = np.zeros(0, dtype=np.int64)
        self._num_groups = 0
        # Memoized solves keyed by (capacity epoch, trimmed group-count
        # signature): flow populations recur, so identical signatures are
        # common across non-consecutive recomputes.  The cache is bounded
        # by entry count and by bytes (fleet-scale rate arrays run to
        # hundreds of KB each).  Each entry is (rates, their address); the
        # compiled solver carves its rate arrays from the ledger's arena,
        # which an eviction rewinds, so solves write into warm pages.
        self._solve_cache: Dict[
            Tuple[int, bytes], Tuple[np.ndarray, int]
        ] = {}
        self._solve_cache_bytes = 0
        # Highest group id that ever held a flow: upper bound for the
        # populated-signature width (avoids an O(groups) nonzero scan on
        # every recompute instant).
        self._gid_hi = -1
        # Resolved link-id tuples -> packed index tuples (routes repeat).
        self._path_cache: Dict[Tuple[Hashable, ...], Tuple[int, ...]] = {}
        # link -> crossing-groups CSR adjacency; both the group table and
        # the link set are append-only, so it is rebuilt only on growth.
        self._csr_groups: Optional[np.ndarray] = None
        self._csr_starts: Optional[np.ndarray] = None
        self._csr_gvalid: Optional[np.ndarray] = None
        self._csr_rowsum: Optional[np.ndarray] = None
        self._csr_shape = (-1, -1)
        # The compiled kernels bound to this network's arrays, or None on
        # the numpy path; chosen once, at the first rate assignment.
        self._ledger: Optional[_waterfill.Ledger] = None
        self._backend_chosen = False
        self._last_update = env.now
        self._generation = 0
        self._recompute_pending = False
        self.total_bytes_completed = 0.0
        # Ledger rows ever appended (point-to-point flows and group
        # members that moved bytes): the per-row share of host work the
        # weak-scaling gate charges beside kernel events.
        self.rows_admitted = 0

    # -- topology -----------------------------------------------------------

    def add_link(self, link_id: Hashable, bandwidth: float) -> None:
        """Register a directed link with ``bandwidth`` bytes/second."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if link_id in self._index:
            raise ValueError(f"duplicate link id: {link_id!r}")
        index = self._num_links
        if index == self._capacity.shape[0]:
            grown = max(16, 2 * index)
            self._capacity = _grow(self._capacity, grown)
            self._link_bytes = _grow(self._link_bytes, grown)
            self._load_counts = _grow(self._load_counts, grown)
            self._bind_links()
        self._index[link_id] = index
        self._capacity[index] = float(bandwidth)
        self._link_bytes[index] = 0.0
        self._load_counts[index] = 0
        self._num_links = index + 1
        self._capacity_epoch += 1

    def capacity(self, link_id: Hashable) -> float:
        return float(self._capacity[self._index[link_id]])

    def links(self) -> List[Hashable]:
        """All registered link ids, in registration order."""
        return list(self._index)

    def set_capacity(self, link_id: Hashable, bandwidth: float) -> None:
        """Rescale a link's bandwidth mid-flight (fault injection).

        Bytes already moved are accounted at the old rates before the
        change; active flows crossing the link are re-waterfilled at the
        new capacity from the current instant.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        index = self._index[link_id]
        self._advance()
        self._capacity[index] = float(bandwidth)
        self._capacity_epoch += 1
        self._schedule_recompute()

    @property
    def link_bytes(self) -> _LinkBytesView:
        return _LinkBytesView(self)

    @property
    def active_flows(self) -> List[Flow]:
        """Point-to-point flows moving bytes (group members are rows
        only; see :attr:`live_rows`)."""
        return [owner for owner in self._active if owner.__class__ is Flow]

    @property
    def live_rows(self) -> int:
        """Ledger rows still moving bytes: active flows plus the started
        members of every transfer group."""
        return self._live_count

    # -- transfers ----------------------------------------------------------

    def resolve_path(
        self, path: Iterable[Hashable]
    ) -> Tuple[Tuple[Hashable, ...], Tuple[int, ...]]:
        """Intern ``path`` and return ``(path tuple, packed index tuple)``.

        Callers that issue many transfers over the same route (the fabric,
        the collectives) resolve once and pass ``path_index`` to
        :meth:`transfer`, skipping the per-call cache lookup.
        """
        path = tuple(path)
        path_index = self._path_cache.get(path)
        if path_index is None:
            try:
                path_index = tuple(self._index[link_id] for link_id in path)
            except KeyError as exc:
                raise KeyError(f"unknown link id: {exc.args[0]!r}") from None
            if len(path_index) > 2:
                raise ValueError(
                    f"paths are at most two links, got {len(path_index)}"
                )
            self._path_cache[path] = path_index
        return path, path_index

    def transfer(
        self,
        path: Iterable[Hashable],
        size: float,
        latency: float = 0.0,
        tag: Optional[Hashable] = None,
        path_index: Optional[Tuple[int, ...]] = None,
    ) -> Flow:
        """Start a transfer of ``size`` bytes over ``path``.

        Returns the :class:`Flow`; wait on ``flow.done`` for completion.
        Zero-size transfers and empty paths complete after ``latency`` only.
        ``path_index`` is the pre-resolved result of :meth:`resolve_path`;
        when given, ``path`` must already be the interned tuple.
        """
        if path_index is None:
            path, path_index = self.resolve_path(path)
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        flow = Flow(
            self.env, path, path_index, size, latency, tag=tag, network=self
        )
        if latency > 0:
            # The latency stage is one kernel callback record calling a
            # plain function — no Process, Timeout or bound method: at
            # fleet scale every point-to-point flow passes through here.
            self.env.call_later(latency, Flow._start, flow)
        else:
            self._activate(flow)
        return flow

    def transfer_group(
        self,
        path_indices: Sequence[Tuple[int, ...]],
        sizes,
        latencies,
    ) -> FlowGroup:
        """Start a batch of transfers that completes as one event.

        Member ``i`` moves ``sizes[i]`` bytes over the packed path
        ``path_indices[i]`` (see :meth:`resolve_path`) after a startup
        delay of ``latencies[i]``.  Simulated times, bytes and event order
        are exactly those of issuing the members one by one through
        :meth:`transfer` and joining them with ``AllOf``:

        * members that start at the same instant (``now + latency``) are
          admitted by one kernel record, in member order, at the place of
          the first one's latency record — the per-member records it
          replaces would have run back to back in one calendar bucket;
        * the member that lands last schedules the group's trigger with
          ``call_later(0.0, ...)`` at the place its own completion event
          would have been queued, so the trigger lands where the join's
          would; the other members' completion events only advanced the
          join's count, and dropping them reorders nothing else.

        A group with no members triggers at once, like an empty ``AllOf``.
        """
        sizes = np.asarray(sizes, dtype=float)
        latencies = np.asarray(latencies, dtype=float)
        count = sizes.shape[0]
        if len(path_indices) != count or latencies.shape != (count,):
            raise ValueError(
                "path_indices, sizes and latencies must have one entry "
                "per member"
            )
        if count and (sizes.min() < 0 or latencies.min() < 0):
            raise ValueError("sizes and latencies must be non-negative")
        env = self.env
        group = FlowGroup(env, count)
        if not count:
            group.succeed()
            return group
        # Start instant per member; zero-latency members start inside this
        # call (-inf keeps them apart from a positive latency so small
        # that ``now + latency == now``, which still takes a kernel turn).
        starts = np.where(latencies > 0, env.now + latencies, -np.inf)
        # Cohorts start at distinct instants, i.e. in distinct calendar
        # buckets, so the order they are scheduled in is immaterial.
        _, first, cohort_of = np.unique(
            starts, return_index=True, return_inverse=True
        )
        for cohort, lead in enumerate(first.tolist()):
            members = np.flatnonzero(cohort_of == cohort)
            batch = (
                group,
                [path_indices[i] for i in members.tolist()],
                sizes[members],
            )
            if latencies[lead] > 0:
                env.call_later(float(latencies[lead]), self._admit, batch)
            else:
                self._admit(batch)
        return group

    def _activate(self, flow: Flow) -> None:
        flow.started_at = self.env.now
        if flow.size <= 0 or not flow.path:
            # Local copy or pure-latency message: completes instantly once
            # the latency delay has elapsed.
            self._land(flow, flow.size)
            return
        self._advance()
        self._append_row(flow)
        self._schedule_recompute()

    def _admit(self, batch) -> None:
        """A group cohort's latency stage ended: its members join the
        ledger in member order, exactly as one :meth:`_activate` per
        member would have appended them; zero-byte and link-less members
        land at once."""
        group, paths, sizes = batch
        group_of = self._group_of
        gids = []
        moving = []
        for path_index, size in zip(paths, sizes.tolist()):
            if size > 0 and path_index:
                gid = group_of.get(path_index)
                if gid is None:
                    gid = self._intern_group(path_index)
                gids.append(gid)
                moving.append(size)
            else:
                # Not the group's last member while this cohort still has
                # moving ones, so landing it ahead of them queues nothing.
                self._land(group, size)
        if gids:
            self._advance()
            self._append_rows(
                group, np.array(gids, dtype=np.int64), np.array(moving)
            )
            self._schedule_recompute()

    # -- packed per-flow state ----------------------------------------------

    def _reserve(self, rows: int) -> None:
        """Grow the per-row arrays to hold at least ``rows`` rows."""
        size = self._remaining.shape[0]
        if rows <= size:
            return
        grown = max(32, 2 * size, rows)
        self._paths = _grow(self._paths, grown, fill=-1)
        self._remaining = _grow(self._remaining, grown)
        self._rates = _grow(self._rates, grown)
        self._sizes = _grow(self._sizes, grown)
        self._gids = _grow(self._gids, grown)
        self._live = _grow(self._live, grown)
        self._bind_rows()

    def _append_row(self, flow: Flow) -> None:
        row = self._n
        self._reserve(row + 1)
        path_index = flow.path_index
        self._paths[row] = -1
        self._paths[row, : len(path_index)] = path_index
        self._remaining[row] = flow._remaining
        self._rates[row] = 0.0
        self._sizes[row] = flow.size
        gid = self._group_of.get(path_index)
        if gid is None:
            gid = self._intern_group(path_index)
        self._gids[row] = gid
        self._group_count[gid] += 1
        if gid > self._gid_hi:
            self._gid_hi = gid
        for index in path_index:
            self._load_counts[index] += 1
        self._live[row] = True
        self._live_count += 1
        self.rows_admitted += 1
        self._n = row + 1
        self._active.append(flow)
        flow._row = row

    def _append_rows(
        self, owner: FlowGroup, gids: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Vectorized :meth:`_append_row` for a cohort of group members:
        the same row contents in the same order, with exact integer
        group/link counts."""
        row = self._n
        end = row + gids.shape[0]
        self._reserve(end)
        paths = self._group_paths[gids]
        self._paths[row:end] = paths
        self._remaining[row:end] = sizes
        self._rates[row:end] = 0.0
        self._sizes[row:end] = sizes
        self._gids[row:end] = gids
        np.add.at(self._group_count, gids, 1)
        self._gid_hi = max(self._gid_hi, int(gids.max()))
        np.add.at(self._load_counts, paths[paths >= 0], 1)
        self._live[row:end] = True
        self._live_count += end - row
        self.rows_admitted += end - row
        self._n = end
        self._active.extend(itertools.repeat(owner, end - row))

    def _intern_group(self, path_index: Tuple[int, ...]) -> int:
        gid = self._num_groups
        if gid == self._group_count.shape[0]:
            grown = max(16, 2 * gid)
            self._group_paths = _grow(self._group_paths, grown, fill=-1)
            self._group_count = _grow(self._group_count, grown)
            self._bind_groups()
        self._group_paths[gid] = -1
        self._group_paths[gid, : len(path_index)] = path_index
        self._group_count[gid] = 0
        self._num_groups = gid + 1
        self._group_of[path_index] = gid
        return gid

    def _release(self, rows: np.ndarray) -> None:
        """Drop ``rows``' group memberships and link loads (in-place
        scatter-decrements: exact integer arithmetic, and no
        O(num_groups)/O(num_links) bincount allocation per instant).
        On the compiled backend ``rows`` is always the head of
        ``_picked``, where the native pass reads them."""
        if self._ledger is not None:
            self._ledger.release(rows.shape[0], 0)
            return
        np.subtract.at(self._group_count, self._gids[rows], 1)
        paths = self._paths[rows]
        links = paths[paths >= 0]
        if links.size:
            np.subtract.at(self._load_counts, links, 1)

    def _renumber(self, start: int) -> None:
        """Point every flow from row ``start`` on at its current row
        (group members are anonymous rows and need no update)."""
        active = self._active
        for row in range(start, len(active)):
            owner = active[row]
            if owner.__class__ is Flow:
                owner._row = row

    def _remove_rows(self, rows: np.ndarray) -> List[object]:
        """Retire ``rows`` (ascending) and return their owners in row
        order.

        Coalesced mode tombstones in O(finished); the uncoalesced
        reference compacts the ledger eagerly (O(active) per call).
        """
        if self.coalesce:
            return self._retire_rows(rows)
        n = self._n
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        active = self._active
        finished = [active[row] for row in rows.tolist()]
        self._release(rows)
        k = n - rows.size
        self._paths[:k] = self._paths[:n][keep]
        self._remaining[:k] = self._remaining[:n][keep]
        self._rates[:k] = self._rates[:n][keep]
        self._sizes[:k] = self._sizes[:n][keep]
        self._gids[:k] = self._gids[:n][keep]
        self._active = [active[row] for row in np.flatnonzero(keep).tolist()]
        self._renumber(int(rows[0]))
        self._n = k
        self._live_count = k
        return finished

    def _retire_rows(self, rows: np.ndarray) -> List[object]:
        """Tombstone ``rows``: zero their rate, clear their live bit and
        release their group/link bookkeeping.  The dead rows keep their
        position (so live rows never move and no float is touched) until
        :meth:`_compact` reclaims them."""
        active = self._active
        finished = []
        for row in rows.tolist():
            finished.append(active[row])
            active[row] = None
        if self._ledger is not None:
            self._ledger.release(rows.shape[0], 1)  # and tombstone them
        else:
            self._release(rows)
            self._rates[rows] = 0.0
            self._live[rows] = False
        self._dead_count += rows.size
        self._live_count -= rows.size
        if self._live_count == 0:
            self._active = []
            self._n = 0
            self._dead_count = 0
        elif self._dead_count >= 64 and 2 * self._dead_count >= self._n:
            self._compact()
        return finished

    def _compact(self) -> None:
        """Reclaim tombstoned rows, preserving live-row order (and hence
        every downstream float operation's order)."""
        n = self._n
        live = self._live[:n]
        k = self._live_count
        self._paths[:k] = self._paths[:n][live]
        self._remaining[:k] = self._remaining[:n][live]
        self._rates[:k] = self._rates[:n][live]
        self._sizes[:k] = self._sizes[:n][live]
        self._gids[:k] = self._gids[:n][live]
        self._live[:k] = True
        self._active = [owner for owner in self._active if owner is not None]
        self._renumber(0)
        self._n = k
        self._dead_count = 0

    # -- backend --------------------------------------------------------------

    def _choose_backend(self) -> None:
        """Bind the compiled kernels to this network's arrays, or stay
        on the numpy path (no compiler, or ``REPRO_WATERFILL=python``).

        The one place the backend is chosen: lazily, at the first rate
        assignment, so building a network never pays the library load or
        a first compile.  Until then every rate is 0, so the numpy
        :meth:`_advance` it may run first moves nothing.
        """
        self._backend_chosen = True
        lib = _waterfill.kernel()
        if lib is None:
            return
        self._ledger = _waterfill.Ledger(lib)
        self._bind_links()
        self._bind_groups()
        self._bind_rows()
        self._bind_csr()

    # The kernels hold raw addresses: each array is rebound right where
    # it is reallocated.

    def _bind_links(self) -> None:
        if self._ledger is not None:
            self._ledger.bind(
                capacity=self._capacity,
                load_counts=self._load_counts,
                link_bytes=self._link_bytes,
            )

    def _bind_groups(self) -> None:
        if self._ledger is not None:
            self._ledger.bind(
                gpaths=self._group_paths, gcount=self._group_count
            )

    def _bind_rows(self) -> None:
        if self._ledger is not None:
            # Finished rows, written by the native finish scan.
            self._picked = np.empty(self._remaining.shape[0], dtype=np.int64)
            self._ledger.bind(
                paths=self._paths,
                remaining=self._remaining,
                rates=self._rates,
                sizes=self._sizes,
                gids=self._gids,
                live=self._live,
                picked=self._picked,
            )

    def _bind_csr(self) -> None:
        if self._ledger is not None and self._csr_groups is not None:
            self._ledger.bind(
                csr_groups=self._csr_groups, csr_starts=self._csr_starts
            )

    # -- recompute scheduling ------------------------------------------------

    def _schedule_recompute(self) -> None:
        """Coalesce rate recomputation: many flows starting or finishing at
        the same instant (e.g. the prefetch burst at iteration start) cause
        one water-filling pass, not one per flow.  The pass is deferred to
        the end of the instant, so the whole same-timestamp cohort —
        across any number of kernel events — shares a single solve."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.env.defer_to_instant_end(self._do_recompute)

    def _do_recompute(self) -> None:
        self._recompute_pending = False
        self._advance()
        self._reschedule()

    # -- fluid mechanics ----------------------------------------------------

    def _advance(self) -> None:
        """Move bytes for all active flows since the last update."""
        now = self.env.now
        dt = now - self._last_update
        n = self._n
        if dt > 0 and n:
            if self._ledger is not None:
                self._ledger.advance(n, dt)
            else:
                _move_bytes(
                    self._rates[:n], self._remaining[:n], self._paths[:n],
                    self._link_bytes, dt,
                )
        self._last_update = now

    def _assign_rates(self) -> float:
        """Water-filling max-min fair allocation (incremental, vectorized);
        returns the earliest completion's ETA over moving rows, or
        ``_waterfill.NOTHING_MOVING``.

        The filling rounds run over path *groups* (flows with an identical
        link tuple) with multiplicities, which is arithmetically identical
        to running over individual flows: a round fixes every unfixed flow
        crossing the bottleneck at the same share, and the residual update
        subtracts ``share * crossing_flow_count`` per link either way.

        Solves are memoized by (capacity epoch, group-count signature
        trimmed to the last populated group).  A signature hit reuses the
        cached per-group rates — the outcome of a fresh recompute would be
        bit-identical because water-filling is a deterministic function of
        (group paths, group counts, capacities): group paths are immutable
        once interned, the epoch pins the capacities, and groups past the
        trim point are empty so they add no link load and shift no
        bottleneck (appended links/groups never reorder earlier indices,
        so argmin tie-breaks are stable too).
        """
        if not self._backend_chosen:
            self._choose_backend()
        n = self._n
        if not n:
            return _waterfill.NOTHING_MOVING
        num_groups = self._num_groups
        gcount = self._group_count[:num_groups]
        # _gid_hi bounds the last populated group from above; trailing
        # zeros in the signature only cost the occasional duplicate cache
        # entry, never a false hit.
        width = self._gid_hi + 1
        key = (self._capacity_epoch, gcount[:width].tobytes())
        cached = self._solve_cache.get(key)
        if cached is None:
            # Evict before solving: the eviction rewinds the arena the
            # new solve is carved from.
            if (
                len(self._solve_cache) >= 4096
                or self._solve_cache_bytes >= _SOLVE_CACHE_BUDGET
            ):
                self._evict_solve_cache()
            cached = self._solve(num_groups, gcount)
            self._solve_cache[key] = cached
            self._solve_cache_bytes += cached[0].nbytes
        grates, address = cached
        # Every active flow's group lies inside the trimmed signature, so a
        # cached array from a smaller group table still covers all gids.
        # Only live rows take the solved rate: a tombstoned row's rate
        # stays exactly 0 (what makes it invisible to _advance and the
        # completion timer), and its group may be empty — i.e. beyond the
        # cached array's trim width — so it must not index grates.
        if self._ledger is not None:
            return self._ledger.assign(n, address, self._dead_count)
        rates = self._rates[:n]
        if self._dead_count:
            live = self._live[:n]
            rates[live] = grates[self._gids[:n][live]]
        else:
            rates[:] = grates[self._gids[:n]]
        moving = rates > 0
        if not moving.any():
            return _waterfill.NOTHING_MOVING
        return float((self._remaining[:n][moving] / rates[moving]).min())

    def _evict_solve_cache(self) -> None:
        """Drop every cached solve (and rewind the compiled solver's
        arena: no cached rate array is left to overwrite)."""
        self._solve_cache.clear()
        self._solve_cache_bytes = 0
        if self._ledger is not None:
            self._ledger.rewind()

    def _solve(
        self, num_groups: int, gcount: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """One full water-filling pass; returns the per-group rates and
        their address (0 on the numpy path)."""
        if self._ledger is not None:
            return self._solve_compiled(num_groups)
        if self.coalesce:
            return self._solve_active(num_groups, gcount), 0
        return self._solve_dense(num_groups, gcount), 0

    def _solve_compiled(self, num_groups: int) -> Tuple[np.ndarray, int]:
        """Water-filling via the compiled kernel (see ``_waterfill``).

        Runs the dense-solver semantics — full link space, cached CSR
        adjacency — but with the per-round work in native code, where a
        lazy-invalidation heap replaces the O(links) argmin scan.  The
        kernel performs the identical IEEE-754 operations in the
        identical order, so the rates are bitwise those of
        :meth:`_solve_dense` (and, by the coalescing invariant, of
        :meth:`_solve_active`).  The set-up is in the kernel too, so a
        solve is one foreign call.
        """
        num_links = self._num_links
        self._ensure_csr(num_groups)
        ledger = self._ledger
        ledger.reserve(num_links, num_groups)
        # The result lands in the memoization cache, so it needs its own
        # array: one carved from the arena.
        grates, address = ledger.carve(num_groups)
        ledger.waterfill(num_links, num_groups, address)
        return grates, address

    def _solve_active(self, num_groups: int, gcount: np.ndarray) -> np.ndarray:
        """Water-filling restricted to links with at least one crossing
        flow.

        Bit-identical to :meth:`_solve_dense`: a link with zero load has an
        infinite share in every dense round, so it can never be the argmin
        bottleneck (ties on the share value break toward the lowest link
        index, and the compacted arrays keep ascending link order), it
        receives no residual/load updates that matter, and groups crossing
        only inactive links are never candidates in either solver.  The
        per-round cost drops from O(all links ever registered) to O(links
        with active flows) — at fleet scale most links are idle outside
        their phase (e.g. NVLink during the cross-machine pull wave).
        """
        num_links = self._num_links
        load_full = self._load_counts[:num_links]
        active = np.flatnonzero(load_full > 0)
        na = int(active.size)
        grates = np.zeros(num_groups)
        if na == 0:
            return grates
        gpaths = self._group_paths[:num_groups]
        # Remap the group->link adjacency into compact active-link space.
        pos = np.full(num_links, -1, dtype=np.int64)
        pos[active] = np.arange(na, dtype=np.int64)
        gvalid = gpaths >= 0
        mapped = pos[gpaths[gvalid]]
        flat_groups = np.broadcast_to(
            np.arange(num_groups, dtype=np.int64)[:, None],
            (num_groups, 2),
        )[gvalid]
        adjacent = mapped >= 0
        flat_links = mapped[adjacent]
        flat_groups = flat_groups[adjacent]
        order = np.argsort(flat_links, kind="stable")
        sorted_groups = flat_groups[order]
        starts = np.searchsorted(
            flat_links[order], np.arange(na + 1, dtype=np.int64)
        )
        # Per-group active-link paths (compact index space) and degree.
        cpaths = np.full((num_groups, 2), -1, dtype=np.int64)
        np.place(cpaths, gvalid, mapped)
        cvalid = cpaths >= 0
        rowsum = cvalid.sum(axis=1)

        residual = self._capacity[active].copy()
        load = load_full[active].astype(float)
        gcount_f = gcount.astype(float)
        gunfixed = np.ones(num_groups, dtype=bool)
        unfixed_flows = int(gcount.sum())
        shares = np.empty(na)
        while True:
            positive = load > 0
            np.divide(residual, load, out=shares, where=positive)
            shares[~positive] = np.inf
            bottleneck = int(shares.argmin())
            share = shares[bottleneck]
            if not np.isfinite(share):
                break
            share = max(share, 0.0)
            candidates = sorted_groups[
                starts[bottleneck]: starts[bottleneck + 1]
            ]
            selected = candidates[gunfixed[candidates]]
            if not selected.size:
                break
            grates[selected] = share
            touched = cpaths[selected][cvalid[selected]]
            counts = np.bincount(
                touched,
                weights=gcount_f[selected].repeat(rowsum[selected]),
                minlength=na,
            )
            residual -= share * counts
            load -= counts
            residual[bottleneck] = 0.0
            load[bottleneck] = 0.0
            gunfixed[selected] = False
            unfixed_flows -= int(gcount[selected].sum())
            if unfixed_flows <= 0:
                break
        return grates

    def _ensure_csr(self, num_groups: int) -> None:
        """Build the link -> crossing groups adjacency (CSR over sorted
        flat links); valid until the next link or group is interned."""
        num_links = self._num_links
        if self._csr_shape == (num_groups, num_links):
            return
        gpaths = self._group_paths[:num_groups]
        gvalid = gpaths >= 0
        flat_links = gpaths[gvalid]
        flat_groups = np.broadcast_to(
            np.arange(num_groups, dtype=np.int64)[:, None],
            (num_groups, 2),
        )[gvalid]
        order = np.argsort(flat_links, kind="stable")
        sorted_links = flat_links[order]
        self._csr_groups = flat_groups[order]
        self._csr_starts = np.searchsorted(
            sorted_links, np.arange(num_links + 1, dtype=np.int64)
        )
        self._csr_gvalid = gvalid
        self._csr_rowsum = gvalid.sum(axis=1)
        self._csr_shape = (num_groups, num_links)
        self._bind_csr()

    def _solve_dense(self, num_groups: int, gcount: np.ndarray) -> np.ndarray:
        """Water-filling over every registered link (uncoalesced
        reference)."""
        num_links = self._num_links
        gpaths = self._group_paths[:num_groups]
        self._ensure_csr(num_groups)
        sorted_groups = self._csr_groups
        starts = self._csr_starts
        gvalid = self._csr_gvalid
        rowsum = self._csr_rowsum

        residual = self._capacity[:num_links].copy()
        load = self._load_counts[:num_links].astype(float)
        gcount_f = gcount.astype(float)
        grates = np.zeros(num_groups)
        gunfixed = np.ones(num_groups, dtype=bool)
        unfixed_flows = int(gcount.sum())
        shares = np.empty(num_links)
        while True:
            positive = load > 0
            np.divide(residual, load, out=shares, where=positive)
            shares[~positive] = np.inf
            bottleneck = int(shares.argmin())
            share = shares[bottleneck]
            if not np.isfinite(share):
                break
            # Floating-point residue can push a residual slightly negative;
            # never hand out a negative rate.
            share = max(share, 0.0)
            candidates = sorted_groups[
                starts[bottleneck]: starts[bottleneck + 1]
            ]
            selected = candidates[gunfixed[candidates]]
            if not selected.size:
                break
            grates[selected] = share
            touched = gpaths[selected][gvalid[selected]]
            counts = np.bincount(
                touched,
                weights=gcount_f[selected].repeat(rowsum[selected]),
                minlength=num_links,
            )
            residual -= share * counts
            load -= counts
            residual[bottleneck] = 0.0
            load[bottleneck] = 0.0
            gunfixed[selected] = False
            unfixed_flows -= int(gcount[selected].sum())
            if unfixed_flows <= 0:
                break
        return grates

    def _reschedule(self) -> None:
        """Recompute rates and arm a timer for the next flow completion."""
        next_done = self._assign_rates()
        self._generation += 1
        if next_done != _waterfill.NOTHING_MOVING:
            self.env.call_later(
                max(next_done, 0.0), self._on_timer, self._generation
            )

    def _on_timer(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a newer reschedule
        self._advance()
        n = self._n
        ledger = self._ledger
        if ledger is not None:
            rows = self._picked[
                : ledger.finish_scan(n, self._dead_count, _EPSILON)
            ]
        else:
            finished_mask = (
                self._remaining[:n] <= _EPSILON * self._sizes[:n] + _EPSILON
            )
            if self._dead_count:
                # Tombstoned rows sit at ~0 remaining; only live rows finish.
                finished_mask &= self._live[:n]
            rows = np.flatnonzero(finished_mask)
        if not rows.size:
            rows = self._residue_rows(n)
            if rows is None:
                self._schedule_recompute()
                return
            if ledger is not None:
                # The native retirement reads its rows from ``_picked``.
                self._picked[: rows.size] = rows
                rows = self._picked[: rows.size]
        if rows.size:
            # Sizes are read before retirement may compact the ledger.
            sizes = self._sizes[rows].tolist()
            land = self._land
            for owner, size in zip(self._remove_rows(rows), sizes):
                land(owner, size)
        self._schedule_recompute()

    def _residue_rows(self, n: int) -> Optional[np.ndarray]:
        """Rows to finish when the timer found none done, or None when
        the network must recompute and re-arm instead.

        The timer was armed for the minimum-ETA flow; if floating point
        residue kept its remaining microscopically above the threshold,
        finish it anyway rather than looping on zero-length timers.
        Guard: only genuine residue qualifies — a stale timer looking at a
        flow with real bytes left (e.g. its rate was rescaled by
        set_capacity mid-flight) must recompute and re-arm instead of
        force-finishing.
        """
        remaining = self._remaining[:n]
        rates = self._rates[:n]
        moving = np.flatnonzero(rates > 0)
        if not moving.size:
            return moving
        etas = remaining[moving] / rates[moving]
        candidate = int(moving[int(etas.argmin())])
        # The relative band covers drift on large flows; the ETA clause
        # covers small ones, where ``remaining -= rate*dt`` cancellation
        # leaves ~rate*ulp(now) bytes — more than any relative tolerance
        # of a few-hundred-byte flow, yet with a completion time below the
        # clock's float resolution (``now + eta == now``).  A timer for
        # such a flow can never advance the clock, so finishing is the
        # only faithful move; anything with a representable ETA still
        # recomputes and re-arms.
        now = self.env.now
        eta = float(etas.min())
        if now + eta <= now:
            # The whole sub-ulp cohort finishes together.  Retiring rows
            # only frees capacity, so any flow whose ETA is already below
            # the clock's resolution stays there as its peers retire —
            # finishing them one timer round at a time would land every
            # one at this same ``now`` while paying a full solve per flow
            # (the fleet-scale cascade pathology).
            return moving[now + etas <= now]
        if (
            remaining[candidate]
            <= _FORCE_FINISH_REL * self._sizes[candidate] + _EPSILON
        ):
            return np.array([candidate], dtype=np.int64)
        return None

    def _land(self, owner, size: float) -> None:
        """A row's last byte landed: account it and fire its owner — the
        flow's completion event, or the group's trigger once its last
        member is in."""
        self.total_bytes_completed += size
        if owner.__class__ is Flow:
            owner._row = -1
            owner._remaining = 0.0
            owner._rate = 0.0
            owner.completed_at = self.env.now
            owner.succeed()
            return
        owner._pending -= 1
        if not owner._pending:
            self.env.call_later(0.0, Event.succeed, owner)

    # -- introspection -------------------------------------------------------

    def link_utilization(self, link_id: Hashable, elapsed: float) -> float:
        """Average utilization of a link over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        index = self._index[link_id]
        return float(
            self._link_bytes[index] / (self._capacity[index] * elapsed)
        )


def _move_bytes(
    rates: np.ndarray,
    remaining: np.ndarray,
    paths: np.ndarray,
    link_bytes: np.ndarray,
    dt: float,
) -> None:
    """Move ``dt`` seconds of bytes over rows with ``rates`` and
    ``paths``: the numpy body of :meth:`FluidNetwork._advance`, and the
    reference of the compiled ``advance``."""
    moved = rates * dt
    positive = moved > 0
    if positive.any():
        np.maximum(remaining - moved, 0.0, out=remaining)
        # Accumulate per-link bytes in (flow, link-in-path) order — the
        # same float addition order as a per-flow loop.
        mask = (paths >= 0) & positive[:, None]
        np.add.at(
            link_bytes,
            paths[mask],
            np.broadcast_to(moved[:, None], paths.shape)[mask],
        )


def _grow(array: np.ndarray, size: int, fill=0) -> np.ndarray:
    """Return ``array`` grown to ``size`` rows, new entries set to ``fill``.

    Works for both 1-D scalar arrays and 2-D row matrices (the trailing
    dimensions are preserved); only the leading dimension grows.
    """
    grown = np.full((size,) + array.shape[1:], fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown
