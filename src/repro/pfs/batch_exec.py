"""Batched execution fast path: replay a columnar batch without processes.

:func:`replay_batch` serves every request of a
:class:`~repro.pfs.batch.RequestBatch` by replaying the discrete-event
simulation **arithmetically**, in two tiers that share one flat, fully
materialized job table (:class:`FlatPresplit` sub-requests, expanded with
replica mirror writes and physical extent bases, in MDS-dispatch order —
arrival order shifted by any sharded-cluster ring-hop delays):

1. the **columnar engine** (:mod:`repro.pfs.columnar`) evaluates every
   FIFO resource as a vectorized prefix-max/cumsum recurrence — no Python
   loop over sub-requests at all. It covers the common shape (single-op
   batch, stock device/network models) and *bails* losslessly when a
   precondition fails at run time;
2. the **event-heap replay** (the columnar tier's fallback) walks one flat
   heap of plain tuples instead of the generator-coroutine machinery
   (``Process`` objects, resource grant events, ``AllOf`` joins) that
   dominates wall-clock on million-request replays.

Neither tier is an approximation — both mirror the general path's event
cascade *hop for hop*:

- every schedule point of the general path (request bootstrap / issue-delay
  timeout, resource grant fire, service timeout) maps to the same simulated
  time and the same relative position, so same-timestamp ties break
  identically (the columnar tier bails on the one tie class whose order
  would depend on heap sequence numbers);
- resource state (FIFO queues, in-use counts, utilization intervals,
  granted counts) follows the same synchronous-grant semantics as
  :class:`repro.simulate.resources.Resource`;
- device service times are drawn at the grant hop in grant order — the heap
  tier by calling the real device model's ``service_time``, the columnar
  tier with bitwise-identical vectorized draws — so per-device RNG streams
  advance exactly as the general path would consume them;
- utilization accumulates per resource in closure order, seeded with the
  live monitor's total, preserving float-summation order.

The result — completion times, busy times, byte counters, RNG states,
checksum tag tables — is therefore byte-identical to spawning one process
per request.

Replication and integrity compose with the replay instead of forcing the
general path: mirror writes are ordinary jobs in the flat table (placed by
:meth:`ParallelFileSystem.replica_target`, extent-allocated in the same
first-touch order), and CRC bookkeeping commits from the flat arrays after
the timing replay (tag stamping is idempotent and order-independent, and
with no poisoned stripe units a verification can neither mismatch nor
alter timing). A filesystem with *poisoned* units falls back, since reads
could then raise mid-flight.

**Closed loop.** A batch with a ``ranks`` column describes a rank program —
start barrier, each rank keeping at most ``depth`` of its own requests in
flight (MPI_Wait on the oldest), end barrier — rather than an open-loop
submission. The event-heap tier replays it with one extra rule: a request
completion pushes the zero-delay hops the general path takes before the
rank issues again (:class:`_Windows`), so arrivals follow completions hop
for hop. Dispatch order, and with it extent first-touch order, is then only
known as the replay runs, so extent bases are allocated lazily at the
dispatch hop. The columnar tier declines closed-loop batches.

Because the replay assumes undisturbed FIFO service, it must only run when
the simulation is *quiescent* and no resilience machinery can fire:
:func:`fast_path_blocker` encodes that eligibility matrix and returns the
reason the batch must take the general path (or ``None`` when the fast path
is exact). :meth:`repro.pfs.filesystem.PFSFile.request_batch` consults it
on every submission and falls back transparently.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.devices.base import OpType
from repro.network.link import ContendedNetworkModel, NetworkModel
from repro.pfs import columnar
from repro.simulate.resources import Resource

__all__ = ["FlatPresplit", "fast_path_blocker", "replay_batch"]

# Event kinds of the unified replay heap. Each corresponds to one schedule
# point of the general path (see module docstring); the integer values are
# only identities, never compared (the heap orders by (time, seq)).
_ARRIVE = 0  # request bootstrap / issue-delay timeout maturing
_MDS_GRANT = 1  # MDS service slot grant firing
_MDS_EXIT = 2  # MDS lookup service timeout maturing
_SPAWN = 3  # sub-request process bootstrap
_NIC_GRANT = 4  # NIC flow slot grant firing
_NIC_DONE = 5  # NIC transfer timeout maturing
_DISK_GRANT = 6  # disk slot grant firing
_DISK_DONE = 7  # disk service timeout maturing
_HOP = 8  # closed loop: one zero-delay hop between a completion and its rank resuming
_DELAY = 9  # closed loop: a sharded consult's ring-hop timer


@dataclass
class FlatPresplit:
    """A batch's striping decomposition as flat sub-request columns.

    One entry per sub-request, ordered by (request, segment, server) —
    exactly the order the general path materializes them. ``offset`` is
    relative to the (region, server) extent; ``server`` is the striping
    config's server id (physical id once no server map is active, which
    the fast path guarantees). Produced by
    :meth:`repro.pfs.filesystem.PFSFile._presplit_flat`.
    """

    req: np.ndarray  # int64 request index
    server: np.ndarray  # int64 striping-config server id
    offset: np.ndarray  # int64 offset within the (region, server) extent
    size: np.ndarray  # int64 bytes
    region: np.ndarray  # int64 region id (extent namespace key)


@dataclass
class _JobSet:
    """Fully materialized jobs of one replay, in MDS-dispatch order.

    Replica mirror writes are expanded into ordinary jobs (each right after
    its primary, matching the general path's spawn order) and ``offset`` is
    physical (extent base applied). Requests stay contiguous.

    With lazy extents (closed loop), ``offset`` is extent-relative until the
    replay has filled ``extent_bases`` (one slot per distinct extent,
    ``-1`` until first touched; ``extent_args`` are its ``_extent_base``
    arguments and ``extent_key`` maps each job to its slot) and
    :meth:`apply_extents` has run.
    """

    req: np.ndarray  # int64 batch index
    server: np.ndarray  # int64 physical server id
    offset: np.ndarray  # int64 physical offset
    size: np.ndarray  # int64 bytes
    is_write: np.ndarray  # bool
    n_mirror: int  # how many jobs are replica mirror writes
    extent_key: np.ndarray | None = None
    extent_args: list | None = None
    extent_bases: list | None = None

    def apply_extents(self) -> None:
        """Make lazily based offsets physical once every extent is allocated."""
        if self.extent_bases is not None and self.offset.shape[0]:
            bases = np.asarray(self.extent_bases, dtype=np.int64)
            self.offset = self.offset + bases[self.extent_key]


class _ServerReplay:
    """Shadow FIFO state of one :class:`FileServer` during a heap replay.

    Mirrors ``Resource`` semantics: grants are issued synchronously (state
    updated at issue time), the grant *fire* is the heap tuple. Busy time
    accumulates per closed interval onto a copy of the live monitor's
    total — the general path's ``+=`` sequence, bit for bit — and is written
    back at the end of the replay.
    """

    __slots__ = (
        "server",
        "service_time",
        "transfer_time",
        "nic_cap",
        "nic_in_use",
        "nic_queue",
        "nic_since",
        "nic_busy",
        "nic_granted",
        "disk_in_use",
        "disk_queue",
        "disk_since",
        "disk_busy",
        "disk_granted",
        "bytes_served",
        "subrequests",
    )

    def __init__(self, server):
        self.server = server
        self.service_time = server.device.service_time
        self.transfer_time = server.network.transfer_time
        self.nic_cap = server.nic.capacity
        self.nic_in_use = 0
        self.nic_queue = deque()
        self.nic_since = 0.0
        self.nic_busy = server.nic.monitor.busy_time
        self.nic_granted = 0
        self.disk_in_use = 0
        self.disk_queue = deque()
        self.disk_since = 0.0
        self.disk_busy = server.disk.monitor.busy_time
        self.disk_granted = 0
        self.bytes_served = 0
        self.subrequests = 0


class _Windows:
    """Per-rank issue windows of a closed-loop replay.

    Mirrors ``IORWorkload.rank_program``: after the start barrier a rank
    issues requests until ``depth`` are in flight, then waits on its oldest
    (MPI_Wait); once all are issued it waits on the rest in order. A
    request that completed lets its rank go on only after the zero-delay
    hops the general path takes from the last sub-request's service end:
    the sub-request process exits and the request's ``AllOf`` fires — at
    depth 1 the rank serves inline (``serve_inline``) and its next consult
    starts at that ``AllOf`` hop; deeper windows run each request as its
    own process (``iread_at``/``iwrite_at``), whose exit is one more hop,
    and each newly issued request starts one bootstrap hop later. So a
    completion pushes ``hops`` ``_HOP`` tuples, and the last one's pop runs
    :meth:`resume`, which hands back the issued requests' consult-start
    tuples. ``delays`` (sharded cluster) puts a ring-hop timer (``_DELAY``)
    in front of each consult that needs one, numbered in consult order.
    """

    __slots__ = (
        "depth",
        "hops",
        "rank_of",
        "next",
        "end",
        "oldest",
        "waiting",
        "done",
        "started",
        "delays",
        "consults",
    )

    def __init__(self, batch, t0: float, delays: list | None):
        ranks = batch.ranks
        n = len(batch)
        starts = np.flatnonzero(np.concatenate(([True], ranks[1:] != ranks[:-1])))
        ends = np.append(starts[1:], n)
        self.depth = batch.depth
        self.hops = 1 if batch.depth == 1 else 3
        self.rank_of = np.repeat(np.arange(starts.shape[0]), ends - starts).tolist()
        self.next = starts.tolist()  # next request each rank issues
        self.end = ends.tolist()
        self.oldest = starts.tolist()  # next request each rank waits on
        self.waiting = [-1] * starts.shape[0]  # request each rank waits on
        self.done = [False] * n  # request process exit has fired
        self.started = [t0] * n  # consult-start instants
        self.delays = delays
        self.consults = 0

    def start(self, t: float) -> list:
        """Consult-start tuples of the first wave, released at ``t`` in rank order.

        They are all due at ``t`` in sequence order, so the list is a heap.
        """
        entries = []
        for r in range(len(self.next)):
            entries += self._advance(r, t, len(entries), stamp=False)
        return entries

    def resume(self, i: int, t: float, seq: int) -> list:
        """Request ``i``'s exit fired at ``t``: resume its rank if it waited on ``i``."""
        self.done[i] = True
        r = self.rank_of[i]
        if self.waiting[r] != i:
            return []
        return self._advance(r, t, seq, stamp=True)

    def _advance(self, r: int, t: float, seq: int, stamp: bool) -> list:
        k, end, w = self.next[r], self.end[r], self.oldest[r]
        depth, done, delays = self.depth, self.done, self.delays
        entries = []
        while True:
            if k < end:
                if stamp:
                    self.started[k] = t
                dly = 0.0
                if delays is not None:
                    dly = delays[self.consults]
                    self.consults += 1
                if dly:
                    entries.append((t, seq, _DELAY, (k, dly)))
                else:
                    entries.append((t, seq, _ARRIVE, k))
                seq += 1
                k += 1
                if k - w < depth:
                    continue  # window not full: issue the next one too
            if w == end:  # waited on everything: at the end barrier
                self.waiting[r] = -1
                break
            w += 1
            if not done[w - 1]:
                self.waiting[r] = w - 1
                break
        self.next[r], self.oldest[r] = k, w
        return entries


def fast_path_blocker(handle, batch=None) -> str | None:
    """Why ``handle`` cannot take the batched fast path right now, or None.

    The replay is exact only when the simulation is quiescent (nothing else
    scheduled or running — this also excludes installed fault injectors,
    whose timer processes sit on the heap from installation) and every
    component is in its plain, undisturbed configuration: FIFO resources
    with no holders, waiters, or stall windows; no retry/failover policies;
    no degraded routing or server maps; stateless network models; tracing
    off. Replication and checksumming do *not* block — mirror writes and
    CRC bookkeeping replay exactly — unless corruption faults have poisoned
    stripe units, in which case a read could raise mid-flight and the full
    repair machinery must run.

    A sharded :class:`~repro.pfs.mds_cluster.MetadataCluster` replays as
    long as the ring is whole and calm: no armed crash interrupts, every
    shard alive with an idle plain service queue, and no entry-time tie
    whose general-path order would depend on event sequence numbers (the
    per-batch analysis of :func:`_plan_mds`, which needs ``batch``). The
    client-side metadata cache likewise replays in closed form via the
    plan. Anything else returns a short reason string used both for the
    fallback decision and the ``pfs.batch.fallback.*`` counters.
    """
    pfs = handle.pfs
    sim = pfs.sim
    if sim.tracer is not None:
        return "tracing"
    if sim._active_process is not None or sim._heap:
        return "simulator-busy"
    if handle.retry is not None or pfs.retry is not None:
        return "retry-policy"
    if handle.hedge is not None:
        return "hedged-reads"
    if handle.server_map is not None:
        return "server-map"
    if pfs.health.route_map is not None:
        return "degraded-routing"
    if pfs.rebuild is not None or pfs.replica_overrides:
        # A rebuild manager's failure hooks (and any committed placement
        # overrides) change replica addressing mid-flight; only the general
        # path resolves them.
        return "rebuild"
    if pfs.write_quorum is not None and handle.layout.max_replicas() > 1:
        # Quorum-acknowledged writes detach trailing mirrors from the ack;
        # the closed-form replay assumes fully synchronous mirroring.
        return "write-quorum"
    integrity = pfs.integrity
    if integrity is not None and integrity.units_poisoned > 0:
        return "integrity-poisoned"
    mds = pfs.mds
    sharded = hasattr(mds, "crash_shard")
    if sharded:
        # Armed injectors also imply a non-empty heap (caught above); the
        # flag check is defense in depth against manual arming.
        if mds._interruptible:
            return "mds-interruptible"
        if not all(mds.health.alive):
            return "mds-degraded"
        if len(mds.ring) != mds.n_shards:
            return "mds-ring-changed"
        for shard in mds.shards:
            service = shard._service
            if service is None:
                if shard.lookup_time(handle.layout.region_count()) > 0:
                    return "mds-detached"
            elif type(service) is not Resource:
                return "custom-mds"
            elif service._held or service._in_use or service._queue:
                return "mds-busy"
        if batch is None:
            return "mds-cluster"
    else:
        service = mds._service
        if service is None:
            if mds.lookup_time(handle.layout.region_count()) > 0:
                return "mds-detached"
        else:
            if type(service) is not Resource:
                return "custom-mds"
            if service._held or service._in_use or service._queue:
                return "mds-busy"
        if pfs.mds_cache is not None and batch is None:
            return "mds-cache"
    if batch is not None and (sharded or pfs.mds_cache is not None):
        t0 = sim.now
        arrival_times, arrival_order = _arrivals(batch, t0)
        _, reason = _plan_mds(handle, batch, t0, arrival_times, arrival_order)
        if reason is not None:
            return reason
    for server in pfs.servers:
        reason = server.fast_batch_blocker()
        if reason is not None:
            return reason
        if type(server.network) not in (NetworkModel, ContendedNetworkModel):
            return "custom-network"
    return None


def _arrivals(batch, t0: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-request arrival instants and arrival-order permutation.

    The general path spawns one process per request in batch order; a
    request with a non-zero issue delay yields one timeout before
    consulting the MDS. Hence arrival *ties* at ``t0`` resolve with all
    zero-delay requests (bootstrap hop only) ahead of all delayed ones
    (timeout hop), each group in batch order. ``None`` for the order means
    batch order (untimed batch). A closed-loop batch has no arrival
    schedule — its requests arrive as earlier ones complete — and gets
    ``(None, None)``.
    """
    if batch.ranks is not None:
        return None, None
    n = len(batch)
    issue = batch.issue_times
    if issue is None:
        return np.full(n, t0, dtype=np.float64), None
    arrival_times = t0 + issue
    immediate = np.flatnonzero(issue == 0.0)
    delayed = np.flatnonzero(issue != 0.0)
    arrival_order = np.concatenate(
        (immediate, delayed[np.argsort(arrival_times[delayed], kind="stable")])
    )
    return arrival_times, arrival_order


@dataclass
class _MdsPlan:
    """Closed-form MDS stage of one batched replay.

    Produced by :func:`_plan_mds` (pure analysis, no state change) and
    consumed by both replay tiers for timing and by :func:`_commit_mds`
    for the timing-independent counters. ``mode``:

    - ``"queue"``: every request performs a real consult — FIFO service at
      ``service`` (the owner shard's under a sharded cluster) entered at
      per-request instants (arrival plus ring-hop delay), exiting — and
      dispatching sub-requests — in ``entry_order``;
    - ``"fill"``: client cache miss — the first arrival leads one real
      consult, arrivals strictly before its fill instant coalesce onto it,
      later arrivals hit the filled entry; nobody else touches the MDS;
    - ``"hit"``: the cache already holds a current-generation entry —
      every request spawns at its own arrival, zero MDS load;
    - ``"empty"``: zero-request batch, nothing to do.

    A closed-loop batch has no arrival schedule, so its plan leaves the
    per-request instants and orders ``None``: ``release`` is when its first
    wave (each rank's first window) enters the MDS stage — or, in fill
    mode, spawns — and ``entry_delays`` gives each consult's ring-hop delay
    in consult order under a sharded cluster.
    """

    mode: str
    lookup: float = 0.0
    service: object = None
    #: "queue": absolute MDS-entry instants (batch order) and the batch
    #: indices in entry order (None = batch order).
    entry_times: np.ndarray | None = None
    entry_order: np.ndarray | None = None
    #: "fill"/"hit": absolute sub-request spawn instants, batch order.
    spawn_times: np.ndarray | None = None
    #: Permutation for :func:`_materialize`'s first-touch extent order
    #: (None = batch order).
    dispatch_order: np.ndarray | None = None
    cluster: object = None
    owner: object = None
    hops_total: int = 0
    hops_max: int = 0
    #: "fill": the leader's single busy interval (release - grant), kept as
    #: the exact float difference the live monitor would accumulate.
    leader_busy: float = 0.0
    n_consults: int = 0
    n_coalesced: int = 0
    n_hits: int = 0
    release: float = 0.0
    entry_delays: list | None = None


def _plan_mds(
    handle, batch, t0: float, arrival_times, arrival_order
) -> tuple["_MdsPlan | None", str | None]:
    """Plan the batch's MDS stage: ``(plan, None)`` or ``(None, reason)``.

    Mutates nothing, so :func:`fast_path_blocker` calls it to pre-flight
    the tie classes whose general-path order would depend on event
    sequence numbers, and :func:`replay_batch` calls it again (on the
    unchanged quiescent state) to drive the replay.

    Closed-loop batches (``arrival_times`` None) never bail: the heap replay
    runs their ring-hop timers as real heap entries, and every request
    after the first wave arrives behind a completion — strictly after any
    cache fill, since serving a sub-request takes positive time.
    """
    pfs = handle.pfs
    mds = pfs.mds
    n = len(batch)
    if n == 0:
        return _MdsPlan(mode="empty"), None
    closed = arrival_times is None
    cluster = mds if hasattr(mds, "crash_shard") else None
    lookup = mds.lookup_time(handle.layout.region_count())
    cache = pfs.mds_cache
    if cache is not None:
        if cache.is_valid(handle):
            return (
                _MdsPlan(
                    mode="hit",
                    spawn_times=None if closed else arrival_times.copy(),
                    dispatch_order=arrival_order,
                    n_hits=n,
                    release=t0,
                ),
                None,
            )
        # Miss: the first arrival leads the one real consult; it finds the
        # (idle, the blocker's guarantee) service immediately.
        leader = int(arrival_order[0]) if arrival_order is not None else 0
        t_arrive = t0 if closed else float(arrival_times[leader])
        leader_hops = 0
        owner = None
        service = mds._service if cluster is None else None
        if cluster is not None:
            members = cluster.ring.members()
            entry = members[cluster._consult_seq % len(members)]
            leader_hops, home = cluster.ring.route(entry, handle.name, cluster.routing)
            owner = cluster.shards[home]
            service = owner._service
        t_enter = t_arrive
        if cluster is not None and leader_hops and cluster.hop_latency > 0:
            t_enter = t_enter + leader_hops * cluster.hop_latency
        t_fill = t_enter + lookup if lookup > 0 else t_enter
        if closed:
            # The rest of the first wave looks the file up at t0 right behind
            # the leader: it coalesces onto the fill, or — when the leader's
            # consult returned inline (t_fill == t0) — already hits.
            wave = _first_wave(batch)
            n_coalesced = wave - 1 if t_fill > t0 else 0
            spawn_times = None
            n_hits = n - 1 - n_coalesced
        else:
            # An arrival at exactly the fill instant resolves by event
            # sequence numbers (hit vs. coalesced wait) — not replayed
            # arithmetically.
            ties = int(np.count_nonzero(arrival_times == t_fill))
            if t_fill == t_arrive:
                ties -= 1  # the leader itself (zero-cost consult)
            if ties:
                return None, "mds-fill-tie"
            n_coalesced = int(np.count_nonzero(arrival_times < t_fill))
            if t_arrive < t_fill:
                n_coalesced -= 1
            spawn_times = np.where(arrival_times > t_fill, arrival_times, t_fill)
            n_hits = int(np.count_nonzero(arrival_times > t_fill))
        return (
            _MdsPlan(
                mode="fill",
                lookup=lookup,
                service=service,
                spawn_times=spawn_times,
                dispatch_order=arrival_order,
                cluster=cluster,
                owner=owner,
                hops_total=leader_hops,
                hops_max=leader_hops,
                leader_busy=t_fill - t_enter,
                n_consults=1,
                n_coalesced=n_coalesced,
                n_hits=n_hits,
                release=t_fill,
            ),
            None,
        )
    if cluster is None:
        return (
            _MdsPlan(
                mode="queue",
                lookup=lookup,
                service=mds._service,
                entry_times=arrival_times,
                entry_order=arrival_order,
                dispatch_order=arrival_order,
                n_consults=n,
                release=t0,
            ),
            None,
        )
    # Uncached sharded cluster: entry shards rotate with the consult
    # sequence number (assigned in arrival order), and each request pays
    # its ring walk before queueing at the owner — so MDS entry order is
    # arrival order shifted by per-request hop delays.
    key = handle.name
    members = cluster.ring.members()
    hops_m = np.fromiter(
        (cluster.ring.route(member, key, cluster.routing)[0] for member in members),
        dtype=np.int64,
        count=len(members),
    )
    owner = cluster.shards[cluster.ring.owner_of(key)]
    ranks = (cluster._consult_seq + np.arange(n, dtype=np.int64)) % len(members)
    hops_by_rank = hops_m[ranks]
    hops_max = int(hops_by_rank.max())
    entry_times = arrival_times
    entry_order = arrival_order
    entry_delays = None
    if cluster.hop_latency > 0 and hops_max > 0:
        delay = hops_by_rank * cluster.hop_latency
        if closed:
            # Consults are numbered as they start, so the k-th consult's
            # delay is known; when it starts is up to the replay.
            entry_delays = delay.tolist()
        elif arrival_order is None:
            # Untimed batch: hop timers are all scheduled at t0 in batch
            # order, so equal entry instants resolve in batch order — which
            # is exactly what a stable sort preserves.
            entry_times = arrival_times + delay
            entry_order = np.argsort(entry_times, kind="stable")
        else:
            delay_batch = np.empty(n, dtype=np.float64)
            delay_batch[arrival_order] = delay
            entry_times = arrival_times + delay_batch
            # With staggered arrivals, hop timers are scheduled at each
            # request's own arrival, so equal post-t0 entry instants can
            # resolve by sequence numbers the closed form cannot always
            # reproduce. (Ties at t0 are the zero-hop immediates, which
            # enter inline in batch order — safe.)
            late = entry_times[entry_times > t0]
            if late.shape[0] > 1 and np.unique(late).shape[0] != late.shape[0]:
                return None, "mds-entry-tie"
            entry_order = arrival_order[
                np.argsort(entry_times[arrival_order], kind="stable")
            ]
    return (
        _MdsPlan(
            mode="queue",
            lookup=lookup,
            service=owner._service,
            entry_times=entry_times,
            entry_order=entry_order,
            dispatch_order=entry_order,
            cluster=cluster,
            owner=owner,
            hops_total=int(hops_by_rank.sum()),
            hops_max=hops_max,
            n_consults=n,
            release=t0,
            entry_delays=entry_delays,
        ),
        None,
    )


def _first_wave(batch) -> int:
    """How many requests a closed-loop batch issues at its start barrier."""
    _, counts = np.unique(batch.ranks, return_counts=True)
    return int(np.minimum(counts, batch.depth).sum())


def _commit_mds(pfs, handle, plan: _MdsPlan) -> None:
    """Apply a plan's timing-independent MDS/cache counters after a replay."""
    if plan.mode == "empty":
        return
    cluster = plan.cluster
    if plan.n_consults:
        pfs.mds.lookup_count += plan.n_consults
        if cluster is not None:
            cluster._consult_seq += plan.n_consults
            cluster.hops_total += plan.hops_total
            if plan.hops_max > cluster.hops_max:
                cluster.hops_max = plan.hops_max
            plan.owner.lookup_count += plan.n_consults
    cache = pfs.mds_cache
    if plan.mode == "fill":
        if plan.lookup > 0:
            # The leader's lone grant: one busy interval, one grant count.
            plan.service.monitor.busy_time += plan.leader_busy
            plan.service.granted_count += 1
        cache.misses += 1
        cache.coalesced += plan.n_coalesced
        cache.fill(handle)
    if plan.mode in ("fill", "hit"):
        cache.hits += plan.n_hits
        cache.audit_many(handle, plan.n_hits)


def replay_batch(handle, batch, flat: FlatPresplit) -> tuple[np.ndarray, float, int, bool]:
    """Serve ``batch`` on ``handle`` arithmetically; see module docstring.

    Args:
        handle: the :class:`~repro.pfs.filesystem.PFSFile` being driven.
        batch: the :class:`~repro.pfs.batch.RequestBatch` to serve.
        flat: the handle's flat presplit (layout snapshot at submission).

    Returns:
        ``(elapsed, t_end, n_subrequests, used_columnar)`` — per-request
        elapsed seconds in batch order, the simulated completion time of
        the whole batch, the number of sub-requests served (replica mirrors
        included), and whether the columnar tier handled it.

    Caller must have verified :func:`fast_path_blocker` returned None; the
    replay itself does not re-check and would silently diverge otherwise.
    """
    pfs = handle.pfs
    sim = pfs.sim
    t0 = sim.now
    n = len(batch)

    arrival_times, arrival_order = _arrivals(batch, t0)
    # MDS service is FIFO with one uniform service time per batch, so
    # requests *exit* the MDS — and first-touch their extents — in the
    # plan's dispatch order (MDS entry order: arrival order shifted by any
    # sharded ring-hop delays; plain arrival order for cache hits/fills).
    plan, reason = _plan_mds(handle, batch, t0, arrival_times, arrival_order)
    if plan is None:
        raise RuntimeError(f"replay_batch without fast-path pre-flight: {reason}")

    # Closed loop: the rank windows drive arrivals, and extents are based
    # lazily, in the dispatch order the replay discovers.
    windows = None if batch.ranks is None else _Windows(batch, t0, plan.entry_delays)
    jobs = _materialize(
        handle, batch, flat, plan.dispatch_order, lazy_extents=windows is not None
    )

    completion = None
    used_columnar = False
    single = batch.single_op
    if single is not None and columnar.eligible(pfs, batch):
        completion = columnar.replay_columnar(
            pfs, handle, jobs, single is OpType.READ, plan
        )
        used_columnar = completion is not None
    if completion is None:
        completion = _replay_heap(pfs, handle, batch, jobs, plan, windows)
    if windows is not None:
        arrival_times = np.asarray(windows.started, dtype=np.float64)

    # Shared (timing-independent) commits.
    jobs.apply_extents()
    _commit_mds(pfs, handle, plan)
    if jobs.n_mirror:
        pfs.integrity.mirrored_writes += jobs.n_mirror
    _commit_integrity(pfs, jobs)
    if n:
        is_read_col = batch.is_read
        read_bytes = int(batch.sizes[is_read_col].sum())
        handle.bytes_read += read_bytes
        handle.bytes_written += batch.total_bytes - read_bytes
        t_end = float(completion.max())
    else:
        t_end = t0
    return completion - arrival_times, t_end, int(jobs.req.shape[0]), used_columnar


def _materialize(
    handle, batch, flat: FlatPresplit, dispatch_order, lazy_extents: bool = False
) -> _JobSet:
    """Expand a flat presplit into the replay's physical job table.

    Reorders sub-requests into MDS-dispatch order (the order requests exit
    the MDS stage and spawn their subs; ``None`` = batch order),
    interleaves replica mirror writes after their primaries, retargets
    them via :meth:`ParallelFileSystem.replica_target`, and assigns extent
    bases in first-occurrence order — the exact ``_extent_base`` call
    sequence the general path would issue, so first-touch allocation
    matches. With ``lazy_extents`` (dispatch order unknown up front) the
    bases are left for the replay to allocate; see :class:`_JobSet`.
    """
    pfs = handle.pfs
    req = flat.req
    server = flat.server
    offset = flat.offset
    size = flat.size
    region = flat.region
    n = len(batch)
    n_jobs = req.shape[0]

    if dispatch_order is not None and n_jobs:
        rank = np.empty(n, dtype=np.int64)
        rank[dispatch_order] = np.arange(n, dtype=np.int64)
        perm = np.argsort(rank[req], kind="stable")
        req = req[perm]
        server = server[perm]
        offset = offset[perm]
        size = size[perm]
        region = region[perm]

    is_write = (
        ~batch.is_read[req] if n_jobs else np.zeros(0, dtype=bool)
    )

    # Replica expansion: one extra write job per (mirror copy, write sub),
    # immediately after its primary — the general path's spawn order.
    n_mirror = 0
    copy_no = None
    if handle._replicated and n_jobs:
        layout = handle.layout
        regs = np.unique(region)
        rcounts = np.asarray(
            [layout.replica_count(int(r)) for r in regs.tolist()], dtype=np.int64
        )
        copies = rcounts[np.searchsorted(regs, region)]
        copies = np.where(is_write, copies, 1)
        if (copies > 1).any():
            idx = np.repeat(np.arange(n_jobs, dtype=np.int64), copies)
            first = (np.cumsum(copies) - copies)[idx]
            copy_no = np.arange(idx.shape[0], dtype=np.int64) - first
            req = req[idx]
            offset = offset[idx]
            size = size[idx]
            region = region[idx]
            is_write = is_write[idx]
            server = server[idx]
            n_mirror = int((copy_no > 0).sum())
            mult = int(copy_no.max()) + 1
            key = server * mult + copy_no
            uniq, inv = np.unique(key, return_inverse=True)
            targets = np.empty(uniq.shape[0], dtype=np.int64)
            for u, packed in enumerate(uniq.tolist()):
                sid, copy = divmod(packed, mult)
                targets[u] = sid if copy == 0 else pfs.replica_target(sid, copy)
            server = targets[inv]
            n_jobs = req.shape[0]

    # Extent bases, allocated in first-occurrence (= materialization) order.
    extent_key = extent_args = extent_bases = None
    if n_jobs:
        copy_vals = (
            copy_no if copy_no is not None else np.zeros(n_jobs, dtype=np.int64)
        )
        region_span = int(region.max()) + 1
        key = (copy_vals * region_span + region) * pfs.n_servers + server
        uniq, first_at, inv = np.unique(key, return_index=True, return_inverse=True)
        extent_ns = f"{handle.name}#g{handle.layout_generation}"
        args = []
        for j in first_at.tolist():
            copy = int(copy_vals[j])
            ns = extent_ns if copy == 0 else f"{extent_ns}~r{copy}"
            args.append((ns, int(region[j]), int(server[j])))
        if lazy_extents:
            extent_key, extent_args, extent_bases = inv.reshape(-1), args, [-1] * len(args)
        else:
            bases = np.empty(uniq.shape[0], dtype=np.int64)
            extent_base = pfs._extent_base
            for u in np.argsort(first_at, kind="stable").tolist():
                bases[u] = extent_base(*args[u])
            offset = offset + bases[inv]

    return _JobSet(
        req=req,
        server=server,
        offset=offset,
        size=size,
        is_write=is_write,
        n_mirror=n_mirror,
        extent_key=extent_key,
        extent_args=extent_args,
        extent_bases=extent_bases,
    )


def _commit_integrity(pfs, jobs: _JobSet) -> None:
    """Apply a replay's CRC bookkeeping from the flat job table.

    Exact because with no poisoned stripe units (the fast path guarantee)
    checksum state never feeds back into timing or control flow during the
    replay: writes stamp clean tags (idempotent, order-independent — the
    tag of a block is a pure function of its identity) and reads count one
    verification each, finding nothing. Runs after either replay tier.
    """
    if pfs.integrity is None or not jobs.req.shape[0]:
        return
    acct = pfs.integrity
    servers = pfs.servers
    order = np.argsort(jobs.server, kind="stable")
    sorted_server = jobs.server[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_server[1:] != sorted_server[:-1]))
    )
    stops = np.concatenate((starts[1:], [sorted_server.shape[0]]))
    for a, b in zip(starts.tolist(), stops.tolist()):
        checks = servers[int(sorted_server[a])].checksums
        if checks is None:
            continue
        idx = order[a:b]
        write_mask = jobs.is_write[idx]
        acct.checks += int((~write_mask).sum())
        if write_mask.any():
            widx = idx[write_mask]
            block_size = checks.block_size
            first = jobs.offset[widx] // block_size
            counts = (jobs.offset[widx] + jobs.size[widx] - 1) // block_size - first + 1
            blocks = np.repeat(first, counts) + (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts)
            )
            tags = checks._tags
            expected = checks._expected
            for block in np.unique(blocks).tolist():
                tags[block] = expected(block)


class _LazyJobs:
    """Closed loop: per-request job lists built at the dispatch hop.

    Indexing by request returns a generator that the dispatch hop iterates:
    it builds the job tuples only then and allocates extents on first touch
    — the general path's ``_extent_base`` call order, discovered as the
    replay runs. Nothing per job is held before its request dispatches,
    which keeps the replay's memory near the rank programs' own.
    """

    __slots__ = ("starts", "states", "columns", "bases", "args", "extent_base")

    def __init__(self, jobs: _JobSet, counts: np.ndarray, states: dict, extent_base):
        self.starts = np.concatenate(([0], np.cumsum(counts))).tolist()
        self.states = states
        self.columns = (
            jobs.server.tolist(),
            jobs.is_write.tolist(),
            jobs.offset.tolist(),
            jobs.size.tolist(),
            jobs.extent_key.tolist(),
        )
        self.bases = jobs.extent_bases
        self.args = jobs.extent_args
        self.extent_base = extent_base

    def __getitem__(self, i: int):
        server, is_write, offset, size, key = self.columns
        bases = self.bases
        states = self.states
        for k in range(self.starts[i], self.starts[i + 1]):
            slot = key[k]
            base = bases[slot]
            if base < 0:
                base = bases[slot] = self.extent_base(*self.args[slot])
            write = is_write[k]
            yield (
                states[server[k]],
                write,
                OpType.WRITE if write else OpType.READ,
                offset[k] + base,
                size[k],
                i,
            )


def _replay_heap(
    pfs, handle, batch, jobs: _JobSet, plan: _MdsPlan, windows: _Windows | None = None
) -> np.ndarray:
    """Event-heap tier: replay the materialized jobs tuple by tuple.

    Exact for any batch shape the blocker admits (mixed ops, varying NIC
    service at capacity > 1, schedules with grant/departure ties — all the
    cases the columnar tier bails on). The MDS stage comes pre-analyzed in
    ``plan``: queue mode feeds the shadow FIFO at the planned entry
    instants; fill/hit modes skip the shadow MDS entirely and spawn each
    request's sub-jobs at its planned spawn instant. Commits resource
    monitors/counters; returns absolute per-request completion times in
    batch order.

    ``windows`` (closed loop) replaces the planned instants: the first wave
    enters at ``plan.release`` and every later request when its rank's
    window frees up, after the completion hops ``windows`` accounts for.
    """
    n = len(batch)
    is_read_col = batch.is_read
    read_op = OpType.READ
    write_op = OpType.WRITE

    if plan.mode == "queue":
        lookup = plan.lookup
        mds_enabled = lookup > 0
        service = plan.service
        mds_cap = service.capacity if service is not None else 0
        entry_t = plan.entry_times
        order = plan.entry_order
    else:
        lookup = 0.0
        mds_enabled = False
        service = None
        mds_cap = 0
        entry_t = plan.spawn_times
        order = plan.dispatch_order
    if n == 0 or windows is not None:
        entry_t = np.zeros(n, dtype=np.float64)

    # ``entry_t[order]`` is nondecreasing, so the tuple list is already a
    # valid heap; the rank doubles as the tie-breaking sequence number,
    # reproducing the general path's same-instant resume order.
    hops = 0
    if windows is not None:  # closed loop: the start barrier's first wave
        heap = windows.start(plan.release)
        hops = windows.hops
    elif order is None:
        times = entry_t.tolist()
        heap = [(times[k], k, _ARRIVE, k) for k in range(n)]
    else:
        times = entry_t[order].tolist()
        heap = [
            (times[r], r, _ARRIVE, int(i)) for r, i in enumerate(order.tolist())
        ]

    states: dict[int, _ServerReplay] = {}
    servers = pfs.servers
    completion = entry_t.copy()
    if jobs.extent_bases is not None:
        counts = np.bincount(jobs.req, minlength=n)
        if n and not counts.min():
            raise RuntimeError("closed-loop replay of a request with no sub-requests")
        for sid in np.unique(jobs.server).tolist():
            states[sid] = _ServerReplay(servers[sid])
        jobs_by_request = _LazyJobs(jobs, counts, states, pfs._extent_base)
        remaining = counts.tolist()
    else:
        # Build per-request job lists from the flat table (requests are
        # contiguous in it, in dispatch order).
        jobs_by_request: list[list | None] = [None] * n
        req_list = jobs.req.tolist()
        server_list = jobs.server.tolist()
        offset_list = jobs.offset.tolist()
        size_list = jobs.size.tolist()
        write_list = jobs.is_write.tolist()
        current: list | None = None
        prev_req = -1
        for k in range(len(req_list)):
            i = req_list[k]
            if i != prev_req:
                current = jobs_by_request[i] = []
                prev_req = i
            sid = server_list[k]
            ss = states.get(sid)
            if ss is None:
                ss = states[sid] = _ServerReplay(servers[sid])
            is_write = write_list[k]
            # job = (server state, is_write, op, physical offset, size,
            #        batch index)
            current.append(
                (ss, is_write, write_op if is_write else read_op, offset_list[k], size_list[k], i)
            )
        for i in range(n):
            if jobs_by_request[i] is None:
                jobs_by_request[i] = []
        remaining = [len(job_list) for job_list in jobs_by_request]

    # Shadow MDS service state (same Resource semantics as the servers').
    m_in_use = 0
    m_queue: deque = deque()
    m_since = 0.0
    m_busy = service.monitor.busy_time if service is not None else 0.0
    m_granted = 0

    seq = len(heap)
    push = heapq.heappush
    pop = heapq.heappop

    while heap:
        t, _, kind, payload = pop(heap)
        if kind == _NIC_GRANT:
            # The waiter resumes: compute the transfer and schedule its end.
            push(heap, (t + payload[0].transfer_time(payload[4]), seq, _NIC_DONE, payload))
            seq += 1
        elif kind == _DISK_GRANT:
            # Resume hop: the device RNG advances here, matching the order
            # the general path's generator would consume it.
            push(
                heap,
                (t + payload[0].service_time(payload[2], payload[3], payload[4]), seq, _DISK_DONE, payload),
            )
            seq += 1
        elif kind == _NIC_DONE:
            ss = payload[0]
            ss.nic_in_use -= 1
            if ss.nic_in_use == 0:
                ss.nic_busy += t - ss.nic_since
            if ss.nic_queue:
                waiter = ss.nic_queue.popleft()
                if ss.nic_in_use == 0:
                    ss.nic_since = t
                ss.nic_in_use += 1
                ss.nic_granted += 1
                push(heap, (t, seq, _NIC_GRANT, waiter))
                seq += 1
            if payload[1]:  # write: disk stage next
                if ss.disk_in_use or ss.disk_queue:
                    ss.disk_queue.append(payload)
                else:
                    ss.disk_in_use = 1
                    ss.disk_granted += 1
                    ss.disk_since = t
                    push(heap, (t, seq, _DISK_GRANT, payload))
                    seq += 1
            else:  # read: payload delivered, sub-request complete
                ss.bytes_served += payload[4]
                ss.subrequests += 1
                i = payload[5]
                remaining[i] -= 1
                if not remaining[i]:
                    completion[i] = t
                    if hops:
                        push(heap, (t, seq, _HOP, (i, hops)))
                        seq += 1
        elif kind == _DISK_DONE:
            ss = payload[0]
            ss.disk_in_use = 0
            ss.disk_busy += t - ss.disk_since
            if ss.disk_queue:
                waiter = ss.disk_queue.popleft()
                ss.disk_since = t
                ss.disk_in_use = 1
                ss.disk_granted += 1
                push(heap, (t, seq, _DISK_GRANT, waiter))
                seq += 1
            if payload[1]:  # write: persisted, sub-request complete
                ss.bytes_served += payload[4]
                ss.subrequests += 1
                i = payload[5]
                remaining[i] -= 1
                if not remaining[i]:
                    completion[i] = t
                    if hops:
                        push(heap, (t, seq, _HOP, (i, hops)))
                        seq += 1
            else:  # read: NIC stage next
                if ss.nic_in_use < ss.nic_cap and not ss.nic_queue:
                    if ss.nic_in_use == 0:
                        ss.nic_since = t
                    ss.nic_in_use += 1
                    ss.nic_granted += 1
                    push(heap, (t, seq, _NIC_GRANT, payload))
                    seq += 1
                else:
                    ss.nic_queue.append(payload)
        elif kind == _SPAWN:
            ss = payload[0]
            if payload[1]:  # write: NIC first (client -> server)
                if ss.nic_in_use < ss.nic_cap and not ss.nic_queue:
                    if ss.nic_in_use == 0:
                        ss.nic_since = t
                    ss.nic_in_use += 1
                    ss.nic_granted += 1
                    push(heap, (t, seq, _NIC_GRANT, payload))
                    seq += 1
                else:
                    ss.nic_queue.append(payload)
            else:  # read: disk first
                if ss.disk_in_use or ss.disk_queue:
                    ss.disk_queue.append(payload)
                else:
                    ss.disk_in_use = 1
                    ss.disk_granted += 1
                    ss.disk_since = t
                    push(heap, (t, seq, _DISK_GRANT, payload))
                    seq += 1
        elif kind == _MDS_GRANT:
            push(heap, (t + lookup, seq, _MDS_EXIT, payload))
            seq += 1
        elif kind == _MDS_EXIT:
            m_in_use -= 1
            if m_in_use == 0:
                m_busy += t - m_since
            if m_queue:
                nxt = m_queue.popleft()
                if m_in_use == 0:
                    m_since = t
                m_in_use += 1
                m_granted += 1
                push(heap, (t, seq, _MDS_GRANT, nxt))
                seq += 1
            job_list = jobs_by_request[payload]
            if job_list:
                for job in job_list:
                    push(heap, (t, seq, _SPAWN, job))
                    seq += 1
            else:
                completion[payload] = t
        elif kind == _HOP:
            i, left = payload
            if left > 1:
                push(heap, (t, seq, _HOP, (i, left - 1)))
                seq += 1
            else:
                for entry in windows.resume(i, t, seq):
                    push(heap, entry)
                    seq += 1
        elif kind == _DELAY:
            push(heap, (t + payload[1], seq, _ARRIVE, payload[0]))
            seq += 1
        else:  # _ARRIVE
            if mds_enabled:
                if m_in_use < mds_cap and not m_queue:
                    if m_in_use == 0:
                        m_since = t
                    m_in_use += 1
                    m_granted += 1
                    push(heap, (t, seq, _MDS_GRANT, payload))
                    seq += 1
                else:
                    m_queue.append(payload)
            else:  # zero-cost consult returns inline; spawn subs now
                job_list = jobs_by_request[payload]
                if job_list:
                    for job in job_list:
                        push(heap, (t, seq, _SPAWN, job))
                        seq += 1
                else:
                    completion[payload] = t

    # Fold the shadow state back into the live components. Busy times were
    # summed in interval-closure order from the live totals, so the float
    # summation order matches the general path's monitor arithmetic.
    for ss in states.values():
        server = ss.server
        server.nic.monitor.busy_time = ss.nic_busy
        server.nic.granted_count += ss.nic_granted
        server.disk.monitor.busy_time = ss.disk_busy
        server.disk.granted_count += ss.disk_granted
        server.bytes_served += ss.bytes_served
        server.subrequests_served += ss.subrequests
    if service is not None:
        service.monitor.busy_time = m_busy
        service.granted_count += m_granted

    return completion
