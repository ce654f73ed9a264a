"""Two-phase collective I/O (ROMIO-style collective buffering).

BTIO's I/O phases call ``MPI_File_write_all``; ROMIO implements this as:

1. **exchange/shuffle** — the aggregate byte range of all ranks' pieces is
   split into contiguous *file domains*, one per aggregator rank; every rank
   ships its pieces to the owning aggregators over the network;
2. **access** — each aggregator issues one large contiguous request per
   maximal run in its domain.

We reproduce both phases. The shuffle cost charged to an aggregator is the
fraction of its domain that originated on *other* ranks
(``(1 − 1/P)`` of the domain bytes) at the interconnect's unit time —
the standard all-to-many redistribution bound. The access phase goes through
the normal PFS path, so the region-level layout benefits collective I/O
exactly as it does independent I/O.

Pieces travel as ``(n, 2)`` int64 ``(offset, size)`` arrays, and one array
kernel, :func:`access_phase`, turns all ranks' pieces into the aggregators'
requests. BTIO's planning trace calls the same kernel, so the trace HARL
plans from is what the engine serves.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.devices.base import OpType
from repro.middleware.mpi_sim import Communicator
from repro.pfs.filesystem import PFSFile
from repro.simulate.engine import Event

#: A rank's collective contribution: ``(offset, size)`` pairs, as a list or
#: an ``(n, 2)`` integer array.
Pieces = Sequence[tuple[int, int]] | np.ndarray


def as_pieces(pieces: Pieces) -> np.ndarray:
    """Copy ``pieces`` into a fresh ``(n, 2)`` int64 array.

    Raises:
        ValueError: if ``pieces`` is not a sequence of pairs (3-tuples, a
            ragged list, or an array without exactly two columns).
    """
    array = np.array(pieces, dtype=np.int64)
    if array.ndim == 1 and array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"pieces must be (offset, size) pairs, got shape {array.shape}")
    return array


def merge_runs(pieces: np.ndarray) -> np.ndarray:
    """Coalesce ``(n, 2)`` pieces into maximal disjoint runs, offset-sorted.

    Zero- and negative-size pieces are dropped; pieces that overlap or touch
    join one run, so consecutive runs are separated by a gap of at least one
    byte.
    """
    pieces = pieces[pieces[:, 1] > 0]
    if not len(pieces):
        return pieces
    starts = pieces[:, 0]
    ends = starts + pieces[:, 1]
    order = np.lexsort((ends, starts))
    starts = starts[order]
    reach = np.maximum.accumulate(ends[order])
    first = np.flatnonzero(np.concatenate(([True], starts[1:] > reach[:-1])))
    last = np.append(first[1:] - 1, len(starts) - 1)
    return np.column_stack((starts[first], reach[last] - starts[first]))


def split_domains(runs: np.ndarray, n_aggregators: int) -> tuple[np.ndarray, np.ndarray]:
    """Slice ``(m, 2)`` runs at the boundaries of ``n_aggregators`` file domains.

    The aggregate extent [min offset, max end) is divided into
    ``n_aggregators`` equal contiguous domains (the last absorbs the
    rounding); each run is cut where it crosses a boundary. Returns
    ``(requests, bounds)``: aggregator ``a`` serves
    ``requests[bounds[a]:bounds[a + 1]]``, in the order of ``runs``.
    """
    if n_aggregators < 1:
        raise ValueError(f"n_aggregators must be >= 1, got {n_aggregators}")
    empty = (np.empty((0, 2), dtype=np.int64), np.zeros(n_aggregators + 1, dtype=np.int64))
    if not len(runs):
        return empty
    starts = runs[:, 0]
    ends = starts + runs[:, 1]
    lo = int(starts.min())
    per = -(-(int(ends.max()) - lo) // n_aggregators)  # ceil
    if per <= 0:
        return empty
    first = (starts - lo) // per
    crossed = np.where(runs[:, 1] > 0, (ends - 1 - lo) // per - first + 1, 0)
    run = np.repeat(np.arange(len(runs)), crossed)
    # Domain index of each piece: the run's first domain plus the piece's
    # position among that run's pieces.
    aggregator = first[run] + np.arange(len(run)) - (np.cumsum(crossed) - crossed)[run]
    piece_starts = np.maximum(starts[run], lo + aggregator * per)
    piece_ends = np.minimum(ends[run], lo + (aggregator + 1) * per)
    order = np.argsort(aggregator, kind="stable")
    requests = np.column_stack((piece_starts[order], (piece_ends - piece_starts)[order]))
    bounds = np.searchsorted(aggregator[order], np.arange(n_aggregators + 1))
    return requests, bounds


def access_phase(pieces: np.ndarray, n_aggregators: int) -> tuple[np.ndarray, np.ndarray]:
    """The access-phase requests two-phase I/O sends to the PFS.

    Merges every rank's ``(n, 2)`` pieces into runs and splits them into
    ``n_aggregators`` file domains; returns :func:`split_domains`'s
    ``(requests, bounds)``. Within a domain the requests are already
    maximal disjoint runs (merged runs are separated by gaps, and a run
    yields at most one piece per domain), so they need no second merge.
    """
    return split_domains(merge_runs(pieces), n_aggregators)


def _pairs(array: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(array[:, 0].tolist(), array[:, 1].tolist()))


def merge_intervals(pieces: Pieces) -> list[tuple[int, int]]:
    """Coalesce (offset, size) pieces into maximal disjoint runs."""
    return _pairs(merge_runs(as_pieces(pieces)))


def split_into_domains(runs: Pieces, n_aggregators: int) -> list[list[tuple[int, int]]]:
    """Split merged runs into contiguous per-aggregator file domains.

    List view of :func:`split_domains`: this is the access-phase request
    pattern an ROMIO-style implementation produces, and what BTIO's
    planning trace records.
    """
    requests, bounds = split_domains(as_pieces(runs), n_aggregators)
    return [_pairs(requests[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class _CallState:
    """Synchronization state of one in-flight collective call."""

    contributions: dict[int, np.ndarray] = field(default_factory=dict)
    op: OpType | None = None
    done: Event | None = None
    arrived: int = 0


class CollectiveEngine:
    """Coordinates collective reads/writes on one file across all ranks.

    Every rank must participate in every call, in the same order (the MPI
    collective contract); a rank may contribute an empty piece list.
    """

    def __init__(
        self,
        comm: Communicator,
        handle: PFSFile,
        n_aggregators: int | None = None,
    ):
        self.comm = comm
        self.handle = handle
        self.n_aggregators = min(comm.size, n_aggregators or comm.size)
        if self.n_aggregators < 1:
            raise ValueError("need at least one aggregator")
        self._calls: dict[int, _CallState] = {}
        self._rank_call_counter: dict[int, int] = {}
        self.collective_calls_completed = 0

    def call(self, rank: int, op: OpType | str, pieces: Pieces) -> Generator:
        """Participate in the next collective call with this rank's pieces.

        ``pieces`` is a list of (offset, size) pairs or an ``(n, 2)`` integer
        array; it is copied, and malformed shapes raise ``ValueError``.
        Returns (as generator value) the elapsed seconds from the call
        entering to the collective completing for this rank.
        """
        op = OpType.parse(op)
        pieces = as_pieces(pieces)
        sim = self.comm.sim
        started = sim.now
        index = self._rank_call_counter.get(rank, 0)
        self._rank_call_counter[rank] = index + 1

        state = self._calls.get(index)
        if state is None:
            state = _CallState(done=Event(sim))
            self._calls[index] = state
        if rank in state.contributions:
            raise ValueError(f"rank {rank} joined collective call {index} twice")
        if state.op is None:
            state.op = op
        elif state.op is not op:
            raise ValueError(
                f"collective call {index}: rank {rank} used {op.value} but the call is {state.op.value}"
            )
        state.contributions[rank] = pieces
        state.arrived += 1

        if state.arrived == self.comm.size:
            sim.process(self._drive(index, state), name=f"collective#{index}")
        yield state.done
        return sim.now - started

    def _drive(self, index: int, state: _CallState) -> Generator:
        sim = self.comm.sim
        requests, bounds = access_phase(
            np.concatenate(list(state.contributions.values())), self.n_aggregators
        )
        if not len(requests):
            state.done.succeed(0.0)
            del self._calls[index]
            return

        aggregator_procs = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi > lo:
                aggregator_procs.append(
                    sim.process(
                        self._aggregator(state.op, requests[lo:hi]), name=f"aggregator#{index}"
                    )
                )
        if aggregator_procs:
            yield sim.all_of(aggregator_procs)
        self.collective_calls_completed += 1
        state.done.succeed(sim.now)
        del self._calls[index]

    def _aggregator(self, op: OpType, requests: np.ndarray) -> Generator:
        sim = self.comm.sim
        total = int(requests[:, 1].sum())
        # Shuffle: the fraction of the domain originating off-aggregator.
        if self.comm.size > 1:
            shuffle_bytes = int(total * (1 - 1 / self.comm.size))
            cost = self.comm.payload_time(shuffle_bytes)
            if cost > 0:
                yield sim.timeout(cost)
        for offset, size in requests.tolist():
            yield from self.handle.serve_inline(op, offset, size)
