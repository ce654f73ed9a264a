"""The IOR benchmark's access patterns.

IOR (Interleaved-Or-Random) drives a shared file with fixed-size requests
from P processes. The paper's configuration (Sec. IV-B): "each process is
responsible for accessing its own 1/P of a shared file and continuously
issues requests with random offsets" — i.e., segmented layout, one segment
per process, random request order within the segment, request size fixed
(512 KB default, varied in Fig. 9).

:class:`IORWorkload` produces three views of that pattern:

- :meth:`rank_requests` — the (op, offset, size) stream of one rank;
- :meth:`synthetic_trace` — the IOSIG trace of a profiling run (the
  Tracing-Phase input when planning without running);
- :meth:`rank_program` — a coroutine for the simulated MPI world that
  replays the rank's stream through an :class:`MPIIOFile`.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from repro.devices.base import OpType
from repro.middleware.mpi_sim import RankContext
from repro.middleware.mpiio import MPIIOFile
from repro.pfs.batch import RequestBatch
from repro.util.rng import derive_rng
from repro.util.units import KiB, MiB
from repro.workloads.traces import TraceRecord, sort_trace


@dataclass(frozen=True)
class IORConfig:
    """IOR run parameters (paper defaults unless overridden).

    ``file_size`` is the shared file's total size; it must divide evenly
    into ``segments × n_processes`` blocks of whole requests. With
    ``segments == 1`` (the paper's configuration) each process owns one
    contiguous 1/P of the file; with ``segments > 1`` the blocks interleave
    (IOR's segmentCount pattern): segment k holds one block per process,
    so each process's data is strided across the file. The paper's testbed
    uses a 16 GB file; experiments here default to a scaled-down file and
    record the scaling in EXPERIMENTS.md.
    """

    n_processes: int = 16
    request_size: int = 512 * KiB
    file_size: int = 64 * MiB
    op: OpType = OpType.WRITE
    random_offsets: bool = True
    segments: int = 1
    queue_depth: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {self.n_processes}")
        if self.request_size < 1:
            raise ValueError(f"request_size must be >= 1, got {self.request_size}")
        if self.segments < 1:
            raise ValueError(f"segments must be >= 1, got {self.segments}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.file_size % (self.segments * self.n_processes * self.request_size) != 0:
            raise ValueError(
                f"file_size ({self.file_size}) must be a whole number of requests "
                f"({self.request_size}) per process ({self.n_processes}) per segment "
                f"({self.segments})"
            )
        object.__setattr__(self, "op", OpType.parse(self.op))

    @property
    def segment_size(self) -> int:
        """Bytes of one file segment (one block per process)."""
        return self.file_size // self.segments

    @property
    def block_size(self) -> int:
        """Bytes of one process's contiguous block within a segment."""
        return self.segment_size // self.n_processes

    @property
    def requests_per_process(self) -> int:
        return self.segments * (self.block_size // self.request_size)

    @property
    def total_bytes(self) -> int:
        return self.file_size


class IORWorkload:
    """Generates IOR request streams from an :class:`IORConfig`."""

    #: :meth:`rank_program` is exactly :meth:`request_batch` run closed
    #: loop (barrier, each rank's stream at ``queue_depth``, barrier), so
    #: :func:`repro.experiments.harness.run_workload` may replay the batch
    #: on the event-heap tier instead of running the rank programs.
    closed_loop = True

    def __init__(self, config: IORConfig):
        self.config = config

    def rank_requests(self, rank: int) -> list[tuple[OpType, int, int]]:
        """The (op, offset, size) stream of ``rank``, in issue order."""
        cfg = self.config
        if not (0 <= rank < cfg.n_processes):
            raise ValueError(f"rank {rank} out of range 0..{cfg.n_processes - 1}")
        requests_per_block = cfg.block_size // cfg.request_size
        offsets = np.empty(cfg.requests_per_process, dtype=np.int64)
        cursor = 0
        for segment in range(cfg.segments):
            base = segment * cfg.segment_size + rank * cfg.block_size
            for slot in range(requests_per_block):
                offsets[cursor] = base + slot * cfg.request_size
                cursor += 1
        if cfg.random_offsets:
            rng = derive_rng(cfg.seed, "ior", rank)
            offsets = rng.permutation(offsets)
        return [(cfg.op, int(offset), cfg.request_size) for offset in offsets]

    def all_requests(self) -> list[tuple[int, OpType, int, int]]:
        """Every rank's stream: (rank, op, offset, size) tuples."""
        out = []
        for rank in range(self.config.n_processes):
            out.extend((rank, op, o, s) for op, o, s in self.rank_requests(rank))
        return out

    def request_batch(self) -> RequestBatch:
        """The whole run as one columnar batch, rank-major in issue order.

        Offsets are generated directly as numpy columns (no per-request
        tuples); the per-rank permutation draws the same
        :func:`~repro.util.rng.derive_rng` stream as :meth:`rank_requests`,
        so the batch equals ``all_requests`` entry for entry. The ``ranks``
        column and ``depth = queue_depth`` describe :meth:`rank_program`'s
        closed loop; open-loop submissions ignore them.
        """
        cfg = self.config
        requests_per_block = cfg.block_size // cfg.request_size
        per_rank = cfg.requests_per_process
        # Slot grid of one rank at block base 0: segment-major, slot-minor —
        # the same enumeration order as rank_requests' nested loop.
        slot_grid = (
            np.arange(cfg.segments, dtype=np.int64)[:, None] * cfg.segment_size
            + np.arange(requests_per_block, dtype=np.int64)[None, :] * cfg.request_size
        ).reshape(-1)
        offsets = np.empty(cfg.n_processes * per_rank, dtype=np.int64)
        for rank in range(cfg.n_processes):
            mine = slot_grid + rank * cfg.block_size
            if cfg.random_offsets:
                mine = derive_rng(cfg.seed, "ior", rank).permutation(mine)
            offsets[rank * per_rank : (rank + 1) * per_rank] = mine
        n = offsets.shape[0]
        return RequestBatch(
            offsets=offsets,
            sizes=np.full(n, cfg.request_size, dtype=np.int64),
            is_read=np.full(n, cfg.op is OpType.READ, dtype=bool),
            ranks=np.repeat(np.arange(cfg.n_processes, dtype=np.int64), per_rank),
            depth=cfg.queue_depth,
        )

    def iter_request_batches(self, chunk_requests: int) -> Generator[RequestBatch, None, None]:
        """Stream the run as consecutive columnar chunks, rank-major.

        Concatenating the yielded batches reproduces :meth:`request_batch`
        entry for entry (same :func:`~repro.util.rng.derive_rng` draws), but
        peak memory is one rank's offset column plus one chunk — not the
        whole run. This is what lets a 100M-request replay stay inside a
        bounded RSS: generate a window, replay it, drop it.

        Chunks hold exactly ``chunk_requests`` requests (the final one may
        be shorter) and may span rank boundaries.
        """
        if chunk_requests < 1:
            raise ValueError(f"chunk_requests must be >= 1, got {chunk_requests}")
        cfg = self.config
        requests_per_block = cfg.block_size // cfg.request_size
        slot_grid = (
            np.arange(cfg.segments, dtype=np.int64)[:, None] * cfg.segment_size
            + np.arange(requests_per_block, dtype=np.int64)[None, :] * cfg.request_size
        ).reshape(-1)
        pending: list[np.ndarray] = []
        pending_n = 0

        def drain(parts: list[np.ndarray]) -> RequestBatch:
            offsets = np.concatenate(parts) if len(parts) > 1 else parts[0]
            n = offsets.shape[0]
            return RequestBatch(
                offsets=offsets,
                sizes=np.full(n, cfg.request_size, dtype=np.int64),
                is_read=np.full(n, cfg.op is OpType.READ, dtype=bool),
            )

        for rank in range(cfg.n_processes):
            mine = slot_grid + rank * cfg.block_size
            if cfg.random_offsets:
                mine = derive_rng(cfg.seed, "ior", rank).permutation(mine)
            cursor = 0
            while cursor < mine.shape[0]:
                take = min(chunk_requests - pending_n, mine.shape[0] - cursor)
                pending.append(mine[cursor : cursor + take])
                pending_n += take
                cursor += take
                if pending_n == chunk_requests:
                    yield drain(pending)
                    pending = []
                    pending_n = 0
        if pending_n:
            yield drain(pending)

    def synthetic_trace(self) -> list[TraceRecord]:
        """The offset-sorted IOSIG trace a profiling run would produce."""
        records = []
        for rank, op, offset, size in self.all_requests():
            records.append(
                TraceRecord(
                    pid=1, rank=rank, fd=3, op=op, offset=offset, size=size, timestamp=0.0
                )
            )
        return sort_trace(records)

    def rank_program(self, mf: MPIIOFile) -> Callable[[RankContext], Generator]:
        """Build the coroutine each simulated MPI rank runs.

        ``queue_depth == 1`` (the real IOR's behaviour) issues blocking
        requests; deeper queues use the nonblocking iread/iwrite path with
        up to ``queue_depth`` requests in flight per rank.
        """
        depth = self.config.queue_depth

        def program(ctx: RankContext) -> Generator:
            requests = self.rank_requests(ctx.rank)
            yield from ctx.barrier()
            if depth == 1:
                for op, offset, size in requests:
                    if op is OpType.READ:
                        yield from mf.read_at(ctx.rank, offset, size)
                    else:
                        yield from mf.write_at(ctx.rank, offset, size)
            else:
                in_flight: list = []
                for op, offset, size in requests:
                    if op is OpType.READ:
                        in_flight.append(mf.iread_at(ctx.rank, offset, size))
                    else:
                        in_flight.append(mf.iwrite_at(ctx.rank, offset, size))
                    if len(in_flight) >= depth:
                        yield in_flight.pop(0)  # MPI_Wait on the oldest.
                for pending in in_flight:
                    yield pending
            yield from ctx.barrier()
            return len(requests)

        return program

