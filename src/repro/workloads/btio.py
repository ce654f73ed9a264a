"""NAS BTIO: block-tridiagonal solver I/O with collective buffering.

BTIO partitions a cubic NX³ array of 5-double cells among P = q² processes
using BT's diagonal cell decomposition: rank p = (prow, pcol) owns q cells,
the c-th at cell coordinates::

    (i, j, k) = (c, (pcol + c) mod q, (prow + c) mod q)

Every ``write_interval`` timesteps the solution array is appended to the
output file with ``MPI_File_write_all``; after the solve, the file is read
back collectively for verification ("full" subtype semantics). Each rank's
contribution per I/O phase is nested-strided: one contiguous run per (cell,
z, y) line of its sub-cubes.

The paper runs class A (64³ grid) with 4/16/64 processes. Simulating 64³ ×
40 appended steps is feasible but slow in CI, so :class:`BTIOConfig` scales
the grid and step count; EXPERIMENTS.md records the factors.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from repro.devices.base import OpType
from repro.middleware.collective import access_phase
from repro.middleware.mpi_sim import RankContext
from repro.middleware.mpiio import MPIIOFile
from repro.pfs.batch import RequestBatch
from repro.workloads.traces import TraceRecord, sort_trace

#: Bytes per grid cell: 5 solution variables × 8-byte doubles.
CELL_BYTES = 5 * 8

#: NAS class name → grid dimension (timesteps are all 200 in NAS; we scale).
CLASS_GRIDS = {"S": 12, "W": 24, "A": 64, "B": 102, "C": 162}


@dataclass(frozen=True)
class BTIOConfig:
    """BTIO run parameters.

    ``n_processes`` must be a perfect square and ``grid`` divisible by its
    root (NAS requires the same).
    """

    n_processes: int = 16
    grid: int = 32
    timesteps: int = 20
    write_interval: int = 5
    read_back: bool = True
    compute_time_per_step: float = 0.0
    n_aggregators: int = 8

    def __post_init__(self):
        q = math.isqrt(self.n_processes)
        if q * q != self.n_processes:
            raise ValueError(f"BTIO needs a square process count, got {self.n_processes}")
        if self.grid % q != 0:
            raise ValueError(f"grid ({self.grid}) must be divisible by sqrt(P) = {q}")
        if self.timesteps < 1 or self.write_interval < 1:
            raise ValueError("timesteps and write_interval must be >= 1")
        if self.n_aggregators < 1:
            raise ValueError("n_aggregators must be >= 1")

    @property
    def q(self) -> int:
        """Process grid side: sqrt(P)."""
        return math.isqrt(self.n_processes)

    @property
    def cell_dim(self) -> int:
        """Sub-cube side owned per cell: grid / q."""
        return self.grid // self.q

    @property
    def array_bytes(self) -> int:
        """Bytes of one solution snapshot: grid³ cells."""
        return self.grid**3 * CELL_BYTES

    @property
    def n_writes(self) -> int:
        """Snapshots appended over the run."""
        return self.timesteps // self.write_interval

    @property
    def total_write_bytes(self) -> int:
        return self.n_writes * self.array_bytes

    @property
    def total_io_bytes(self) -> int:
        """Write volume plus the verification read-back."""
        return self.total_write_bytes * (2 if self.read_back else 1)


class BTIOWorkload:
    """Generates BTIO's nested-strided collective pieces and rank programs."""

    def __init__(self, config: BTIOConfig):
        self.config = config

    def owned_cells(self, rank: int) -> list[tuple[int, int, int]]:
        """BT diagonal decomposition: the q cell coordinates of ``rank``."""
        q = self.config.q
        if not (0 <= rank < self.config.n_processes):
            raise ValueError(f"rank {rank} out of range 0..{self.config.n_processes - 1}")
        prow, pcol = divmod(rank, q)
        return [(c, (pcol + c) % q, (prow + c) % q) for c in range(q)]

    def snapshot_columns(self, rank: int, snapshot: int) -> np.ndarray:
        """``(n, 2)`` int64 (offset, size) runs ``rank`` contributes to ``snapshot``.

        One contiguous run per (cell, z, y) line, in that nesting order;
        offsets address the shared file with snapshots appended
        back-to-back.
        """
        cfg = self.config
        cn = cfg.cell_dim
        grid = cfg.grid
        cells = np.array(self.owned_cells(rank), dtype=np.int64)
        line = np.arange(cn, dtype=np.int64)
        z = cells[:, 2, None] * cn + line  # (cell, z)
        y = cells[:, 1, None] * cn + line  # (cell, y)
        x0 = cells[:, 0] * cn
        element = (z[:, :, None] * grid + y[:, None, :]) * grid + x0[:, None, None]
        offsets = snapshot * cfg.array_bytes + element.ravel() * CELL_BYTES
        return np.column_stack((offsets, np.full_like(offsets, cn * CELL_BYTES)))

    def snapshot_pieces(self, rank: int, snapshot: int) -> list[tuple[int, int]]:
        """:meth:`snapshot_columns` as a list of (offset, size) tuples."""
        columns = self.snapshot_columns(rank, snapshot)
        return list(zip(columns[:, 0].tolist(), columns[:, 1].tolist()))

    def _phases(self) -> list[tuple[OpType, int]]:
        """(op, snapshot) of every collective I/O phase, in issue order."""
        ops = [OpType.WRITE, OpType.READ] if self.config.read_back else [OpType.WRITE]
        return [(op, snapshot) for op in ops for snapshot in range(self.config.n_writes)]

    def piece_trace(self) -> list[TraceRecord]:
        """The raw MPI-level trace: every rank's nested-strided pieces.

        This is what an IOSIG hook at the ``MPI_File_write_all`` boundary
        records — useful for analysis, but not what reaches the PFS once
        collective buffering aggregates.
        """
        records: list[TraceRecord] = []
        for time, (op, snapshot) in enumerate(self._phases()):
            for rank in range(self.config.n_processes):
                for offset, size in self.snapshot_pieces(rank, snapshot):
                    records.append(
                        TraceRecord(
                            pid=1, rank=rank, fd=3, op=op,
                            offset=offset, size=size, timestamp=float(time),
                        )
                    )
        return sort_trace(records)

    def _access_requests(self, snapshot: int) -> tuple[np.ndarray, np.ndarray]:
        """One snapshot's access-phase requests and the aggregator serving each.

        Runs :func:`repro.middleware.collective.access_phase`, the kernel the
        collective engine serves from, on every rank's pieces; returns the
        ``(m, 2)`` requests in issue order and an ``(m,)`` aggregator column.
        """
        cfg = self.config
        pieces = np.concatenate(
            [self.snapshot_columns(rank, snapshot) for rank in range(cfg.n_processes)]
        )
        requests, bounds = access_phase(pieces, min(cfg.n_aggregators, cfg.n_processes))
        return requests, np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))

    def synthetic_trace(self) -> list[TraceRecord]:
        """The access-phase trace: what collective buffering sends to the PFS.

        HARL must lay out the file for the requests the PFS actually serves.
        Under two-phase I/O those are the aggregators' contiguous file-domain
        runs, not the ranks' tiny strided pieces, so the planning trace
        records the post-aggregation requests (merged per snapshot, split
        into ``n_aggregators`` domains).
        """
        records: list[TraceRecord] = []
        for time, (op, snapshot) in enumerate(self._phases()):
            requests, aggregators = self._access_requests(snapshot)
            for aggregator, (offset, size) in zip(aggregators.tolist(), requests.tolist()):
                records.append(
                    TraceRecord(
                        pid=1, rank=aggregator, fd=3, op=op,
                        offset=offset, size=size, timestamp=float(time),
                    )
                )
        return sort_trace(records)

    def request_batch(self) -> RequestBatch:
        """The post-aggregation request stream as one columnar batch.

        Same requests as :meth:`synthetic_trace` — the aggregators'
        contiguous file-domain runs, i.e. what the PFS actually serves under
        collective buffering — but in issue order (phase, snapshot,
        aggregator) rather than offset-sorted.
        """
        phases = self._phases()
        requests = [self._access_requests(snapshot)[0] for _, snapshot in phases]
        return RequestBatch(
            offsets=np.concatenate([r[:, 0] for r in requests]),
            sizes=np.concatenate([r[:, 1] for r in requests]),
            is_read=np.repeat([op is OpType.READ for op, _ in phases], [len(r) for r in requests]),
        )

    def rank_program(
        self, mf: MPIIOFile, collective: bool = True
    ) -> Callable[[RankContext], Generator]:
        """Coroutine per rank: timestep loop with I/O phases.

        ``collective=True`` (BTIO's "full" subtype) uses two-phase collective
        buffering; ``collective=False`` issues every nested-strided piece as
        an independent request (the "simple" subtype), which the collective
        ablation bench compares against.
        """
        cfg = self.config

        def do_io(ctx: RankContext, op_write: bool, snapshot: int) -> Generator:
            if collective:
                pieces = self.snapshot_columns(ctx.rank, snapshot)
                if op_write:
                    yield from mf.write_at_all(ctx.rank, pieces)
                else:
                    yield from mf.read_at_all(ctx.rank, pieces)
            else:
                for offset, size in self.snapshot_pieces(ctx.rank, snapshot):
                    if op_write:
                        yield from mf.write_at(ctx.rank, offset, size)
                    else:
                        yield from mf.read_at(ctx.rank, offset, size)
                yield from ctx.barrier()  # The simple subtype still syncs phases.

        def program(ctx: RankContext) -> Generator:
            yield from ctx.barrier()
            snapshot = 0
            for step in range(1, cfg.timesteps + 1):
                if cfg.compute_time_per_step > 0:
                    yield ctx.sim.timeout(cfg.compute_time_per_step)
                if step % cfg.write_interval == 0:
                    yield from do_io(ctx, True, snapshot)
                    snapshot += 1
            if cfg.read_back:
                for snap in range(cfg.n_writes):
                    yield from do_io(ctx, False, snap)
            yield from ctx.barrier()
            return snapshot

        return program
