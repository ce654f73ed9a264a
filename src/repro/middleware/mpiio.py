"""MPI-IO-style file objects with HARL forwarding and tracing.

:class:`MPIIOFile` is the middleware analogue of the modified
``MPI_File_read/write`` of Sec. III-G:

- every independent read/write is (optionally) traced through the IOSIG
  collector,
- a file opened with an RST builds the region-level layout and the R2F
  artifact, forwarding each request to the right region file transparently,
- ``read_at_all``/``write_at_all`` run two-phase collective buffering.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.core.rst import R2FTable, RegionStripeTable
from repro.devices.base import OpType
from repro.middleware.collective import CollectiveEngine, Pieces, as_pieces
from repro.middleware.iosig import TraceCollector
from repro.middleware.mpi_sim import Communicator
from repro.pfs.filesystem import HybridPFS, PFSFile
from repro.pfs.layout import LayoutPolicy, RegionLevelLayout


class MPIIOFile:
    """A shared file handle used by all ranks of a communicator.

    Create with :meth:`open`; rank programs then call the generator methods
    from inside their coroutines::

        def program(ctx):
            yield from mf.write_at(ctx.rank, offset, size)
            yield from mf.write_at_all(ctx.rank, [(offset, size)])
    """

    def __init__(
        self,
        comm: Communicator,
        handle: PFSFile,
        collector: TraceCollector | None = None,
        r2f: R2FTable | None = None,
        n_aggregators: int | None = None,
    ):
        self.comm = comm
        self.handle = handle
        self.collector = collector
        self.r2f = r2f
        self._collective = CollectiveEngine(comm, handle, n_aggregators=n_aggregators)
        self._views: dict[int, object] = {}

    @classmethod
    def open(
        cls,
        comm: Communicator,
        pfs: HybridPFS,
        name: str,
        layout: LayoutPolicy | RegionStripeTable,
        collector: TraceCollector | None = None,
        n_aggregators: int | None = None,
    ) -> "MPIIOFile":
        """Open (create) ``name`` on ``pfs`` for all ranks of ``comm``.

        Passing a :class:`RegionStripeTable` (HARL's Analysis-Phase output)
        builds the region-level layout and materializes the R2F mapping —
        the Placing Phase. Passing any :class:`LayoutPolicy` opens a
        conventional file.
        """
        r2f = None
        if isinstance(layout, RegionStripeTable):
            r2f = R2FTable(name, layout)
            layout = RegionLevelLayout(layout)
        handle = pfs.create_file(name, layout)
        return cls(comm, handle, collector=collector, r2f=r2f, n_aggregators=n_aggregators)

    @property
    def name(self) -> str:
        return self.handle.name

    # -- independent I/O ----------------------------------------------------

    def read_at(self, rank: int, offset: int, size: int) -> Generator:
        """Blocking independent read from this rank's coroutine."""
        yield from self._independent(rank, OpType.READ, offset, size)

    def write_at(self, rank: int, offset: int, size: int) -> Generator:
        """Blocking independent write from this rank's coroutine."""
        yield from self._independent(rank, OpType.WRITE, offset, size)

    def _independent(self, rank: int, op: OpType, offset: int, size: int) -> Generator:
        if self.collector is not None:
            self.collector.record(rank, self.handle.name, op, offset, size)
        yield from self.handle.serve_inline(op, offset, size)

    # -- batched I/O ---------------------------------------------------------

    def request_batch(self, batch, rank: int = 0, force_general: bool = False):
        """Submit a columnar :class:`~repro.pfs.batch.RequestBatch`.

        The middleware analogue of a replayed trace: every request is
        (optionally) recorded through the IOSIG collector exactly as the
        per-call paths do, then the whole batch is handed to
        :meth:`~repro.pfs.filesystem.PFSFile.request_batch`, which takes the
        arithmetic fast path when eligible. Returns the completion event;
        its value is the per-request elapsed-time array.
        """
        if self.collector is not None:
            name = self.handle.name
            record = self.collector.record
            is_read = batch.is_read
            for i, (offset, size) in enumerate(
                zip(batch.offsets.tolist(), batch.sizes.tolist())
            ):
                record(rank, name, OpType.READ if is_read[i] else OpType.WRITE, offset, size)
        return self.handle.request_batch(batch, force_general=force_general)

    # -- nonblocking independent I/O (MPI_File_iread/iwrite_at) -------------

    def iread_at(self, rank: int, offset: int, size: int):
        """Start a nonblocking read; returns an event to ``yield`` on later.

        The MPI_File_iread_at analogue: the caller keeps computing (or
        issues more I/O) and waits on the returned request when it needs
        the data — ``yield request`` is MPI_Wait.
        """
        return self._inonblocking(rank, OpType.READ, offset, size)

    def iwrite_at(self, rank: int, offset: int, size: int):
        """Start a nonblocking write; returns an event to ``yield`` on later."""
        return self._inonblocking(rank, OpType.WRITE, offset, size)

    def _inonblocking(self, rank: int, op: OpType, offset: int, size: int):
        if self.collector is not None:
            self.collector.record(rank, self.handle.name, op, offset, size)
        return self.handle.request(op, offset, size)

    # -- file views (MPI_File_set_view + derived datatypes) ------------------

    def set_view(self, rank: int, displacement: int, filetype) -> None:
        """Install a per-rank file view (MPI_File_set_view semantics).

        Subsequent ``read_view``/``write_view``/``write_all_view`` calls for
        this rank address the view's noncontiguous pattern through its
        individual file pointer.
        """
        from repro.middleware.datatypes import FileView

        self._views[rank] = FileView(displacement, filetype)

    def view(self, rank: int):
        """The rank's installed view (raises if none)."""
        try:
            return self._views[rank]
        except KeyError:
            raise RuntimeError(f"rank {rank} has no file view installed") from None

    def read_view(self, rank: int, count: int = 1) -> Generator:
        """Independent read of ``count`` filetype instances at the pointer."""
        for offset, size in self.view(rank).next_pieces(count):
            yield from self._independent(rank, OpType.READ, offset, size)

    def write_view(self, rank: int, count: int = 1) -> Generator:
        """Independent write of ``count`` filetype instances at the pointer."""
        for offset, size in self.view(rank).next_pieces(count):
            yield from self._independent(rank, OpType.WRITE, offset, size)

    def read_all_view(self, rank: int, count: int = 1) -> Generator:
        """Collective read of ``count`` instances of every rank's view."""
        yield from self._collective_call(rank, OpType.READ, self.view(rank).next_pieces(count))

    def write_all_view(self, rank: int, count: int = 1) -> Generator:
        """Collective write of ``count`` instances of every rank's view."""
        yield from self._collective_call(rank, OpType.WRITE, self.view(rank).next_pieces(count))

    # -- collective I/O -----------------------------------------------------

    def read_at_all(self, rank: int, pieces: Pieces) -> Generator:
        """Collective read; every rank must call with its (offset, size) pieces."""
        yield from self._collective_call(rank, OpType.READ, pieces)

    def write_at_all(self, rank: int, pieces: Pieces) -> Generator:
        """Collective write; every rank must call with its (offset, size) pieces."""
        yield from self._collective_call(rank, OpType.WRITE, pieces)

    def _collective_call(self, rank: int, op: OpType, pieces: Pieces) -> Generator:
        if self.collector is not None:
            for offset, size in as_pieces(pieces).tolist():
                self.collector.record(rank, self.handle.name, op, offset, size)
        yield from self._collective.call(rank, op, pieces)
