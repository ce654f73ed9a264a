"""The online HARL control loop.

A DES process wakes every ``check_interval`` simulated seconds, drains new
records from the file's trace collector into the workload monitor, and —
when the monitor reports drift — replans with the ordinary HARL planner on
the recent window, swaps the file's layout generation, and migrates the
already-written ranges whose striping changed. Calibration is refreshed per
replan at the window's mean request size, mirroring the paper's
per-pattern parameter measurement.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field

from repro.core.planner import HARLPlanner
from repro.middleware.iosig import TraceCollector
from repro.online.migration import (  # noqa: F401 (MigrationStats re-exported)
    MigrationAborted,
    MigrationStats,
    RegionMigrator,
    changed_ranges,
)
from repro.online.monitor import WorkloadMonitor
from repro.pfs.filesystem import ParallelFileSystem, PFSFile
from repro.pfs.layout import LayoutPolicy, RegionLevelLayout
from repro.simulate.engine import Process
from repro.util.units import MiB


@dataclass
class ReplanEvent:
    """One layout change performed by the controller."""

    at_time: float
    size_change: float
    op_mix_change: float
    new_layout: str
    migration: MigrationStats | None = None
    #: True when the migration pass died (MigrationAborted); the shadow
    #: extents were released and the generation swap was never committed.
    aborted: bool = False


@dataclass
class OnlineReport:
    """What the controller did during a run."""

    checks: int = 0
    replans: list[ReplanEvent] = field(default_factory=list)

    @property
    def bytes_migrated(self) -> int:
        return sum(e.migration.bytes_moved for e in self.replans if e.migration)

    def summary(self) -> str:
        lines = [f"{self.checks} checks, {len(self.replans)} replans, "
                 f"{self.bytes_migrated} bytes migrated"]
        for event in self.replans:
            migration = (
                f", migrated {event.migration.bytes_moved}B in {event.migration.elapsed:.4f}s"
                if event.migration
                else ""
            )
            lines.append(
                f"  t={event.at_time:.4f}s: drift(size {event.size_change:.0%}, "
                f"ops {event.op_mix_change:.0%}) -> {event.new_layout}{migration}"
            )
        return "\n".join(lines)


class OnlineHARLController:
    """Watches one file's traffic and keeps its layout matched to it."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        handle: PFSFile,
        collector: TraceCollector,
        planner_factory: Callable[[float], HARLPlanner],
        monitor: WorkloadMonitor | None = None,
        check_interval: float = 0.005,
        migrate: bool = True,
        migration_chunk: int = 4 * MiB,
        migration_duty_cycle: float = 1.0,
    ):
        if check_interval <= 0:
            raise ValueError(f"check_interval must be > 0, got {check_interval}")
        self.pfs = pfs
        self.handle = handle
        self.collector = collector
        self.planner_factory = planner_factory
        self.monitor = monitor or WorkloadMonitor()
        self.check_interval = check_interval
        self.migrate = migrate
        self.migrator = RegionMigrator(
            pfs, handle.name, chunk_size=migration_chunk, duty_cycle=migration_duty_cycle
        )
        self.report = OnlineReport()
        self._consumed = 0
        self._observed_extent = 0
        self._migration_in_flight = False
        self._pending_drift = None  # Drift seen; waiting for a clean window.

    def start(self) -> Process:
        """Spawn the control loop in the filesystem's simulator."""
        return self.pfs.sim.process(self._run(), name=f"online-harl[{self.handle.name}]")

    def _drain_collector(self) -> None:
        records = self.collector.records
        fd = self.collector.fd_for(self.handle.name)
        for record in records[self._consumed:]:
            if record.fd == fd:
                self.monitor.observe(record)
                self._observed_extent = max(self._observed_extent, record.offset + record.size)
        self._consumed = len(records)

    def _run(self) -> Generator:
        sim = self.pfs.sim
        while True:
            yield sim.timeout(self.check_interval)
            self._drain_collector()
            self.report.checks += 1
            if self._migration_in_flight:
                continue  # Let the current migration settle before replanning.
            if self._pending_drift is not None:
                # Quarantine: wait until the window refills with purely
                # post-drift traffic, then plan from that clean sample.
                if self.monitor.window_fill >= self.monitor.min_window_fill:
                    drift, self._pending_drift = self._pending_drift, None
                    self._replan(drift)
                continue
            drift = self.monitor.check_drift()
            if not drift.drifted:
                continue
            self._pending_drift = drift
            self.monitor.reset_window()

    def _replan(self, drift) -> None:
        # Calibration hint from the *refilled* (post-quarantine) window —
        # the detection-time report still mixes pre-drift traffic.
        current_mean = self.monitor.signature().mean_size
        planner = self.planner_factory(max(1.0, current_mean))
        rst = planner.plan(self.monitor.window_records())
        new_layout = RegionLevelLayout(rst)
        old_layout = self.handle.layout
        old_generation = self.handle.layout_generation
        # Two-phase generation swap (DESIGN.md §11): journal the intent
        # before the data path switches, commit only once the copy lands.
        # A crash anywhere in between recovers to the old generation.
        mds = self.pfs.mds
        name = self.handle.name
        mds.begin_migration(name, new_layout, old_generation + 1)
        new_generation = self.handle.relayout(new_layout)
        event = ReplanEvent(
            at_time=self.pfs.sim.now,
            size_change=drift.size_change,
            op_mix_change=drift.op_mix_change,
            new_layout=new_layout.describe(),
        )
        self.report.replans.append(event)
        ranges = (
            changed_ranges(old_layout, new_layout, self._observed_extent)
            if self.migrate and self._observed_extent > 0
            else []
        )
        if ranges:
            # Migration runs in the background, competing with foreground
            # I/O on the server queues; monitoring continues meanwhile.
            # The stats object is attached up front so a pass still in
            # flight when the run ends reports its partial volume.
            self._migration_in_flight = True
            event.migration = MigrationStats()

            def migration_proc() -> Generator:
                try:
                    yield from self.migrator.migrate(
                        old_layout,
                        old_generation,
                        new_layout,
                        new_generation,
                        ranges,
                        stats=event.migration,
                    )
                except MigrationAborted:
                    event.aborted = True
                    mds.abort_migration(name)
                else:
                    mds.commit_migration(name)
                self._migration_in_flight = False

            self.pfs.sim.process(migration_proc(), name=f"migrate[{self.handle.name}]")
        else:
            # Nothing to move: the swap is complete the moment it happens.
            mds.commit_migration(name)
        self.monitor.rebaseline()


def run_workload_online(
    testbed,
    workload,
    initial_layout: LayoutPolicy,
    layout_name: str = "online-HARL",
    check_interval: float = 0.005,
    monitor_kwargs: dict | None = None,
    migrate: bool = True,
    migration_duty_cycle: float = 1.0,
    planner_kwargs: dict | None = None,
    file_name: str = "shared.dat",
    baseline_trace=None,
):
    """Run a workload with the online controller attached.

    Returns ``(RunResult, OnlineReport)``. The counterpart of
    :func:`repro.experiments.harness.run_workload` for the adaptive mode.
    ``baseline_trace`` seeds the drift baseline with the profiling trace the
    *initial* layout was planned from, so the controller replans only when
    the live workload departs from that profile.
    """
    from repro.experiments.harness import _Run, workload_bytes, workload_processes

    run = _Run(testbed)
    collector = TraceCollector(run.sim)
    world, mf = run.open(
        workload_processes(workload), initial_layout, file_name, collector
    )

    def planner_factory(mean_size: float) -> HARLPlanner:
        params = testbed.parameters(request_hint=int(mean_size))
        return HARLPlanner(params, step=None, **(planner_kwargs or {}))

    monitor = WorkloadMonitor(**(monitor_kwargs or {}))
    if baseline_trace:
        monitor.baseline_from(list(baseline_trace))
    controller = OnlineHARLController(
        run.pfs,
        mf.handle,
        collector,
        planner_factory,
        monitor=monitor,
        check_interval=check_interval,
        migrate=migrate,
        migration_duty_cycle=migration_duty_cycle,
    )
    controller.start()
    run.run(world.spawn(workload.rank_program(mf)))
    return run.result(layout_name, workload_bytes(workload)), controller.report
