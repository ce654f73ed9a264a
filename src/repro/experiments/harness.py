"""Run harness: testbeds, workload execution, layout comparison tables.

A :class:`Testbed` captures the cluster shape (M HServers + N SServers,
device and network parameters). One run core, :class:`_Run`, owns every
simulation run's lifecycle — simulator, tracer, cluster, faults,
durability and the :class:`RunResult` — and the entry points are thin
drivers on it: :func:`run_workload` runs one workload under one layout
(its rank programs, or one columnar batch submitted open loop),
:func:`run_serving` a multi-tenant scenario and
:func:`run_concurrent_workloads` several applications at once.
:func:`run_workload_batched` is a deprecated alias of :func:`run_workload`
on a workload's batch.
:func:`compare_layouts` sweeps a set of layouts (the paper's
fixed/random/HARL comparison) over one workload and renders the
figure-style table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Protocol

from repro.core.params import CostModelParameters
from repro.devices.profiles import MdsProfile
from repro.core.planner import HARLPlanner
from repro.core.rst import RegionStripeTable
from repro.experiments.cache import cached_calibration, testbed_fingerprint
from repro.experiments.calibrate import DEFAULT_PROBE_SIZES, calibrate_parameters
from repro.middleware.iosig import TraceCollector
from repro.middleware.mpi_sim import SimMPI
from repro.middleware.mpiio import MPIIOFile
from repro.network.link import NetworkModel
from repro.obs.tracer import EventTracer, ObsSnapshot, collect_snapshot, tracing_enabled
from repro.pfs.batch import RequestBatch
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import LayoutPolicy
from repro.pfs.mds_cluster import MetadataCluster, MetadataUnavailable
from repro.pfs.metadata import MetadataServer
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB


class Workload(Protocol):
    """What the harness needs from a workload object."""

    def rank_program(self, mf: MPIIOFile) -> Any: ...

    def synthetic_trace(self) -> list: ...


def workload_processes(workload: Any) -> int:
    """Process count of a workload (direct attribute or via its config)."""
    if hasattr(workload, "n_processes"):
        return workload.n_processes
    return workload.config.n_processes


def workload_bytes(workload: Any) -> int:
    """Total bytes a workload moves (for throughput computation)."""
    if hasattr(workload, "total_bytes"):
        return workload.total_bytes
    config = workload.config
    for attribute in ("total_io_bytes", "total_bytes", "file_size"):
        if hasattr(config, attribute):
            return getattr(config, attribute)
    raise TypeError(f"cannot determine byte volume of {type(workload).__name__}")


@dataclass
class Testbed:
    """Cluster shape + device/network parameters; calibration is cached."""

    __test__ = False  # Not a pytest test class despite the name.

    n_hservers: int = 6
    n_sservers: int = 2
    seed: int = 0
    hdd_kwargs: dict = field(default_factory=dict)
    ssd_kwargs: dict = field(default_factory=dict)
    nic_parallelism: int = 4
    disk_scheduler: str = "fifo"
    network: NetworkModel | None = None
    #: 0 (default) keeps the legacy single MetadataServer — the sharding
    #: kill switch, byte-identical to builds that predate the cluster.
    #: >= 1 builds a MetadataCluster with that many shards (1 shard routes
    #: identically to legacy but pays the cluster bookkeeping).
    mds_shards: int = 0
    #: Ring routing mode when sharded: "finger" (O(log N)) or "linear".
    mds_routing: str = "finger"
    #: Crash-to-journal-replay delay for mds-crash faults; None disables
    #: recovery (the crashed arc stays degraded for the rest of the run).
    mds_recovery_delay: float | None = 2.0e-3
    #: MDS service-time profile spec (:meth:`MdsProfile.parse` syntax:
    #: "legacy", "calibrated", or "calibrated,open=1e-4,..."). None keeps
    #: the legacy constants — bit-identical to pre-profile builds.
    mds_profile: str | None = None
    #: Enable the client-side layout cache (coalesced lookups, lease
    #: invalidation). Off by default: cache-off runs stay byte-identical
    #: to builds that predate the cache.
    mds_cache: bool = False
    _params_by_bucket: dict | None = field(default=None, repr=False)

    def build(self, sim: Simulator) -> HybridPFS:
        """Fresh PFS for one simulation run."""
        profile = (
            MdsProfile.parse(self.mds_profile) if self.mds_profile is not None else None
        )
        mds = None
        if self.mds_shards:
            mds = MetadataCluster(
                self.mds_shards,
                routing=self.mds_routing,
                recovery_delay=self.mds_recovery_delay,
                seed=self.seed,
                profile=profile,
            )
        elif profile is not None:
            mds = MetadataServer(profile=profile)
        return HybridPFS.build(
            sim,
            self.n_hservers,
            self.n_sservers,
            network=self.network or NetworkModel(),
            seed=self.seed,
            hdd_kwargs=self.hdd_kwargs,
            ssd_kwargs=self.ssd_kwargs,
            nic_parallelism=self.nic_parallelism,
            disk_scheduler=self.disk_scheduler,
            mds=mds,
            mds_cache=self.mds_cache,
        )

    def parameters(
        self,
        repeats: int = 200,
        request_hint: int | None = None,
        jobs: int | None = None,
    ) -> CostModelParameters:
        """Calibrated Table-I parameters, cached per probe-size bucket.

        ``request_hint`` tailors the probe sizes to the workload's typical
        request (the paper: "These parameters can vary with different I/O
        patterns", Sec. III-G — calibration is repeated per pattern).
        Probing at sizes near the per-server sub-request scale folds the
        SSD's size-dependent channel behaviour into the fitted β where the
        planner actually operates.

        Caching is two-level: a per-instance dict (``_params_by_bucket``),
        and a process-wide store keyed by the testbed's content fingerprint
        (:mod:`repro.experiments.cache`), so distinct ``Testbed`` instances
        with identical configuration calibrate once per process — and, with
        ``REPRO_CACHE``/``REPRO_CACHE_DIR`` set, once across processes.
        Calibration is a pure function of the fingerprinted inputs, so a
        cache hit is bit-identical to recomputation. ``jobs`` fans the
        per-device probing across processes on a miss.
        """
        if self._params_by_bucket is None:
            self._params_by_bucket = {}
        probe_sizes: tuple[int, ...] | None = None
        bucket = 0
        if request_hint is not None:
            # Sub-requests of an r-byte request span roughly r/(M+N) .. r.
            bucket = max(4 * KiB, 1 << int(request_hint).bit_length())
            probe_sizes = tuple(sorted({max(4 * KiB, bucket >> k) for k in range(4)}))
        cached = self._params_by_bucket.get(bucket)
        if cached is None:
            kwargs = {} if probe_sizes is None else {"probe_sizes": probe_sizes}
            network = self.network or NetworkModel()
            fingerprint = testbed_fingerprint(
                self.n_hservers,
                self.n_sservers,
                network,
                self.hdd_kwargs,
                self.ssd_kwargs,
                probe_sizes if probe_sizes is not None else DEFAULT_PROBE_SIZES,
                repeats,
                self.seed,
                self.nic_parallelism,
            )
            cached = cached_calibration(
                fingerprint,
                lambda: calibrate_parameters(
                    self.n_hservers,
                    self.n_sservers,
                    network=network,
                    hdd_kwargs=self.hdd_kwargs,
                    ssd_kwargs=self.ssd_kwargs,
                    repeats=repeats,
                    seed=self.seed,
                    nic_parallelism=self.nic_parallelism,
                    jobs=jobs,
                    **kwargs,
                ),
            )
            self._params_by_bucket[bucket] = cached
        return cached


@dataclass(frozen=True)
class RunResult:
    """One (workload, layout) simulation outcome."""

    layout_name: str
    makespan: float
    total_bytes: int
    server_busy: dict[str, float]
    #: Observability payload (spans + metrics) when the run was traced;
    #: None otherwise. Picklable, so it rides back from pool workers.
    obs: ObsSnapshot | None = None
    #: Injected-fault + recovery summary when the run had a fault schedule
    #: (:class:`repro.faults.injector.FaultStats`); None on fault-free runs.
    faults: Any = None
    #: Checksum/replication summary (:class:`repro.pfs.integrity.IntegrityStats`)
    #: when the run's integrity layer was active; None otherwise.
    integrity: Any = None
    #: Multi-tenant serving outcome (:class:`repro.serving.ServingResult`,
    #: per-tenant latency histograms + hedge counters) for runs produced by
    #: :func:`run_serving`; None for plain workload runs.
    serving: Any = None
    #: Sharded-metadata summary (:class:`repro.pfs.mds_cluster.MdsStats`:
    #: per-shard lookups, routing hops, crash/recovery/lost-entry counts)
    #: when the run used a MetadataCluster; None on legacy-MDS runs.
    mds: Any = None
    #: Client-side layout-cache summary
    #: (:class:`repro.pfs.filesystem.CacheStats`: hit/miss/coalesce/
    #: invalidation/stale counters) when ``Testbed.mds_cache`` was on;
    #: None on cache-off runs.
    cache: Any = None
    #: Durability summary (:class:`repro.online.rebuild.DurabilityStats`:
    #: rebuild volume, bytes-at-risk exposure, MTTR samples, data-loss and
    #: quorum-write counts) when the run had a rebuild manager or quorum
    #: writes; None otherwise.
    durability: Any = None

    @property
    def throughput(self) -> float:
        """Aggregate bytes/second."""
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def throughput_mib(self) -> float:
        """Aggregate MiB/second — the figures' y-axis."""
        return self.throughput / MiB


class _Run:
    """One simulation run's lifecycle, shared by every harness entry point.

    Construction builds the simulator, the optional event tracer
    (``trace=None`` defers to ``REPRO_TRACE``) and exactly one filesystem
    via ``testbed.build(sim)``, then installs the fault schedule (seeded by
    ``fault_seed``, default the testbed's), the retry policy, quorum writes
    (``write_quorum=k``) and a rebuild manager (``rebuild``: a
    :class:`repro.online.rebuild.RebuildConfig` or ``True``). A driver
    spawns its work on ``sim``/``pfs``, advances with :meth:`run`, and ends
    with :meth:`result` — the only code filling ``RunResult``'s payloads.
    """

    def __init__(
        self,
        testbed: Testbed,
        trace: bool | None = False,
        faults: Any = None,
        fault_seed: int | None = None,
        retry: Any = None,
        rebuild: Any = None,
        write_quorum: int | None = None,
    ):
        self.sim = Simulator()
        self.tracer = None
        if trace or (trace is None and tracing_enabled()):
            self.tracer = EventTracer()
            self.sim.tracer = self.tracer
        self.pfs = testbed.build(self.sim)
        self.injector = None
        if faults is not None:
            from repro.faults.injector import FaultInjector

            seed = testbed.seed if fault_seed is None else fault_seed
            self.injector = FaultInjector(self.sim, self.pfs, faults, seed=seed).install()
        if retry is not None:
            self.pfs.retry = retry
        self.write_quorum = write_quorum
        if write_quorum is not None:
            if write_quorum < 1:
                raise ValueError(f"write_quorum must be >= 1, got {write_quorum}")
            self.pfs.write_quorum = write_quorum
        self.rebuild = None
        if rebuild is not None and rebuild is not False:
            from repro.online.rebuild import RebuildConfig, RebuildManager

            config = rebuild if isinstance(rebuild, RebuildConfig) else RebuildConfig()
            self.rebuild = RebuildManager(
                self.pfs,
                duty_cycle=config.duty_cycle,
                chunk_size=config.chunk_size,
                fail_on_loss=config.fail_on_loss,
            )
        self.mds_failed = False

    def open(
        self,
        n_ranks: int,
        layout: LayoutPolicy | RegionStripeTable,
        file_name: str = "shared.dat",
        collector: TraceCollector | None = None,
        n_aggregators: int | None = None,
    ) -> tuple[SimMPI, MPIIOFile]:
        """A fresh ``n_ranks``-rank world with ``file_name`` open on it."""
        world = SimMPI(self.sim, n_ranks, network=self.pfs.network)
        if collector is not None:
            collector.sim = self.sim  # Trace timestamps follow this run's clock.
        mf = MPIIOFile.open(
            world.comm, self.pfs, file_name, layout, collector=collector,
            n_aggregators=n_aggregators,
        )
        return world, mf

    def run(self, until: Any) -> None:
        """Advance the simulation until ``until`` fires.

        Degraded metadata (a crashed, unrecovered shard) under an injected
        fault schedule is an outcome — ``RunResult.mds.failed`` — not a
        traceback; without an injector it can only be a bug, so it raises.
        """
        try:
            self.sim.run(until)
        except MetadataUnavailable:
            if self.injector is None:
                raise
            self.mds_failed = True

    def result(
        self,
        layout_name: str,
        total_bytes: int,
        makespan: float | None = None,
        serving: Any = None,
    ) -> RunResult:
        """Close the run and package its outcome.

        ``makespan`` defaults to the current clock. It is taken *before*
        outstanding rebuild work drains on its own simulated time, so
        restoring redundancy never inflates the foreground numbers.
        """
        sim, pfs = self.sim, self.pfs
        if makespan is None:
            makespan = sim.now
        durability = None
        if self.rebuild is not None:
            if self.rebuild.active or self.rebuild.pending:
                sim.run(sim.process(self.rebuild.drain()))
            durability = self.rebuild.stats()
        elif self.write_quorum is not None:
            from repro.online.rebuild import quorum_only_stats

            durability = quorum_only_stats(pfs)
        obs = None
        if self.tracer is not None:
            obs = collect_snapshot(self.tracer, pfs, makespan=sim.now)
        mds = None
        mds_stats = getattr(pfs.mds, "stats", None)
        if mds_stats is not None:
            # Expected namespace: every live handle's name and committed
            # layout generation, so the cluster's lost-entries check covers
            # exactly what clients would ask for after the run.
            expected = {name: handle.layout_generation for name, handle in pfs._files.items()}
            mds = mds_stats(expected=expected, failed=self.mds_failed)
        return RunResult(
            layout_name=layout_name,
            makespan=makespan,
            total_bytes=total_bytes,
            server_busy=pfs.server_busy_times(),
            obs=obs,
            faults=self.injector.stats() if self.injector is not None else None,
            integrity=pfs.integrity.stats() if pfs.integrity is not None else None,
            serving=serving,
            mds=mds,
            cache=pfs.mds_cache.stats() if pfs.mds_cache is not None else None,
            durability=durability,
        )


def run_workload(
    testbed: Testbed,
    workload: Workload | RequestBatch,
    layout: LayoutPolicy | RegionStripeTable,
    layout_name: str | None = None,
    collector: TraceCollector | None = None,
    file_name: str = "shared.dat",
    trace: bool | None = None,
    faults: Any = None,
    retry: Any = None,
    rebuild: Any = None,
    write_quorum: int | None = None,
    force_general: bool = False,
) -> RunResult:
    """Execute one workload under one layout on a fresh simulated cluster.

    ``workload`` is a workload object, whose rank programs run on a world
    of its process count, or a :class:`~repro.pfs.batch.RequestBatch`,
    submitted open loop in one call from a one-rank world (any closed-loop
    ``ranks`` and ``depth`` columns are ignored).

    ``trace`` attaches a DES event tracer (:mod:`repro.obs`) and returns
    spans + per-server metrics in ``RunResult.obs``. ``None`` (default)
    defers to the ``REPRO_TRACE`` environment switch, which forked pool
    workers inherit — so a traced sweep merges per-worker snapshots with
    :func:`repro.obs.merge_snapshots` afterwards. Tracing never changes
    simulated times: the traced path samples the same device streams in
    the same order.

    ``faults`` (a :class:`repro.faults.FaultSchedule`) injects the given
    fault events into the run; ``retry`` (a
    :class:`repro.faults.RetryPolicy`) makes the client stack time out,
    back off, and fail over instead of blocking on dead servers. Both are
    seed-deterministic, and with both left ``None`` this function is
    byte-for-byte the fault-free harness.

    ``rebuild`` (a :class:`repro.online.rebuild.RebuildConfig`, or ``True``
    for the defaults) attaches a rebuild manager that re-replicates crashed
    servers' placements and backfills restored ones; ``write_quorum=k``
    acknowledges replicated writes at ``k`` durable copies. Both default off
    and leave fault-free runs byte-identical to builds without them; the
    outcome rides back in ``RunResult.durability``.

    A batch, and a workload whose rank program is the closed loop of its
    ``request_batch()`` (``closed_loop = True``: IOR at any queue depth,
    the synthetic region workload), run on the fast tiers of
    :mod:`repro.pfs.batch_exec` when :meth:`PFSFile.take_fast_path
    <repro.pfs.filesystem.PFSFile.take_fast_path>` allows — bit-identical,
    without a process per request. Otherwise the batch spawns one process
    per request and the workload runs its rank programs; the refusal is
    counted in ``pfs.batch_fallbacks``. ``force_general=True`` pins that
    general path (the parity baseline), and an IOSIG ``collector`` pins it
    for a closed loop, whose rank-program calls it records.
    """
    run = _Run(testbed, trace, faults, retry=retry, rebuild=rebuild, write_quorum=write_quorum)
    if isinstance(workload, RequestBatch):
        _, mf = run.open(1, layout, file_name, collector)
        run.run(mf.request_batch(workload, force_general=force_general))
        total_bytes = workload.total_bytes
    else:
        world, mf = run.open(
            workload_processes(workload),
            layout,
            file_name,
            collector,
            n_aggregators=getattr(getattr(workload, "config", None), "n_aggregators", None),
        )
        reason = None
        if force_general:
            reason = "forced"
        elif collector is not None:
            reason = "collector"  # The collector records per rank-program call.
        batch = workload.request_batch() if getattr(workload, "closed_loop", False) else None
        if batch is not None and mf.handle.take_fast_path(batch, reason):
            run.run(mf.handle.replay(batch))
        else:
            run.run(world.spawn(workload.rank_program(mf)))
        total_bytes = workload_bytes(workload)
    if layout_name is None:
        layout_name = mf.handle.layout.describe()
    return run.result(layout_name, total_bytes)


def run_workload_batched(
    testbed: Testbed, workload: Any, layout: LayoutPolicy | RegionStripeTable, **kwargs: Any
) -> RunResult:
    """Deprecated alias: :func:`run_workload` on ``workload`` as one batch.

    ``workload`` is a :class:`~repro.pfs.batch.RequestBatch` or any
    workload object exposing ``request_batch()``.
    """
    return run_workload(
        testbed,
        workload if isinstance(workload, RequestBatch) else workload.request_batch(),
        layout,
        **kwargs,
    )


def run_serving(
    testbed: Testbed,
    scenario: Any,
    faults: Any = None,
    retry: Any = None,
    trace: bool | None = None,
) -> RunResult:
    """Run a multi-tenant serving scenario on a fresh simulated cluster.

    ``scenario`` is a :class:`repro.serving.ServingScenario`: per-tenant
    arrival processes, QoS tiers (WFQ weight + replicas + hedging), token
    buckets, and admission bounds. Per-tenant latency histograms and hedge
    counters land in ``RunResult.serving`` (a picklable
    :class:`~repro.serving.frontend.ServingResult`); ``trace``/``faults``/
    ``retry`` behave exactly as in :func:`run_workload`, except that the
    fault injector is seeded from the scenario. Same (seed, scenario,
    schedule) ⇒ identical results, serial or ``--jobs N``.
    """
    from repro.serving.frontend import simulate_scenario

    scenario.validate()
    if scenario.fair_share and testbed.disk_scheduler == "fifo":
        testbed = replace(testbed, disk_scheduler="wfq")
    run = _Run(testbed, trace, faults, fault_seed=scenario.seed, retry=retry)
    serving = simulate_scenario(run.pfs, scenario)
    total_bytes = sum(t.bytes_read + t.bytes_written for t in serving.tenants)
    return run.result(
        f"serving[{len(serving.tenants)} tenants]", total_bytes, serving=serving
    )


def harl_plan(
    testbed: Testbed,
    workload: Workload,
    step: int | None = None,
    max_requests_per_region: int = 256,
    report_sink: list | None = None,
    **planner_kwargs: Any,
) -> RegionStripeTable:
    """Tracing + Analysis phases for a workload on a testbed.

    Uses the workload's synthetic trace (what a profiling run's IOSIG
    collector would record) and the testbed's calibrated parameters, probed
    at the workload's request scale (Sec. III-G recalibrates per I/O
    pattern). The default grid step is coarser than the paper's 4 KB to keep
    sweeps fast; the step-size ablation bench quantifies the precision cost.

    ``report_sink``, when given, receives the planner's
    :class:`~repro.core.planner.PlanReport` (cache traffic, regions) so
    callers can re-export it into an observability registry.
    """
    trace = workload.synthetic_trace()
    mean_request = int(sum(r.size for r in trace) / len(trace)) if trace else None
    planner = HARLPlanner(
        testbed.parameters(request_hint=mean_request),
        step=step,
        max_requests_per_region=max_requests_per_region,
        **planner_kwargs,
    )
    rst = planner.plan(trace)
    if report_sink is not None and planner.last_report is not None:
        report_sink.append(planner.last_report)
    return rst


@dataclass(frozen=True)
class ConcurrentRunResult:
    """Outcome of several applications sharing one cluster."""

    makespan: float
    per_app: dict[str, RunResult]

    @property
    def aggregate_throughput_mib(self) -> float:
        total = sum(result.total_bytes for result in self.per_app.values())
        return total / self.makespan / MiB if self.makespan > 0 else 0.0


def run_concurrent_workloads(
    testbed: Testbed,
    apps: list[tuple[str, Workload, LayoutPolicy | RegionStripeTable]],
    ) -> ConcurrentRunResult:
    """Run several applications simultaneously on one shared cluster.

    Each app gets its own file and its own communicator (its ranks), all
    contending for the same servers — the paper's Discussion scenario of
    "multiple applications with varying I/O workloads", where HARL is
    applied "on different workloads separately". Per-app results measure
    each app's own makespan; the cluster-level makespan covers all of them.
    """
    if not apps:
        raise ValueError("need at least one application")
    run = _Run(testbed)
    sim = run.sim
    finish_times: dict[str, float] = {}
    joins = []
    for name, workload, layout in apps:
        world, mf = run.open(
            workload_processes(workload),
            layout,
            f"{name}.dat",
            n_aggregators=getattr(getattr(workload, "config", None), "n_aggregators", None),
        )
        done = world.spawn(workload.rank_program(mf))

        def track(done=done, name=name):
            yield done
            finish_times[name] = sim.now

        joins.append(sim.process(track()))
    run.run(sim.all_of(joins))
    shared = run.result("", 0)
    per_app = {
        name: replace(
            shared,
            layout_name=name,
            makespan=finish_times[name],
            total_bytes=workload_bytes(workload),
        )
        for name, workload, _ in apps
    }
    return ConcurrentRunResult(makespan=shared.makespan, per_app=per_app)


@dataclass(frozen=True)
class ReplicatedResult:
    """A (workload, layout) outcome replicated over testbed seeds."""

    layout_name: str
    results: tuple[RunResult, ...]

    @property
    def mean_throughput(self) -> float:
        return sum(r.throughput for r in self.results) / len(self.results)

    @property
    def std_throughput(self) -> float:
        mean = self.mean_throughput
        return (sum((r.throughput - mean) ** 2 for r in self.results) / len(self.results)) ** 0.5

    @property
    def mean_throughput_mib(self) -> float:
        return self.mean_throughput / MiB

    @property
    def cv(self) -> float:
        """Relative run-to-run spread (std/mean)."""
        return self.std_throughput / self.mean_throughput if self.mean_throughput else 0.0


def run_replicated(
    testbed: Testbed,
    workload: Workload,
    layout: LayoutPolicy | RegionStripeTable,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    layout_name: str | None = None,
) -> ReplicatedResult:
    """Repeat :func:`run_workload` over testbeds with different device seeds.

    The paper reports single runs; replication quantifies how much of any
    layout's advantage is device-latency luck (the answer should be: none —
    startup draws average out over thousands of sub-requests).
    """
    results = []
    for seed in seeds:
        seeded = replace(testbed, seed=seed, _params_by_bucket=None)
        results.append(run_workload(seeded, workload, layout, layout_name=layout_name))
    return ReplicatedResult(
        layout_name=results[0].layout_name, results=tuple(results)
    )


@dataclass
class ComparisonTable:
    """Layout-sweep results for one workload, printable as a figure table."""

    title: str
    results: list[RunResult] = field(default_factory=list)

    def best(self) -> RunResult:
        return max(self.results, key=lambda r: r.throughput)

    def result(self, layout_name: str) -> RunResult:
        for r in self.results:
            if r.layout_name == layout_name:
                return r
        raise KeyError(f"no result for layout {layout_name!r}")

    def improvement_over(self, baseline_name: str, target_name: str | None = None) -> float:
        """Fractional throughput gain of ``target`` (default: best) over a baseline."""
        baseline = self.result(baseline_name)
        target = self.best() if target_name is None else self.result(target_name)
        return target.throughput / baseline.throughput - 1.0

    def render(self) -> str:
        width = max(len(r.layout_name) for r in self.results) + 2
        lines = [self.title, f"{'layout':<{width}} {'MiB/s':>10}  {'makespan(s)':>12}"]
        for r in self.results:
            lines.append(f"{r.layout_name:<{width}} {r.throughput_mib:>10.1f}  {r.makespan:>12.4f}")
        return "\n".join(lines)


def compare_layouts(
    testbed: Testbed,
    workload: Workload,
    layouts: dict[str, LayoutPolicy | RegionStripeTable],
    title: str = "layout comparison",
    jobs: int | None = None,
) -> ComparisonTable:
    """Run ``workload`` under every layout and tabulate throughputs.

    ``jobs`` fans the per-layout runs over a process pool; each run builds
    its own simulator from the picklable testbed, so results — collected in
    layout order — match serial execution exactly.
    """
    from repro.experiments.parallel import RunJob, run_jobs

    job_list = [
        RunJob(testbed=testbed, workload=workload, layout=layout, layout_name=name)
        for name, layout in layouts.items()
    ]
    return ComparisonTable(title=title, results=run_jobs(job_list, jobs=jobs))
