"""One entry point per paper figure (Sec. IV evaluation).

Every function builds the paper's testbed (6 HServers + 2 SServers unless
the figure varies it), runs the figure's workload sweep under the compared
layouts, and returns a structured result with a ``render()`` table matching
the figure's series. File sizes are scaled down from the paper's 16 GB to
keep simulated event counts tractable; the scaling never changes who wins
because all quantities (queue depths, per-request service times) are
intensive. EXPERIMENTS.md records paper-vs-measured numbers.

Layout name conventions follow the figure legends: ``"64K"`` is a
fixed-size stripe of 64 KB on every server (the OrangeFS default),
``"rand#i"`` a randomly chosen stripe pair, ``"HARL"`` the planned
region-level layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rst import RegionStripeTable
from repro.devices.base import OpType
from repro.experiments.harness import ComparisonTable, Testbed, compare_layouts
from repro.experiments.parallel import PlanJob, RunJob, run_jobs
from repro.pfs.layout import FixedLayout, LayoutPolicy, RandomLayout
from repro.util.units import KiB, MiB, format_size
from repro.workloads.btio import BTIOConfig, BTIOWorkload
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload

#: The fixed stripe sizes every comparison sweeps (Fig. 7's x-axis).
FIXED_STRIPES: tuple[int, ...] = (16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB)

#: The default (OrangeFS) stripe the paper normalizes improvements against.
DEFAULT_STRIPE: int = 64 * KiB


def default_testbed(n_hservers: int = 6, n_sservers: int = 2, seed: int = 0) -> Testbed:
    """The paper's default cluster: six HServers, two SServers."""
    return Testbed(n_hservers=n_hservers, n_sservers=n_sservers, seed=seed)


def fixed_layouts(
    testbed: Testbed, stripes: tuple[int, ...] = FIXED_STRIPES
) -> dict[str, LayoutPolicy]:
    """The fixed-size stripe baselines, keyed by figure-legend name."""
    return {
        format_size(stripe): FixedLayout(testbed.n_hservers, testbed.n_sservers, stripe)
        for stripe in stripes
    }


def random_layouts(testbed: Testbed, seeds: tuple[int, ...] = (1, 2)) -> dict[str, LayoutPolicy]:
    """The randomly-chosen stripe baselines."""
    return {
        f"rand#{seed}": RandomLayout(testbed.n_hservers, testbed.n_sservers, seed=seed)
        for seed in seeds
    }


@dataclass
class FigureResult:
    """Generic figure output: one comparison table per series."""

    figure: str
    tables: list[ComparisonTable] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        blocks = [f"=== {self.figure} ==="]
        blocks.extend(table.render() for table in self.tables)
        blocks.extend(self.notes)
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Figure 1(a): per-server I/O time under the default fixed layout
# ---------------------------------------------------------------------------


@dataclass
class Fig1aResult:
    """Per-server busy time, normalized to the fastest server."""

    busy: dict[str, float]
    normalized: dict[str, float]
    hserver_to_sserver_ratio: float

    def render(self) -> str:
        lines = ["=== Fig 1(a): per-server I/O time, 64K fixed stripes ==="]
        lines.append(f"{'server':<12} {'busy(s)':>10} {'normalized':>11}")
        for name, busy in self.busy.items():
            lines.append(f"{name:<12} {busy:>10.4f} {self.normalized[name]:>10.2f}x")
        lines.append(f"mean HServer/SServer busy-time ratio: {self.hserver_to_sserver_ratio:.2f}x")
        return "\n".join(lines)


def fig1a(
    testbed: Testbed | None = None,
    file_size: int = 32 * MiB,
    n_processes: int = 16,
    request_size: int = 512 * KiB,
    jobs: int | None = None,
) -> Fig1aResult:
    """IOR, 512 KB requests, 16 processes, 64K default layout: server imbalance.

    Runs a write pass and a read pass (the benchmark's natural order) and
    aggregates disk busy time per server. The paper observes HServers at
    roughly 350% of SServer time.
    """
    testbed = testbed or default_testbed()
    layout = FixedLayout(testbed.n_hservers, testbed.n_sservers, DEFAULT_STRIPE)
    job_list = [
        RunJob(
            testbed=testbed,
            workload=IORWorkload(
                IORConfig(
                    n_processes=n_processes,
                    request_size=request_size,
                    file_size=file_size,
                    op=op,
                )
            ),
            layout=layout,
            layout_name="64K",
        )
        for op in (OpType.WRITE, OpType.READ)
    ]
    busy: dict[str, float] = {}
    for result in run_jobs(job_list, jobs=jobs):
        for server, seconds in result.server_busy.items():
            busy[server] = busy.get(server, 0.0) + seconds
    floor = min(busy.values())
    normalized = {name: value / floor for name, value in busy.items()}
    h_busy = [v for k, v in busy.items() if k.startswith("hserver")]
    s_busy = [v for k, v in busy.items() if k.startswith("sserver")]
    ratio = (sum(h_busy) / len(h_busy)) / (sum(s_busy) / len(s_busy))
    return Fig1aResult(busy=busy, normalized=normalized, hserver_to_sserver_ratio=ratio)


# ---------------------------------------------------------------------------
# Figure 1(b): throughput vs (request size × fixed stripe size)
# ---------------------------------------------------------------------------


@dataclass
class Fig1bResult:
    """Throughput matrix: rows = request sizes, columns = stripe sizes."""

    request_sizes: tuple[int, ...]
    stripe_sizes: tuple[int, ...]
    throughput_mib: dict[tuple[int, int], float]

    def best_stripe_for(self, request_size: int) -> int:
        """The stripe size maximizing throughput for one request size."""
        return max(self.stripe_sizes, key=lambda st: self.throughput_mib[(request_size, st)])

    def render(self) -> str:
        header = "req\\stripe " + " ".join(f"{format_size(s):>8}" for s in self.stripe_sizes)
        lines = ["=== Fig 1(b): IOR throughput (MiB/s), request size x fixed stripe ===", header]
        for request in self.request_sizes:
            row = " ".join(
                f"{self.throughput_mib[(request, stripe)]:>8.1f}" for stripe in self.stripe_sizes
            )
            lines.append(f"{format_size(request):>10} {row}")
        return "\n".join(lines)


def fig1b(
    testbed: Testbed | None = None,
    request_sizes: tuple[int, ...] = (128 * KiB, 512 * KiB, 1024 * KiB, 2048 * KiB),
    stripe_sizes: tuple[int, ...] = (16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB, 2048 * KiB),
    requests_per_process: int = 8,
    n_processes: int = 16,
    op: OpType | str = OpType.WRITE,
    jobs: int | None = None,
) -> Fig1bResult:
    """The stripe/request-size interaction sweep motivating region layouts."""
    testbed = testbed or default_testbed()
    cells: list[tuple[int, int]] = []
    job_list: list[RunJob] = []
    for request in request_sizes:
        workload = IORWorkload(
            IORConfig(
                n_processes=n_processes,
                request_size=request,
                file_size=n_processes * requests_per_process * request,
                op=op,
            )
        )
        for stripe in stripe_sizes:
            cells.append((request, stripe))
            job_list.append(
                RunJob(
                    testbed=testbed,
                    workload=workload,
                    layout=FixedLayout(testbed.n_hservers, testbed.n_sservers, stripe),
                    layout_name=format_size(stripe),
                )
            )
    throughput = {
        cell: result.throughput_mib
        for cell, result in zip(cells, run_jobs(job_list, jobs=jobs))
    }
    return Fig1bResult(
        request_sizes=tuple(request_sizes),
        stripe_sizes=tuple(stripe_sizes),
        throughput_mib=throughput,
    )


# ---------------------------------------------------------------------------
# Figure 6: the Region Stripe Table artifact
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    """A planned RST rendered in the paper's table format."""

    rst: RegionStripeTable
    merged: RegionStripeTable

    def render(self) -> str:
        parts = [
            "=== Fig 6: Region Stripe Table (planned from a non-uniform trace) ===",
            self.rst.describe_table(),
        ]
        if len(self.merged) != len(self.rst):
            parts.append(
                f"after adjacent-region merging: {len(self.rst)} -> {len(self.merged)} regions"
            )
        return "\n\n".join(parts)


def fig6(testbed: Testbed | None = None) -> Fig6Result:
    """Produce a real RST like the paper's Fig. 6 example.

    Plans a three-phase non-uniform file (distinct request sizes per phase)
    and returns the resulting table before and after merging.
    """
    from repro.core.planner import HARLPlanner

    testbed = testbed or default_testbed()
    workload = SyntheticRegionWorkload(
        regions=[
            RegionSpec(size=8 * MiB, request_size=64 * KiB),
            RegionSpec(size=16 * MiB, request_size=1024 * KiB, coverage=0.5),
            RegionSpec(size=8 * MiB, request_size=256 * KiB),
        ],
        n_processes=16,
        op="write",
    )
    planner = HARLPlanner(
        testbed.parameters(request_hint=512 * KiB), step=None, merge_regions=False
    )
    rst = planner.plan(workload.synthetic_trace())
    return Fig6Result(rst=rst, merged=rst.merged())


# ---------------------------------------------------------------------------
# Figures 7-10: IOR layout comparisons (the core evaluation)
# ---------------------------------------------------------------------------


@dataclass
class IORComparisonResult(FigureResult):
    """IOR sweep result plus the HARL stripe choices per series."""

    harl_tables: dict[str, RegionStripeTable] = field(default_factory=dict)

    def harl_choice(self, series: str) -> str:
        rst = self.harl_tables[series]
        return ", ".join(e.config.describe() for e in rst.entries)

    def render(self) -> str:
        base = super().render()
        choices = [f"HARL[{k}]: {self.harl_choice(k)}" for k in self.harl_tables]
        return base + "\n\n" + "\n".join(choices)


def _ior_comparison(
    figure: str,
    testbed: Testbed,
    configs: dict[str, IORConfig],
    stripes: tuple[int, ...] = FIXED_STRIPES,
    random_seeds: tuple[int, ...] = (1, 2),
    harl_step: int | None = None,
    jobs: int | None = None,
) -> IORComparisonResult:
    """Shared engine for Figs. 7-10: per series, sweep fixed/random/HARL.

    Two fan-out rounds: first every series' HARL plan (tracing + Algorithms
    1-2), then the flat (series x layout) run matrix. Each point is an
    independent simulation on a fresh simulator, so ``jobs`` parallelism
    reorders nothing — tables assemble from the ordered result list.
    """
    result = IORComparisonResult(figure=figure)
    series_names = list(configs)
    workloads = {series: IORWorkload(config) for series, config in configs.items()}
    plans = run_jobs(
        [
            PlanJob(testbed=testbed, workload=workloads[series], step=harl_step)
            for series in series_names
        ],
        jobs=jobs,
    )
    run_list: list[RunJob] = []
    spans: list[tuple[str, int, int]] = []
    for series, rst in zip(series_names, plans):
        result.harl_tables[series] = rst
        layouts: dict[str, LayoutPolicy | RegionStripeTable] = {}
        layouts.update(fixed_layouts(testbed, stripes))
        layouts.update(random_layouts(testbed, random_seeds))
        layouts["HARL"] = rst
        start = len(run_list)
        run_list.extend(
            RunJob(
                testbed=testbed,
                workload=workloads[series],
                layout=layout,
                layout_name=name,
            )
            for name, layout in layouts.items()
        )
        spans.append((series, start, len(run_list)))
    run_results = run_jobs(run_list, jobs=jobs)
    for series, start, end in spans:
        result.tables.append(
            ComparisonTable(title=f"{figure} [{series}]", results=run_results[start:end])
        )
    return result


def fig7(
    testbed: Testbed | None = None,
    file_size: int = 32 * MiB,
    n_processes: int = 16,
    request_size: int = 512 * KiB,
    jobs: int | None = None,
) -> IORComparisonResult:
    """IOR read/write throughput across layouts (the headline comparison).

    Paper: HARL's optima are {32K, 160K} for reads and {36K, 148K} for
    writes; +73.4% read / +176.7% write over the 64K default.
    """
    testbed = testbed or default_testbed()
    configs = {
        op.value: IORConfig(
            n_processes=n_processes, request_size=request_size, file_size=file_size, op=op
        )
        for op in (OpType.READ, OpType.WRITE)
    }
    return _ior_comparison("Fig 7: IOR layouts", testbed, configs, jobs=jobs)


def fig8(
    testbed: Testbed | None = None,
    process_counts: tuple[int, ...] = (8, 32, 128, 256),
    request_size: int = 512 * KiB,
    requests_per_process: int = 8,
    ops: tuple[OpType, ...] = (OpType.READ, OpType.WRITE),
    jobs: int | None = None,
) -> IORComparisonResult:
    """IOR throughput vs process count (scalability)."""
    testbed = testbed or default_testbed()
    configs = {}
    for op in ops:
        for n in process_counts:
            configs[f"{op.value}/p{n}"] = IORConfig(
                n_processes=n,
                request_size=request_size,
                file_size=n * requests_per_process * request_size,
                op=op,
            )
    return _ior_comparison(
        "Fig 8: process scaling",
        testbed,
        configs,
        stripes=(64 * KiB, 256 * KiB),
        random_seeds=(1,),
        jobs=jobs,
    )


def fig9(
    testbed: Testbed | None = None,
    request_sizes: tuple[int, ...] = (128 * KiB, 1024 * KiB),
    n_processes: int = 16,
    requests_per_process: int = 8,
    ops: tuple[OpType, ...] = (OpType.READ, OpType.WRITE),
    jobs: int | None = None,
) -> IORComparisonResult:
    """IOR throughput vs request size.

    Paper: at 128 KB the optimum is {0K, 64K} — SServers only; at 1024 KB
    HARL uses both classes.
    """
    testbed = testbed or default_testbed()
    configs = {}
    for op in ops:
        for request in request_sizes:
            configs[f"{op.value}/{format_size(request)}"] = IORConfig(
                n_processes=n_processes,
                request_size=request,
                file_size=n_processes * requests_per_process * request,
                op=op,
            )
    return _ior_comparison("Fig 9: request sizes", testbed, configs, jobs=jobs)


def fig10(
    ratios: tuple[tuple[int, int], ...] = ((7, 1), (2, 6)),
    file_size: int = 32 * MiB,
    n_processes: int = 16,
    request_size: int = 512 * KiB,
    seed: int = 0,
    ops: tuple[OpType, ...] = (OpType.READ, OpType.WRITE),
    jobs: int | None = None,
) -> IORComparisonResult:
    """IOR throughput vs HServer:SServer ratio.

    Paper: gains grow with SServer share; with many SServers HARL places
    files on SServers only.
    """
    result = IORComparisonResult(figure="Fig 10: server ratios")
    for n_h, n_s in ratios:
        testbed = default_testbed(n_hservers=n_h, n_sservers=n_s, seed=seed)
        configs = {
            f"{op.value}/{n_h}H:{n_s}S": IORConfig(
                n_processes=n_processes, request_size=request_size, file_size=file_size, op=op
            )
            for op in ops
        }
        partial = _ior_comparison(result.figure, testbed, configs, random_seeds=(1,), jobs=jobs)
        result.tables.extend(partial.tables)
        result.harl_tables.update(partial.harl_tables)
    return result


# ---------------------------------------------------------------------------
# Figure 11: non-uniform four-region workload
# ---------------------------------------------------------------------------


def fig11(
    testbed: Testbed | None = None,
    scale: int = 16,
    n_processes: int = 16,
    ops: tuple[OpType, ...] = (OpType.READ, OpType.WRITE),
    coverage: float = 0.5,
    jobs: int | None = None,
) -> IORComparisonResult:
    """Modified IOR over a four-region file (256M/1G/2G/4G in the paper).

    ``scale`` divides the paper's region sizes; per-region request sizes
    differ so no single stripe pair fits the whole file.
    """
    testbed = testbed or default_testbed()
    region_sizes = (256 * MiB // scale, 1024 * MiB // scale, 2048 * MiB // scale, 4096 * MiB // scale)
    request_sizes = (64 * KiB, 1024 * KiB, 256 * KiB, 512 * KiB)
    result = IORComparisonResult(figure="Fig 11: non-uniform workload")
    workloads = {
        op: SyntheticRegionWorkload(
            regions=[
                RegionSpec(size=size, request_size=request, coverage=coverage)
                for size, request in zip(region_sizes, request_sizes)
            ],
            n_processes=n_processes,
            op=op,
        )
        for op in ops
    }
    plans = run_jobs(
        [PlanJob(testbed=testbed, workload=workloads[op]) for op in ops], jobs=jobs
    )
    for op, rst in zip(ops, plans):
        layouts: dict[str, LayoutPolicy | RegionStripeTable] = {}
        layouts.update(fixed_layouts(testbed))
        layouts.update(random_layouts(testbed, (1,)))
        layouts["HARL"] = rst
        result.harl_tables[op.value] = rst
        result.tables.append(
            compare_layouts(
                testbed,
                workloads[op],
                layouts,
                title=f"{result.figure} [{op.value}]",
                jobs=jobs,
            )
        )
        result.notes.append(f"HARL[{op.value}] regions:\n{rst.describe_table()}")
    return result


# ---------------------------------------------------------------------------
# Figure 12: BTIO
# ---------------------------------------------------------------------------


def fig12(
    process_counts: tuple[int, ...] = (4, 16, 64),
    grid: int = 48,
    timesteps: int = 20,
    write_interval: int = 5,
    testbed: Testbed | None = None,
    jobs: int | None = None,
) -> IORComparisonResult:
    """BTIO (class-A-shaped, scaled grid) under collective I/O across layouts."""
    testbed = testbed or default_testbed()
    result = IORComparisonResult(figure="Fig 12: BTIO")
    workloads = {
        n: BTIOWorkload(
            BTIOConfig(
                n_processes=n, grid=grid, timesteps=timesteps, write_interval=write_interval
            )
        )
        for n in process_counts
    }
    plans = run_jobs(
        [PlanJob(testbed=testbed, workload=workloads[n]) for n in process_counts],
        jobs=jobs,
    )
    for n, rst in zip(process_counts, plans):
        layouts: dict[str, LayoutPolicy | RegionStripeTable] = {}
        layouts.update(fixed_layouts(testbed))
        layouts["HARL"] = rst
        result.harl_tables[f"p{n}"] = rst
        result.tables.append(
            compare_layouts(
                testbed, workloads[n], layouts, title=f"{result.figure} [P={n}]", jobs=jobs
            )
        )
    return result


# ---------------------------------------------------------------------------
# MDS contention: open-storm lookup throughput vs shards × client cache
# ---------------------------------------------------------------------------


@dataclass
class MdsContentionRow:
    """One (shard count, cache on/off) open-storm outcome."""

    shards: int
    cached: bool
    makespan: float
    ops_per_second: float
    mean_hops: float
    hits: int
    misses: int
    coalesced: int
    stale_hits: int


@dataclass
class MdsContentionResult:
    """Open-storm sweep: makespan/ops-per-second vs shard count × cache.

    The storm opens one shared hot file, so every uncached consult routes
    to the same owner shard — adding shards buys nothing but ring hops,
    which is exactly the paper's metadata-overhead worry (Sec. III-C) at
    cluster scale. The client-side layout cache collapses the storm to one
    consult (leader) plus coalesced/hit returns; ``speedup`` reports the
    cached-over-uncached lookup-throughput recovery per shard count.
    """

    routing: str
    n_ops: int
    profile: str
    rows: list[MdsContentionRow] = field(default_factory=list)

    def speedup(self, shards: int) -> float:
        """Cached-over-uncached ops/s ratio at one shard count."""
        by_mode = {row.cached: row for row in self.rows if row.shards == shards}
        if True not in by_mode or False not in by_mode:
            raise KeyError(f"no cached/uncached pair for shards={shards}")
        uncached = by_mode[False].ops_per_second
        return by_mode[True].ops_per_second / uncached if uncached else 0.0

    def render(self) -> str:
        lines = [
            f"=== MDS contention: {self.n_ops} opens, one hot file, "
            f"{self.routing} routing, {self.profile} profile ==="
        ]
        lines.append(
            f"{'shards':>6} {'cache':>6} {'makespan(s)':>12} {'ops/s':>12} "
            f"{'hops/op':>8} {'hits':>7} {'coalesced':>9} {'stale':>6}"
        )
        for row in self.rows:
            lines.append(
                f"{row.shards:>6} {'on' if row.cached else 'off':>6} "
                f"{row.makespan:>12.6f} {row.ops_per_second:>12.0f} "
                f"{row.mean_hops:>8.2f} {row.hits:>7} {row.coalesced:>9} "
                f"{row.stale_hits:>6}"
            )
        shard_counts = sorted({row.shards for row in self.rows})
        speedups = ", ".join(
            f"{s} shards: {self.speedup(s):.1f}x" for s in shard_counts
        )
        lines.append(f"cached lookup-throughput recovery — {speedups}")
        return "\n".join(lines)


def fig_mds_contention(
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    routing: str = "finger",
    n_ops: int = 4096,
    n_processes: int = 16,
    spread: float = 0.0,
    profile: str = "calibrated",
    jobs: int | None = None,
) -> MdsContentionResult:
    """Open-storm metadata sweep over shard count × cache on/off.

    Every point replays the same :class:`~repro.workloads.metadata.
    MetadataWorkload` storm as one columnar batch (the sharded-MDS fast
    path) on a small data testbed — the storm moves zero bytes, so servers
    beyond the minimum are dead weight. Points are independent
    :class:`RunJob` specs and fan out under ``--jobs``.
    """
    from repro.workloads.metadata import MetadataConfig, MetadataWorkload

    batch = MetadataWorkload(
        MetadataConfig(n_ops=n_ops, n_processes=n_processes, spread=spread)
    ).request_batch()
    layout = FixedLayout(2, 1, DEFAULT_STRIPE)
    job_list = [
        RunJob(
            testbed=Testbed(
                n_hservers=2,
                n_sservers=1,
                mds_shards=shards,
                mds_routing=routing,
                mds_profile=profile,
                mds_cache=cached,
            ),
            workload=batch,
            layout=layout,
            layout_name="64K",
        )
        for shards in shard_counts
        for cached in (False, True)
    ]
    result = MdsContentionResult(routing=routing, n_ops=n_ops, profile=profile)
    outcomes = run_jobs(job_list, jobs=jobs)
    for job, outcome in zip(job_list, outcomes):
        cache = outcome.cache
        mds = outcome.mds
        result.rows.append(
            MdsContentionRow(
                shards=job.testbed.mds_shards,
                cached=job.testbed.mds_cache,
                makespan=outcome.makespan,
                ops_per_second=n_ops / outcome.makespan if outcome.makespan else 0.0,
                mean_hops=mds.mean_hops if mds is not None else 0.0,
                hits=cache.hits if cache is not None else 0,
                misses=cache.misses if cache is not None else 0,
                coalesced=cache.coalesced if cache is not None else 0,
                stale_hits=cache.stale_hits if cache is not None else 0,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Durability: rebuild duty cycle vs MTTR and foreground slowdown
# ---------------------------------------------------------------------------


@dataclass
class RebuildRow:
    """One (scenario, rebuild duty cycle) durability outcome."""

    label: str
    duty: float | None
    makespan: float
    slowdown: float
    #: None when no crash batch regained redundancy ("unrestored").
    mttr: float | None
    at_risk_peak: int
    bytes_rebuilt: int
    data_lost_bytes: int
    #: False when no durability accounting ran (rebuild off): the blank
    #: cells mean "nobody was watching", not "nothing was at risk".
    tracked: bool = True


@dataclass
class RebuildResult:
    """Rebuild duty-cycle sweep under a mid-run permanent server crash.

    The tension the sweep exposes is the classic rebuild dilemma: a high
    duty cycle restores redundancy fast (small MTTR, short bytes-at-risk
    exposure window) but steals device time from the foreground workload
    (larger makespan); a low duty cycle is gentle on the foreground but
    leaves the cluster one crash away from data loss for longer. The
    ``2nd-crash`` row lands a second, other-class crash *inside* the
    exposure window. With rebuild off the only other copy dies and bytes
    are permanently lost; with rebuild at full duty the second crash still
    lands before the first crash's placements are restored, so that row
    loses data too and its MTTR reads "unrestored".
    """

    replicas: int
    crash_at: float
    second_crash_at: float
    rows: list[RebuildRow] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"=== Durability: rebuild duty cycle vs MTTR / foreground slowdown "
            f"(replicas={self.replicas}, crash@{self.crash_at:.4f}s) ==="
        ]
        lines.append(
            f"{'scenario':<22} {'duty':>6} {'makespan(s)':>12} {'slowdown':>9} "
            f"{'MTTR(s)':>10} {'at-risk(KiB)':>13} {'rebuilt(KiB)':>13} {'lost(KiB)':>10}"
        )
        for row in self.rows:
            duty = "off" if row.duty is None else f"{row.duty:.2f}"
            if row.tracked:
                mttr = "unrestored" if row.mttr is None else f"{row.mttr:.6f}"
                tail = (
                    f"{mttr:>10} {row.at_risk_peak / KiB:>13.0f} "
                    f"{row.bytes_rebuilt / KiB:>13.0f} {row.data_lost_bytes / KiB:>10.0f}"
                )
            else:
                tail = f"{'-':>10} {'-':>13} {'-':>13} {'-':>10}"
            lines.append(
                f"{row.label:<22} {duty:>6} {row.makespan:>12.6f} "
                f"{row.slowdown:>8.2f}x {tail}"
            )
        lines.append(
            "second crash lands inside the first crash's exposure window: "
            "rebuild-off loses the last copy; duty-cycled rebuild races it."
        )
        return "\n".join(lines)


def fig_rebuild(
    duty_cycles: tuple[float, ...] = (0.25, 1.0),
    replicas: int = 2,
    crash_at: float = 0.002,
    second_crash_at: float = 0.004,
    jobs: int | None = None,
) -> RebuildResult:
    """Durability sweep: rebuild duty cycle vs MTTR and foreground slowdown.

    Four scenario families on a small replicated testbed, all independent
    :class:`RunJob` specs (fanned out under ``--jobs``):

    - ``fault-free`` — the slowdown baseline;
    - ``crash`` with rebuild off — degraded forever (no MTTR, at-risk bytes
      never return to zero);
    - ``crash`` at each rebuild duty cycle — MTTR shrinks as duty rises,
      foreground slowdown grows;
    - ``2nd-crash-in-window`` — the unlucky double crash, rebuild off vs
      full duty. The second crash lands before even full-duty rebuild has
      restored the first, so the rebuild row also loses data and reports an
      unrestored (None) MTTR.
    """
    from repro.faults import FaultSchedule, RetryPolicy, ServerCrash
    from repro.online.rebuild import RebuildConfig

    testbed = Testbed(n_hservers=2, n_sservers=2, seed=0)
    workload = IORWorkload(
        IORConfig(n_processes=4, request_size=64 * KiB, file_size=2 * MiB, seed=0)
    )
    layout = FixedLayout(2, 2, DEFAULT_STRIPE, replicas=replicas)
    retry = RetryPolicy(timeout=None, max_attempts=4, jitter=0.25, seed=7)
    one_crash = FaultSchedule((ServerCrash(crash_at, 0),))
    # The second crash kills a server of the *other* class — where the first
    # victim's surviving copies live — inside the exposure window.
    double_crash = FaultSchedule(
        (ServerCrash(crash_at, 0), ServerCrash(second_crash_at, 2))
    )

    specs: list[tuple[str, float | None, object]] = [("fault-free", None, None)]
    specs.append(("crash, no rebuild", None, one_crash))
    for duty in duty_cycles:
        specs.append(("crash, rebuild", duty, one_crash))
    specs.append(("2nd-crash, no rebuild", None, double_crash))
    specs.append(("2nd-crash, rebuild", max(duty_cycles), double_crash))

    job_list = [
        RunJob(
            testbed=testbed,
            workload=workload,
            layout=layout,
            layout_name=label,
            faults=schedule,
            retry=retry if schedule is not None else None,
            rebuild=RebuildConfig(duty_cycle=duty) if duty is not None else None,
        )
        for label, duty, schedule in specs
    ]
    outcomes = run_jobs(job_list, jobs=jobs)
    baseline = outcomes[0].makespan
    result = RebuildResult(
        replicas=replicas, crash_at=crash_at, second_crash_at=second_crash_at
    )
    for (label, duty, _schedule), outcome in zip(specs, outcomes):
        durability = outcome.durability
        result.rows.append(
            RebuildRow(
                label=label,
                duty=duty,
                makespan=outcome.makespan,
                slowdown=outcome.makespan / baseline if baseline else 0.0,
                mttr=durability.mttr_mean if durability is not None else None,
                at_risk_peak=durability.at_risk_bytes_peak if durability is not None else 0,
                bytes_rebuilt=durability.bytes_rebuilt if durability is not None else 0,
                data_lost_bytes=(
                    durability.data_lost_bytes if durability is not None else 0
                ),
                tracked=durability is not None,
            )
        )
    return result
