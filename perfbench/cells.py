"""The benchmark's workloads: series, layouts, cells and their checks.

A *series* is one workload configuration (an IOR or BTIO run, or one
replay batch). A *cell* is one (series, layout) simulation. A *pass*
plans every series with HARL, simulates every cell and checks each cell's
outputs, the way a fresh process would: the Algorithm 2 stripe cache is
emptied first.

Nothing here imports :mod:`repro` at module level. The caller passes the
namespace that :func:`fresh_import` returns, so set-up can be timed from
a cold import of the program.
"""

from __future__ import annotations

import importlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

KiB = 1024

#: Sizes of each workload. The benchmark's own tests swap in smaller ones.
SIZES = {
    "ior-closed": {"clients": (16, 128), "requests_per_process": 16, "request_size": 512 * KiB},
    "btio-collective": {"processes": (16, 64), "grid": 64, "timesteps": 20, "write_interval": 5},
    "replay-open": {
        "ranks": 16,
        "requests": 1 << 18,
        "request_size": 64 * KiB,
        "parity_requests": 1024,
    },
}

WORKLOADS = tuple(SIZES)

#: Fixed-stripe baselines by figure-legend name.
FIXED = {"64K": 64 * KiB, "256K": 256 * KiB, "1M": 1024 * KiB}

_MODULES = {
    "harness": "repro.experiments.harness",
    "cache": "repro.experiments.cache",
    "planner": "repro.core.planner",
    "stripes": "repro.core.stripe_determination",
    "layout": "repro.pfs.layout",
    "mapping": "repro.pfs.mapping",
    "batch_exec": "repro.pfs.batch_exec",
    "columnar": "repro.pfs.columnar",
    "collective": "repro.middleware.collective",
    "ior": "repro.workloads.ior",
    "btio": "repro.workloads.btio",
}


def fresh_import() -> SimpleNamespace:
    """Import the program as a new process would.

    Every cached ``repro`` module is dropped first, so the import cost and
    the module-level caches (calibration, stripe choices) start cold.
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    return SimpleNamespace(**{key: importlib.import_module(m) for key, m in _MODULES.items()})


@dataclass
class Series:
    name: str
    workload: object
    #: Key into ``Spec.plans``: the plan whose RST this series is laid out with.
    plan: str
    replicas: int
    layouts: tuple[str, ...]
    #: Bytes the servers must serve: reads once, writes once per copy.
    expected_bytes: int


@dataclass
class Spec:
    name: str
    testbed: object
    #: Plan key -> workload whose synthetic trace HARL plans.
    plans: dict[str, object]
    #: Request sizes that calibration is probed for (``Testbed.parameters``).
    hints: tuple[int, ...]
    series: list[Series]
    open_loop: bool


@dataclass
class Cell:
    workload: str
    series: str
    layout: str
    stripes: str
    makespan: float = math.nan
    mib_s: float = math.nan
    subrequests: int = 0
    bytes_served: int = 0
    busy: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self) -> dict:
        """The cell's simulated outputs, for the per-cell printout."""
        return {
            "cell": f"{self.workload}/{self.series}/{self.layout}",
            "makespan_s": self.makespan,
            "mib_s": self.mib_s,
            "stripes": self.stripes,
            "ok": not self.failures,
        }

    def outputs(self) -> tuple:
        """Everything a speed-only change must leave identical."""
        return (self.makespan, self.stripes, self.subrequests, self.bytes_served, self.busy)


@dataclass
class Pass:
    cells: list[Cell]
    plan_reports: list
    rsts: dict[str, object]
    batch_stats: dict[str, int]
    fallbacks: dict[str, int]

    @property
    def subrequests(self) -> int:
        return sum(cell.subrequests for cell in self.cells)

    def gains(self) -> dict[str, float]:
        """Per series: HARL MiB/s over the best fixed layout's MiB/s."""
        by_series: dict[str, dict[str, float]] = {}
        for cell in self.cells:
            by_series.setdefault(cell.series, {})[cell.layout.split("+")[0]] = cell.mib_s
        return {
            series: rates["HARL"] / max(v for k, v in rates.items() if k != "HARL")
            for series, rates in by_series.items()
        }


def _capturing_testbed(R):
    class CapturingTestbed(R.harness.Testbed):
        """A testbed that keeps the last filesystem it built.

        The harness drops the filesystem after a run; the benchmark reads
        its per-server and batching counters from here instead.
        """

        last_pfs = None

        def build(self, sim):
            self.last_pfs = super().build(sim)
            return self.last_pfs

    return CapturingTestbed


def build_spec(R, name: str, seed: int) -> Spec:
    """Construct a workload's testbed and series. ``seed`` reaches only the inputs."""
    testbed = _capturing_testbed(R)(n_hservers=6, n_sservers=2, seed=seed)
    sizes = SIZES[name]
    if name == "ior-closed":
        return _ior_closed(R, testbed, seed, sizes)
    if name == "btio-collective":
        return _btio_collective(R, testbed, sizes)
    if name == "replay-open":
        return _replay_open(R, testbed, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


def _ior_closed(R, testbed, seed: int, sizes: dict) -> Spec:
    layouts = ("64K", "256K", "1M", "HARL")
    request = sizes["request_size"]
    plans: dict[str, object] = {}
    series: list[Series] = []
    for clients in sizes["clients"]:
        for op in ("read", "write"):
            config = R.ior.IORConfig(
                n_processes=clients,
                request_size=request,
                file_size=clients * sizes["requests_per_process"] * request,
                op=op,
                seed=seed,
            )
            key = f"{op}/p{clients}"
            plans[key] = R.ior.IORWorkload(config)
            series.append(Series(key, plans[key], key, 1, layouts, config.total_bytes))
    # The replicated write series records a known defect: HARL plans without
    # seeing mirror traffic and loses to every fixed stripe. It stays as is.
    key = f"write/p{sizes['clients'][0]}"
    written = plans[key].config.total_bytes
    series.append(Series(f"{key}/r2", plans[key], key, 2, layouts, 2 * written))
    return Spec("ior-closed", testbed, plans, (request,), series, open_loop=False)


def _btio_collective(R, testbed, sizes: dict) -> Spec:
    layouts = ("64K", "256K", "1M", "HARL")
    plans: dict[str, object] = {}
    series: list[Series] = []
    hints = []
    for processes in sizes["processes"]:
        config = R.btio.BTIOConfig(
            n_processes=processes,
            grid=sizes["grid"],
            timesteps=sizes["timesteps"],
            write_interval=sizes["write_interval"],
        )
        key = f"p{processes}"
        plans[key] = R.btio.BTIOWorkload(config)
        series.append(Series(key, plans[key], key, 1, layouts, config.total_io_bytes))
        # The planner probes calibration at the mean post-aggregation request.
        batch = plans[key].request_batch()
        hints.append(int(int(batch.sizes.sum()) / len(batch)))
    return Spec("btio-collective", testbed, plans, tuple(hints), series, open_loop=False)


def _replay_open(R, testbed, seed: int, sizes: dict) -> Spec:
    layouts = ("64K", "1M", "HARL")
    request = sizes["request_size"]

    def ior(op: str):
        return R.ior.IORWorkload(
            R.ior.IORConfig(
                n_processes=sizes["ranks"],
                request_size=request,
                file_size=sizes["requests"] * request,
                op=op,
                seed=seed,
            )
        )

    read, write = ior("read"), ior("write")
    total = read.config.total_bytes
    series = [
        Series("read", read, "trace", 1, layouts, total),
        # Known defect, kept on purpose: see the ior-closed replicated series.
        Series("write/r2", write, "trace", 2, layouts, 2 * total),
    ]
    return Spec("replay-open", testbed, {"trace": read}, (request,), series, open_loop=True)


def calibrate(R, spec: Spec) -> None:
    """Set-up's calibration: one ``Testbed.parameters`` call per request hint."""
    for hint in spec.hints:
        spec.testbed.parameters(request_hint=hint)


def _layout(R, spec: Spec, series: Series, name: str, rst) -> tuple[object, str, str]:
    """(layout, legend label, chosen stripes) of one cell."""
    replicas = series.replicas
    suffix = "" if replicas == 1 else f"+r{replicas}"
    if name == "HARL":
        stripes = ";".join(f"{e.offset}:{e.config.describe()}" for e in rst.entries)
        layout = rst if replicas == 1 else R.layout.RegionLevelLayout(rst, replicas=replicas)
        return layout, name + suffix, stripes
    testbed = spec.testbed
    layout = R.layout.FixedLayout(
        testbed.n_hservers, testbed.n_sservers, FIXED[name], replicas=replicas
    )
    return layout, name + suffix, name


def rst_covers_file(rst) -> bool:
    """True if the RST tiles [0, EOF) with regions that place data somewhere."""
    entries = rst.entries
    tiled = all(a.end == b.offset for a, b in zip(entries, entries[1:]))
    placed = all(sum(e.config.stripes) > 0 for e in entries)
    return entries[0].offset == 0 and entries[-1].end is None and tiled and placed


def run_pass(R, spec: Spec, spans) -> Pass:
    """Plan every series and simulate every cell; phases go to ``spans``."""
    R.stripes.clear_stripe_cache()
    batches = {}
    if spec.open_loop:
        with spans.span("generate"):
            batches = {s.name: s.workload.request_batch() for s in spec.series}
    reports: list = []
    rsts = {}
    for key, workload in spec.plans.items():
        with spans.span("plan"):
            rsts[key] = R.harness.harl_plan(spec.testbed, workload, report_sink=reports)
    out = Pass([], reports, rsts, {}, {})
    for series in spec.series:
        for name in series.layouts:
            rst = rsts[series.plan]
            out.cells.append(_run_cell(R, spec, series, name, rst, batches, spans, out))
    return out


def _run_cell(R, spec, series, name, rst, batches, spans, out: Pass) -> Cell:
    testbed = spec.testbed
    layout, label, stripes = _layout(R, spec, series, name, rst)
    cell = Cell(spec.name, series.name, label, stripes)
    try:
        with spans.span("simulate"):
            if spec.open_loop:
                result = R.harness.run_workload_batched(
                    testbed, batches[series.name], layout, layout_name=label
                )
            else:
                result = R.harness.run_workload(testbed, series.workload, layout, layout_name=label)
    except Exception:  # A cell that raises counts as failed; the pass goes on.
        cell.failures.append("raised:\n" + traceback.format_exc())
        return cell
    finally:
        pfs, testbed.last_pfs = testbed.last_pfs, None
    with spans.span("check"):
        cell.makespan = result.makespan
        cell.mib_s = result.throughput_mib
        cell.busy = dict(result.server_busy)
        cell.subrequests = sum(s.subrequests_served for s in pfs.servers)
        cell.bytes_served = sum(s.bytes_served for s in pfs.servers)
        for key, value in pfs.batch_stats.items():
            out.batch_stats[key] = out.batch_stats.get(key, 0) + value
        for key, value in pfs.batch_fallbacks.items():
            out.fallbacks[key] = out.fallbacks.get(key, 0) + value
        if cell.bytes_served != series.expected_bytes:
            cell.failures.append(
                f"servers served {cell.bytes_served} B, expected {series.expected_bytes} B"
            )
        if name == "HARL" and not rst_covers_file(rst):
            cell.failures.append("HARL RST does not cover the file")
        if series.replicas > 1:
            integrity = result.integrity
            if integrity is None or integrity.silent_corruptions != 0:
                cell.failures.append(f"silent corruptions on a replicated cell: {integrity}")
    return cell


def parity_checks(R, spec: Spec, rsts: dict) -> list[Cell]:
    """Replay a fixed sub-batch on the fast tier and on the general path.

    Open-loop cells only. The two makespans and per-server busy times must
    be identical, and the fast replay must really have taken a fast tier.
    """
    n = SIZES[spec.name]["parity_requests"]
    testbed = spec.testbed
    cells = []
    for series in spec.series:
        sub = series.workload.request_batch()[:n]
        for name in series.layouts:
            layout, label, stripes = _layout(R, spec, series, name, rsts[series.plan])
            cell = Cell(spec.name, f"{series.name}/parity", label, stripes)
            try:
                fast = R.harness.run_workload_batched(testbed, sub, layout, layout_name=label)
                fast_batches = testbed.last_pfs.batch_stats["fast_batches"]
                general = R.harness.run_workload_batched(
                    testbed, sub, layout, layout_name=label, force_general=True
                )
            except Exception:
                cell.failures.append("raised:\n" + traceback.format_exc())
                cells.append(cell)
                continue
            finally:
                testbed.last_pfs = None
            cell.makespan, cell.mib_s = fast.makespan, fast.throughput_mib
            if fast_batches != 1:
                cell.failures.append("parity sub-batch did not take the fast tier")
            if (fast.makespan, fast.server_busy) != (general.makespan, general.server_busy):
                cell.failures.append(
                    f"fast tier makespan {fast.makespan!r} != general path {general.makespan!r}"
                )
            cells.append(cell)
    return cells


def check_repeats(first: Pass, later: Pass) -> None:
    """Every pass must reproduce the first pass's simulated outputs exactly."""
    for a, b in zip(first.cells, later.cells):
        if a.outputs() != b.outputs():
            b.failures.append("simulated outputs differ from the first pass")

