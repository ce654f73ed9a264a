#!/usr/bin/env python3
"""Benchmark of the HARL reproduction: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ior-closed --seed 1 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload in one process.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer breakdown of one traced set-up and pass, next to an untraced
one. Earlier lines of standard output hold one record per simulation cell
and a readable summary; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` (simulation cells and their checks) and the
``metrics`` that BENCHMARK.json declares. README.md explains each number.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  Imported up front: set-up time counts only the program's import.

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
import layers  # noqa: E402

#: Environment switches that change what the program does or caches.
#: They are cleared so that every run measures the default program.
PROGRAM_SWITCHES = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_JOBS",
    "REPRO_TRACE",
    "REPRO_BATCH_FAST",
    "REPRO_STRIPE_CACHE",
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for ``end_to_end`` and ``per_layer`` of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = ("end_to_end", "per_layer")
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in kinds}


def scrub_environment() -> None:
    cleared = [name for name in PROGRAM_SWITCHES if os.environ.pop(name, None) is not None]
    if cleared:
        print(f"cleared {', '.join(cleared)} to measure the default program", file=sys.stderr)


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    records: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def setup(name: str, seed: int, spans: layers.Spans, traced: bool = False):
    """Import the program, build the workload and calibrate: what every fresh process pays.

    With ``traced``, the layers' entry points are wrapped right after the
    import; the caller undoes that with the returned ``uninstall``.
    """
    with spans.span("import"):
        R = cells.fresh_import()
    uninstall = layers.install(R, spans) if traced else None
    with spans.span("construct"):
        spec = cells.build_spec(R, name, seed)
    with spans.span("calibrate"):
        cells.calibrate(R, spec)
    return R, spec, uninstall


def _tally(outcome: Outcome, all_cells) -> None:
    for cell in all_cells:
        outcome.attempted += 1
        if cell.failures:
            outcome.failed += 1
            outcome.notes.append(f"FAILED {cell.record()['cell']}: " + "; ".join(cell.failures))


def measure(name: str, seed: int, seconds: float) -> Outcome:
    """End-to-end metrics: median set-up, then passes until ``seconds`` are used."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        R, spec, _ = setup(name, seed, layers.Spans())
        setup_times.append(perf_counter() - start)
    passes, plan_s, simulate_s = [], [], []
    started = perf_counter()
    while not passes or (perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds:
        spans = layers.Spans()
        passes.append(cells.run_pass(R, spec, spans))
        plan_s.append(spans.top["plan"])
        simulate_s.append(spans.top["simulate"])
    first = passes[0]
    for later in passes[1:]:
        cells.check_repeats(first, later)
    checked = [cell for p in passes for cell in p.cells]
    if spec.open_loop:
        checked += cells.parity_checks(R, spec, first.rsts)
    gains = first.gains()
    outcome = Outcome(
        {
            "setup_s": statistics.median(setup_times),
            "plan_s": statistics.median(plan_s),
            "simulate_s": statistics.median(simulate_s),
            "sim_subreq_per_s": statistics.median(
                p.subrequests / s for p, s in zip(passes, simulate_s)
            ),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "harl_gain_min": min(gains.values()),
            "harl_gain_geomean": statistics.geometric_mean(gains.values()),
        },
        records=[cell.record() for cell in first.cells],
    )
    _tally(outcome, checked)
    outcome.metrics["error_rate"] = outcome.failed / outcome.attempted
    outcome.notes.append(
        f"{len(passes)} passes; per-series HARL gain "
        + ", ".join(f"{k} {v:.3f}" for k, v in gains.items())
    )
    return outcome


def measure_layers(name: str, seed: int) -> Outcome:
    """Per-layer metrics from one traced set-up and pass, next to an untraced one."""
    start = perf_counter()
    R, spec, _ = setup(name, seed, layers.Spans())
    untraced = cells.run_pass(R, spec, layers.Spans())
    untraced_wall = perf_counter() - start

    spans = layers.Spans()
    profile = cProfile.Profile()
    start = perf_counter()
    profile.enable()
    try:
        R, spec, uninstall = setup(name, seed, spans, traced=True)
        try:
            traced = cells.run_pass(R, spec, spans)
        finally:
            uninstall()
    finally:
        profile.disable()
    traced_wall = perf_counter() - start
    calibrations = R.cache.calibration_cache_info()

    cells.check_repeats(untraced, traced)
    checked = untraced.cells + traced.cells
    if spec.open_loop:
        checked += cells.parity_checks(R, spec, traced.rsts)

    reports = traced.plan_reports
    stats = traced.batch_stats
    harl = [c for c in traced.cells if c.layout.startswith("HARL")]
    busy = [c.busy for c in traced.cells]
    metrics = {
        "workloads.generate_s": spans.inclusive["workloads.generate"],
        "workloads.requests": spans.counts["workloads.requests"],
        "calibrate.s": spans.inclusive["calibrate"],
        "calibrate.misses": calibrations["misses"],
        "core.divide_regions_s": spans.inclusive["core.divide_regions"],
        "core.stripe_determination_s": spans.inclusive["core.stripe_determination"],
        "core.regions": sum(len(r.regions) for r in reports),
        "core.rst_entries": sum(r.n_regions_after_merge for r in reports),
        "core.stripe_cache_hits": sum(r.cache_hits for r in reports),
        "core.stripe_cache_misses": sum(r.cache_misses for r in reports),
        "mapping.decompose_s": spans.inclusive["mapping.decompose"],
        "batch_exec.replay_s": spans.inclusive["batch_exec.replay"],
        "columnar.replay_s": spans.inclusive["columnar.replay"],
        "batch_exec.batches_columnar": stats.get("fast_columnar_batches", 0),
        "batch_exec.batches_heap": stats.get("fast_batches", 0)
        - stats.get("fast_columnar_batches", 0),
        "batch_exec.batches_general": stats.get("general_batches", 0),
        "batch_exec.fallbacks": sum(traced.fallbacks.values()),
        **layers.module_self_times(profile),
        "server.subrequests": traced.subrequests,
        "server.bytes": sum(c.bytes_served for c in traced.cells),
        "server.busy_hdd_s": sum(v for b in busy for k, v in b.items() if k.startswith("h")),
        "server.busy_ssd_s": sum(v for b in busy for k, v in b.items() if k.startswith("s")),
        "server.busy_imbalance": max(_imbalance(c.busy) for c in harl),
        "collective.calls": spans.counts["collective.calls"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.phase_coverage": sum(spans.top.values()) / traced_wall,
    }
    outcome = Outcome(metrics, records=[cell.record() for cell in traced.cells])
    _tally(outcome, checked)
    outcome.notes.append(
        "top-level phases (s): "
        + ", ".join(f"{k} {v:.3f}" for k, v in spans.top.items())
        + f"; traced wall {traced_wall:.3f}, untraced wall {untraced_wall:.3f}"
    )
    outcome.notes.append(f"fallbacks by reason: {dict(traced.fallbacks)}")
    outcome.notes.append(
        "span self time (s): " + ", ".join(f"{k} {v:.3f}" for k, v in spans.self_time.items())
    )
    return outcome


def _imbalance(busy: dict[str, float]) -> float:
    """Max over min disk busy time among servers that did any work (Fig. 1a)."""
    working = [v for v in busy.values() if v > 0]
    return max(working) / min(working)


def main(argv: list[str] | None = None) -> int:
    declared = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*cells.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scrub_environment()

    names = cells.WORKLOADS if args.workload == "all" else (args.workload,)
    units = declared["per_layer" if args.trace else "end_to_end"]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            outcome = measure_layers(name, args.seed)
        else:
            outcome = measure(name, args.seed, args.seconds)
        for record in outcome.records:
            print(json.dumps(record))
        print(f"== {name} (seed {args.seed}) ==")
        for metric, value in outcome.metrics.items():
            print(f"  {metric:<30} {value!r:>24} {units.get(metric, 'ratio')}")
        for note in outcome.notes:
            print(f"  {note}")
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            result["metrics"][prefix + metric] = {
                "value": outcome.metrics[metric],
                "unit": unit,
            }
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
