"""Batched fast path vs the general per-request path: bit-for-bit parity.

The arithmetic replay of :mod:`repro.pfs.batch_exec` promises *exact*
equivalence with spawning one DES process per request — not approximate,
not statistical: the same elapsed-time array, the same ``sim.now``, the
same per-resource busy-time floats, the same device RNG states, the same
metadata counters. These tests compare the two paths over the edge grids
the executor's case analysis worries about (h = 0, single server classes,
requests straddling striping rounds, empty batches, issue-time ties,
mixed ops) and check every fallback trigger routes to the general path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.harness import Testbed, run_workload
from repro.pfs.batch import RequestBatch
from repro.pfs.batch_exec import fast_path_blocker
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout, HybridFixedLayout, RegionLevelLayout
from repro.pfs.mapping import StripingConfig
from repro.core.rst import RegionStripeTable, RSTEntry
from repro.simulate.engine import Simulator
from repro.util.units import KiB

# ---------------------------------------------------------------------------
# Harness: run one batch on a fresh cluster and capture full observable state
# ---------------------------------------------------------------------------


def _run(
    layout,
    batch: RequestBatch,
    *,
    force_general: bool,
    n_h: int = 2,
    n_s: int = 1,
    tracing: bool = False,
    lookup_time: float | None = None,
):
    sim = Simulator()
    if tracing:
        from repro.obs.tracer import EventTracer

        sim.tracer = EventTracer()
    pfs = HybridPFS.build(sim, n_h, n_s, seed=0)
    if lookup_time is not None:
        pfs.mds.lookup_latency = lookup_time
        pfs.mds.per_region_latency = lookup_time
    handle = pfs.create_file("f", layout)
    done = handle.request_batch(batch, force_general=force_general)
    sim.run(done)
    return {
        "elapsed": np.asarray(done.value, dtype=np.float64),
        "now": sim.now,
        "busy": {
            name: busy for name, busy in sorted(pfs.server_busy_times().items())
        },
        "nic_busy": [s.nic.monitor.busy_time for s in pfs.servers],
        "disk_granted": [s.disk.granted_count for s in pfs.servers],
        "nic_granted": [s.nic.granted_count for s in pfs.servers],
        "rng": [s.device.rng.bit_generator.state for s in pfs.servers],
        "bytes_served": [s.bytes_served for s in pfs.servers],
        "subreqs": [s.subrequests_served for s in pfs.servers],
        "lookups": pfs.mds.lookup_count,
        "bytes_read": handle.bytes_read,
        "bytes_written": handle.bytes_written,
        "stats": dict(pfs.batch_stats),
        "fallbacks": dict(pfs.batch_fallbacks),
    }


def _assert_parity(layout, batch, **kwargs):
    fast = _run(layout, batch, force_general=False, **kwargs)
    general = _run(layout, batch, force_general=True, **kwargs)
    assert fast["stats"]["fast_batches"] == 1, f"fell back: {fast['fallbacks']}"
    assert general["stats"]["general_batches"] == 1
    np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])
    assert fast["now"] == general["now"]  # exact float equality, no tolerance
    for key in (
        "busy",
        "nic_busy",
        "disk_granted",
        "nic_granted",
        "bytes_served",
        "subreqs",
        "lookups",
        "bytes_read",
        "bytes_written",
    ):
        assert fast[key] == general[key], key
    for fast_state, general_state in zip(fast["rng"], general["rng"]):
        assert fast_state == general_state
    return fast, general


def _random_batch(rng: np.random.Generator, n: int, *, timed: bool, mixed: bool):
    offsets = rng.integers(0, 4 * 1024 * 1024, size=n).astype(np.int64)
    sizes = rng.integers(1, 512 * KiB, size=n).astype(np.int64)
    is_read = rng.random(n) < 0.5 if mixed else np.zeros(n, dtype=bool)
    issue_times = None
    if timed:
        issue_times = np.round(rng.random(n) * 0.01, 5)
        issue_times[rng.random(n) < 0.3] = 0.0  # force zero-delay ties
    return RequestBatch(offsets=offsets, sizes=sizes, is_read=is_read, issue_times=issue_times)


THREE_REGION_RST = RegionStripeTable(
    [
        RSTEntry(
            region_id=0,
            offset=0,
            end=1024 * 1024,
            config=StripingConfig(n_hservers=2, n_sservers=1, hstripe=16 * KiB, sstripe=64 * KiB),
        ),
        RSTEntry(
            region_id=1,
            offset=1024 * 1024,
            end=2 * 1024 * 1024,
            config=StripingConfig(n_hservers=2, n_sservers=1, hstripe=0, sstripe=128 * KiB),
        ),
        RSTEntry(
            region_id=2,
            offset=2 * 1024 * 1024,
            end=None,
            config=StripingConfig(n_hservers=2, n_sservers=1, hstripe=64 * KiB, sstripe=64 * KiB),
        ),
    ]
)


# ---------------------------------------------------------------------------
# Parity across layouts and batch shapes
# ---------------------------------------------------------------------------


class TestFastGeneralParity:
    def test_fixed_layout_mixed_ops(self):
        batch = _random_batch(np.random.default_rng(1), 64, timed=False, mixed=True)
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_hybrid_layout_h_zero(self):
        """h = 0: SServers carry everything, HServers stay idle."""
        batch = _random_batch(np.random.default_rng(2), 48, timed=False, mixed=True)
        _assert_parity(HybridFixedLayout(2, 1, 0, 64 * KiB), batch)

    def test_hserver_only_cluster(self):
        batch = _random_batch(np.random.default_rng(3), 32, timed=False, mixed=False)
        _assert_parity(FixedLayout(3, 0, 64 * KiB), batch, n_h=3, n_s=0)

    def test_sserver_only_cluster(self):
        batch = _random_batch(np.random.default_rng(4), 32, timed=False, mixed=True)
        _assert_parity(FixedLayout(0, 3, 64 * KiB), batch, n_h=0, n_s=3)

    def test_round_straddling_requests(self):
        """Requests much larger than one striping round (M·h + N·s)."""
        batch = RequestBatch(
            offsets=np.array([0, 100_000, 3 * 192 * KiB - 7], dtype=np.int64),
            sizes=np.array([5 * 192 * KiB, 192 * KiB + 1, 2 * 192 * KiB], dtype=np.int64),
            is_read=np.array([False, True, False]),
        )
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_region_level_layout(self):
        batch = _random_batch(np.random.default_rng(5), 64, timed=False, mixed=True)
        _assert_parity(RegionLevelLayout(THREE_REGION_RST), batch)

    def test_issue_times_with_ties(self):
        batch = _random_batch(np.random.default_rng(6), 64, timed=True, mixed=True)
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_issue_times_all_equal_nonzero(self):
        rng = np.random.default_rng(7)
        batch = _random_batch(rng, 24, timed=False, mixed=True)
        batch = RequestBatch(
            offsets=batch.offsets,
            sizes=batch.sizes,
            is_read=batch.is_read,
            issue_times=np.full(len(batch), 0.005),
        )
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_empty_batch(self):
        batch = RequestBatch(offsets=[], sizes=[], is_read=[])
        fast, general = _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)
        assert fast["elapsed"].shape == (0,)
        assert fast["now"] == 0.0

    def test_single_one_byte_request(self):
        batch = RequestBatch(offsets=[0], sizes=[1], is_read=[True])
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_zero_cost_mds(self):
        batch = _random_batch(np.random.default_rng(8), 32, timed=False, mixed=True)
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch, lookup_time=0.0)

    def test_fast_path_matches_traced_general_run(self):
        """Tracing forces the general path; times must still match the fast path."""
        batch = _random_batch(np.random.default_rng(9), 48, timed=False, mixed=True)
        layout = FixedLayout(2, 1, 64 * KiB)
        fast = _run(layout, batch, force_general=False)
        traced = _run(layout, batch, force_general=False, tracing=True)
        assert fast["stats"]["fast_batches"] == 1
        assert traced["stats"]["general_batches"] == 1
        assert traced["fallbacks"] == {"tracing": 1}
        np.testing.assert_array_equal(fast["elapsed"], traced["elapsed"])
        assert fast["now"] == traced["now"]
        assert fast["busy"] == traced["busy"]

    def test_sequential_batches_on_one_simulator(self):
        """Back-to-back batches both stay fast; state carries over exactly."""
        rng = np.random.default_rng(10)
        first = _random_batch(rng, 24, timed=False, mixed=True)
        second = _random_batch(rng, 24, timed=False, mixed=True)

        def run(force_general):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
            sim.run(handle.request_batch(first, force_general=force_general))
            sim.run(handle.request_batch(second, force_general=force_general))
            return sim.now, pfs.server_busy_times(), dict(pfs.batch_stats)

        now_fast, busy_fast, stats_fast = run(False)
        now_general, busy_general, _ = run(True)
        assert stats_fast["fast_batches"] == 2
        assert now_fast == now_general
        assert busy_fast == busy_general


# ---------------------------------------------------------------------------
# Fallback matrix: every blocker routes to the general path, results intact
# ---------------------------------------------------------------------------


class TestFallbackMatrix:
    def _cluster(self, **build_kwargs):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0, **build_kwargs)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        return sim, pfs, handle

    BATCH = RequestBatch(offsets=[0, 256 * KiB], sizes=[64 * KiB, 64 * KiB], is_read=[False, True])

    def test_tracing_blocks(self):
        from repro.obs.tracer import EventTracer

        sim, pfs, handle = self._cluster()
        sim.tracer = EventTracer()
        assert fast_path_blocker(handle) == "tracing"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"tracing": 1}

    def test_busy_simulator_blocks(self):
        sim, pfs, handle = self._cluster()

        def idle():
            yield sim.timeout(10.0)

        sim.process(idle())
        assert fast_path_blocker(handle) == "simulator-busy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"simulator-busy": 1}

    def test_fault_injector_blocks(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule, ServerCrash

        sim, pfs, handle = self._cluster()
        FaultInjector(sim, pfs, FaultSchedule([ServerCrash(time=100.0, server=0)])).install()
        # install() spawns timer processes, so the simulator is not quiescent.
        assert fast_path_blocker(handle) == "simulator-busy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"simulator-busy": 1}

    def test_retry_policy_blocks(self):
        from repro.faults.retry import RetryPolicy

        sim, pfs, handle = self._cluster()
        pfs.retry = RetryPolicy()
        assert fast_path_blocker(handle) == "retry-policy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"retry-policy": 1}

    def test_scan_disk_scheduler_blocks(self):
        sim, pfs, handle = self._cluster(disk_scheduler="scan")
        assert fast_path_blocker(handle) == "disk-scheduler"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"disk-scheduler": 1}

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_FAST", "0")
        sim, pfs, handle = self._cluster()
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"disabled": 1}

    def test_failed_server_blocks(self):
        sim, pfs, handle = self._cluster()
        pfs.servers[0].mark_failed()
        assert fast_path_blocker(handle) == "failed-server"

    def test_eligible_cluster_has_no_blocker(self):
        _, _, handle = self._cluster()
        assert fast_path_blocker(handle) is None

    def test_faulted_run_matches_forced_general(self):
        """A fault-injected batched run equals the same run forced general."""
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule, ServerCrash

        def run(force_general):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
            schedule = FaultSchedule([ServerCrash(time=1e9, server=0)])
            FaultInjector(sim, pfs, schedule).install()
            done = handle.request_batch(self.BATCH, force_general=force_general)
            sim.run(done)
            return np.asarray(done.value), sim.now

        auto_elapsed, auto_now = run(False)
        forced_elapsed, forced_now = run(True)
        np.testing.assert_array_equal(auto_elapsed, forced_elapsed)
        assert auto_now == forced_now


# ---------------------------------------------------------------------------
# Columnar tier: when it engages, when it hands off to the event heap
# ---------------------------------------------------------------------------


class TestColumnarTier:
    """The vectorized tier must engage on uniform batches — including with
    replication and integrity — and hand uneven ones to the event-heap tier
    with no general-path fallback either way."""

    def _aligned_batch(self, n=48, op_read=False):
        offsets = (np.arange(n, dtype=np.int64) * 128 * KiB) % (4 * 1024 * 1024)
        return RequestBatch(
            offsets=offsets,
            sizes=np.full(n, 64 * KiB, dtype=np.int64),
            is_read=np.full(n, op_read, dtype=bool),
        )

    def _run_pair(self, layout, batch, *, integrity=False):
        def run(force_general):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            if integrity:
                pfs.enable_integrity()
            handle = pfs.create_file("f", layout)
            done = handle.request_batch(batch, force_general=force_general)
            sim.run(done)
            return {
                "elapsed": np.asarray(done.value, dtype=np.float64),
                "now": sim.now,
                "busy": sorted(pfs.server_busy_times().items()),
                "nic_busy": [s.nic.monitor.busy_time for s in pfs.servers],
                "rng": [s.device.rng.bit_generator.state for s in pfs.servers],
                "tags": [
                    None if s.checksums is None else dict(s.checksums._tags)
                    for s in pfs.servers
                ],
            }, dict(pfs.batch_stats), dict(pfs.batch_fallbacks)

        fast, fast_stats, fast_fallbacks = run(False)
        general, general_stats, _ = run(True)
        np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])
        del fast["elapsed"], general["elapsed"]
        assert fast == general
        assert fast_stats["fast_batches"] == 1
        assert fast_fallbacks == {}
        return fast_stats

    @pytest.mark.parametrize("op_read", [False, True])
    def test_uniform_batch_runs_columnar(self, op_read):
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB), self._aligned_batch(op_read=op_read)
        )
        assert stats["fast_columnar_batches"] == 1

    @pytest.mark.parametrize("op_read", [False, True])
    def test_columnar_with_replication_and_integrity(self, op_read):
        """Mirrored writes and CRC bookkeeping stay on the vectorized tier."""
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB, replicas=2),
            self._aligned_batch(op_read=op_read),
            integrity=True,
        )
        assert stats["fast_columnar_batches"] == 1

    def test_columnar_with_region_replicas(self):
        layout = RegionLevelLayout(
            RegionStripeTable(
                [
                    RSTEntry(
                        region_id=0,
                        offset=0,
                        end=1024 * 1024,
                        config=StripingConfig(2, 1, 64 * KiB, 64 * KiB),
                    ),
                    RSTEntry(
                        region_id=1,
                        offset=1024 * 1024,
                        end=None,
                        config=StripingConfig(2, 1, 64 * KiB, 64 * KiB),
                    ),
                ]
            ),
            replicas={0: 3},
        )
        stats = self._run_pair(layout, self._aligned_batch(), integrity=True)
        assert stats["fast_columnar_batches"] == 1

    def test_uneven_batch_uses_event_heap_not_general(self):
        """Varying sub-request sizes on a multi-slot NIC bail out of the
        columnar tier — to the event-heap replay, never the general path."""
        rng = np.random.default_rng(3)
        batch = RequestBatch(
            offsets=rng.integers(0, 4 * 1024 * 1024, 48).astype(np.int64),
            sizes=rng.integers(1, 256 * KiB, 48).astype(np.int64),
            is_read=np.zeros(48, dtype=bool),
        )
        stats = self._run_pair(FixedLayout(2, 1, 64 * KiB), batch)
        assert stats["fast_columnar_batches"] == 0

    def test_mixed_op_batch_uses_event_heap(self):
        batch = self._aligned_batch()
        is_read = batch.is_read.copy()
        is_read[::2] = True
        batch = RequestBatch(offsets=batch.offsets, sizes=batch.sizes, is_read=is_read)
        stats = self._run_pair(FixedLayout(2, 1, 64 * KiB), batch)
        assert stats["fast_columnar_batches"] == 0


# ---------------------------------------------------------------------------
# Batched runs through the parallel job fabric (--jobs N)
# ---------------------------------------------------------------------------


class TestBatchedJobs:
    def test_batched_runjob_parity_under_pool(self, tiny_testbed):
        from repro.experiments.parallel import RunJob, run_jobs
        from repro.workloads.ior import IORConfig, IORWorkload

        workload = IORWorkload(
            IORConfig(n_processes=4, request_size=64 * KiB, file_size=2 * 1024 * 1024)
        )
        jobs = [
            RunJob(
                testbed=tiny_testbed,
                workload=workload,
                layout=FixedLayout(2, 1, 64 * KiB),
                layout_name="fast",
                batched=True,
            ),
            RunJob(
                testbed=tiny_testbed,
                workload=workload,
                layout=FixedLayout(2, 1, 64 * KiB),
                layout_name="general",
                batched=True,
                force_general=True,
            ),
        ]
        serial = run_jobs(jobs)
        pooled = run_jobs(jobs, jobs=2)
        assert serial[0].makespan == serial[1].makespan
        for s, p in zip(serial, pooled):
            assert s.makespan == p.makespan
            assert s.server_busy == p.server_busy


# ---------------------------------------------------------------------------
# Closed loop: run_workload replays rank programs on the event-heap tier
# ---------------------------------------------------------------------------


@dataclass
class _RunTestbed(Testbed):
    """A testbed that keeps the cluster it built (optionally with a free MDS)."""

    zero_lookup: bool = False
    last_pfs: object = None

    def build(self, sim):
        pfs = super().build(sim)
        if self.zero_lookup:
            pfs.mds.lookup_latency = 0.0
            pfs.mds.per_region_latency = 0.0
        self.last_pfs = pfs
        return pfs


#: Device profiles without startup jitter: equal work takes equal time, so
#: concurrent ranks finish at exactly the same instants.
DETERMINISTIC_DEVICES = {
    "hdd_kwargs": {"alpha_min": 1e-4, "alpha_max": 1e-4},
    "ssd_kwargs": {
        "read_alpha_min": 2e-5,
        "read_alpha_max": 2e-5,
        "write_alpha_min": 3e-5,
        "write_alpha_max": 3e-5,
    },
}


def _ior(n_processes=2, per_rank=4, depth=1, op="write", random_offsets=True):
    from repro.workloads.ior import IORConfig, IORWorkload

    return IORWorkload(
        IORConfig(
            n_processes=n_processes,
            request_size=64 * KiB,
            file_size=n_processes * per_rank * 64 * KiB,
            op=op,
            random_offsets=random_offsets,
            queue_depth=depth,
        )
    )


def _workload_state(testbed, workload, layout, **run_kwargs):
    result = run_workload(testbed, workload, layout, **run_kwargs)
    pfs = testbed.last_pfs
    state = {
        "makespan": result.makespan,
        "busy": result.server_busy,
        "nic_busy": [s.nic.monitor.busy_time for s in pfs.servers],
        "rng": [s.device.rng.bit_generator.state for s in pfs.servers],
        "bytes": [s.bytes_served for s in pfs.servers],
        "subreqs": [s.subrequests_served for s in pfs.servers],
        "lookups": pfs.mds.lookup_count,
        "mds_busy": pfs.mds.utilization_seconds,
    }
    return state, dict(pfs.batch_stats), dict(pfs.batch_fallbacks)


def _assert_closed_parity(workload, layout=None, **testbed_kwargs):
    layout = layout or FixedLayout(2, 1, 64 * KiB)
    testbed = _RunTestbed(**{"n_hservers": 2, "n_sservers": 1, "seed": 0, **testbed_kwargs})
    fast, fast_stats, fast_falls = _workload_state(testbed, workload, layout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BATCH_FAST", "0")
        general, _, general_falls = _workload_state(testbed, workload, layout)
    assert fast_falls == {}, fast_falls
    assert fast_stats["fast_batches"] == 1
    assert fast_stats["fast_columnar_batches"] == 0
    assert general_falls == {"disabled": 1}
    assert fast == general
    return fast


class TestClosedLoop:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_one_rank(self, depth):
        _assert_closed_parity(_ior(n_processes=1, per_rank=6, depth=depth))

    @pytest.mark.parametrize("depth", [3, 8])
    def test_depth_covers_every_request(self, depth):
        """queue_depth >= requests per rank: the whole run is one wave."""
        _assert_closed_parity(_ior(n_processes=3, per_rank=3, depth=depth))

    @pytest.mark.parametrize("depth", [1, 2])
    def test_zero_cost_mds(self, depth):
        _assert_closed_parity(_ior(depth=depth), zero_lookup=True)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_tied_completions(self, depth, op):
        """Two ranks finishing at the same instants resume in hop order."""
        # Each rank's block covers four stripes, so rank 0 only touches
        # HServers 0-3 and rank 1 only 4-7; with a free MDS and jitter-free
        # devices every request of rank 1 completes exactly with its rank-0
        # twin.
        workload = _ior(per_rank=4, depth=depth, op=op, random_offsets=False)
        layout = FixedLayout(8, 0, 64 * KiB)
        shape = {"n_hservers": 8, "n_sservers": 0, "zero_lookup": True}
        testbed = _RunTestbed(seed=0, **shape, **DETERMINISTIC_DEVICES)
        sim = Simulator()
        handle = testbed.build(sim).create_file("f", layout)
        done = handle.replay(workload.request_batch())
        sim.run(done)
        np.testing.assert_array_equal(done.value[:4], done.value[4:])
        _assert_closed_parity(workload, layout, **shape, **DETERMINISTIC_DEVICES)

    def test_sharded_cached_mds(self):
        _assert_closed_parity(_ior(n_processes=4, depth=2), mds_shards=4, mds_cache=True)

    def _fallback(self, reason, **run_kwargs):
        """The rank programs run, count ``reason``, and match the fast route."""
        workload, layout = _ior(depth=2), FixedLayout(2, 1, 64 * KiB)
        testbed = _RunTestbed(n_hservers=2, n_sservers=1, seed=0)
        fast, _, _ = _workload_state(testbed, workload, layout)
        state, stats, falls = _workload_state(testbed, workload, layout, **run_kwargs)
        assert falls == {reason: 1}
        assert stats["fast_batches"] == 0 and stats["general_batches"] == 1
        assert (state["makespan"], state["busy"]) == (fast["makespan"], fast["busy"])
        return state

    def test_tracing_runs_rank_programs(self):
        self._fallback("tracing", trace=True)

    def test_fault_schedule_runs_rank_programs(self):
        from repro.faults.schedule import FaultSchedule, ServerCrash

        # A crash far past the end: the injector's timer keeps the simulator
        # busy without changing what the run measures.
        schedule = FaultSchedule([ServerCrash(time=1e9, server=0)])
        self._fallback("simulator-busy", faults=schedule)

    def test_collector_runs_rank_programs(self):
        from repro.middleware.iosig import TraceCollector

        collector = TraceCollector(Simulator())
        self._fallback("collector", collector=collector)
        assert len(collector.records) == 2 * 4  # every rank-program call traced

    def test_open_loop_submission_ignores_ranks(self):
        """request_batch() keeps open-loop semantics for closed-loop batches."""
        batch = _ior(depth=2).request_batch()
        assert batch.ranks is not None
        fast = _run(FixedLayout(2, 1, 64 * KiB), batch, force_general=False)
        general = _run(FixedLayout(2, 1, 64 * KiB), batch.open_loop(), force_general=True)
        np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])


# ---------------------------------------------------------------------------
# The fallback matrix in DESIGN.md names every reason the code can return
# ---------------------------------------------------------------------------


def _reason_literals(function) -> set[str]:
    """String literals ``function`` returns (alone or as a tuple's last item)
    or assigns to a local named ``reason``."""
    import ast
    import inspect
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    found = set()
    for node in ast.walk(tree):
        value = None
        if isinstance(node, ast.Return):
            value = node.value
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[-1]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "reason" for t in node.targets
        ):
            value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            found.add(value.value)
    return found


def test_design_fallback_matrix_lists_every_reason():
    import re
    from pathlib import Path

    from repro.experiments import harness
    from repro.pfs import batch_exec
    from repro.pfs.filesystem import PFSFile
    from repro.pfs.server import FileServer

    reasons = set()
    for function in (
        batch_exec.fast_path_blocker,
        batch_exec._plan_mds,
        FileServer.fast_batch_blocker,
        PFSFile.request_batch,
        harness._closed_loop_batch,
    ):
        reasons |= _reason_literals(function)
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    section = design.split("## 10. Batched execution fast path", 1)[1]
    table = section.split("**Entry conditions.**", 1)[1].split("\n\n", 2)[1]
    listed = {
        name
        for line in table.splitlines()
        if line.startswith("|")
        for name in re.findall(r"`([^`]+)`", line.split("|")[1])
    }
    assert {"collector", "tracing", "simulator-busy", "mds-fill-tie"} <= reasons
    assert reasons - listed == set()
