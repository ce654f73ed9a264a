"""Client-side metadata cache: hits, coalescing, invalidation, failover races.

The cache sits in front of ``mds.consult`` on the request hot path
(DESIGN §15). Contracts under test:

- a current-generation entry skips the consult entirely (hit), the first
  lookup pays it (miss), and concurrent same-file lookups coalesce onto
  one leader consult;
- ``relayout`` drops the file's entry, mds-crash/failover bumps the
  cluster-wide epoch and invalidates everything at once;
- the failover race: a fill admitted before a crash whose epoch no longer
  matches at completion is dropped, never written (``dropped_fills``);
- the stale-read audit (``stale_hits``) detects generation drift and stays
  zero across the chaos suite;
- cached runs are bit-identical serial or under ``--jobs N``, and
  cache-off runs are byte-identical to builds that predate the cache.
"""

import pickle

import pytest

from repro.experiments.harness import Testbed, run_workload
from repro.experiments.parallel import RunJob, run_jobs
from repro.faults import RetryPolicy, parse_faults
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout
from repro.pfs.mds_cluster import MetadataCluster
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.metadata import MetadataConfig, MetadataWorkload

LAYOUT = FixedLayout(2, 1, 64 * KiB)


def _pfs(sim, shards=0, cache=True):
    mds = MetadataCluster(shards, seed=0) if shards else None
    return HybridPFS.build(sim, 2, 1, seed=0, mds=mds, mds_cache=cache)


def _ior(processes=4, file_size=4 * MiB):
    return IORWorkload(
        IORConfig(n_processes=processes, request_size=64 * KiB, file_size=file_size)
    )


class TestScalarCache:
    """General-path (per-request DES) cache semantics."""

    def test_second_lookup_hits(self):
        sim = Simulator()
        pfs = _pfs(sim)
        handle = pfs.create_file("f", LAYOUT)
        sim.run(handle.read(0, 64 * KiB))
        assert pfs.mds.lookup_count == 1
        assert pfs.mds_cache.misses == 1
        busy = pfs.mds.utilization_seconds
        sim.run(handle.read(64 * KiB, 64 * KiB))
        assert pfs.mds.lookup_count == 1  # no second consult
        assert pfs.mds_cache.hits == 1
        assert pfs.mds_cache.stale_hits == 0
        # A hit adds zero MDS service time: the server never saw it.
        assert pfs.mds.utilization_seconds == busy

    def test_concurrent_lookups_coalesce_onto_one_consult(self):
        sim = Simulator()
        pfs = _pfs(sim)
        handle = pfs.create_file("f", LAYOUT)
        procs = [handle.read(i * 64 * KiB, 64 * KiB) for i in range(4)]
        sim.run(sim.all_of(procs))
        cache = pfs.mds_cache
        assert pfs.mds.lookup_count == 1  # the whole storm: one MDS trip
        assert cache.misses == 1
        assert cache.coalesced == 3
        assert cache.hits == 0

    def test_relayout_invalidates_the_entry(self):
        sim = Simulator()
        pfs = _pfs(sim)
        handle = pfs.create_file("f", LAYOUT)
        sim.run(handle.read(0, 64 * KiB))
        assert pfs.mds_cache.is_valid(handle)
        handle.relayout(FixedLayout(2, 1, 128 * KiB))
        assert pfs.mds_cache.invalidations == 1
        assert not pfs.mds_cache.is_valid(handle)
        sim.run(handle.read(0, 64 * KiB))
        assert pfs.mds_cache.misses == 2
        assert pfs.mds.lookup_count == 2
        assert pfs.mds_cache.stale_hits == 0

    def test_crash_bumps_epoch_and_invalidates_everything(self):
        sim = Simulator()
        pfs = _pfs(sim, shards=4)
        handle = pfs.create_file("f", LAYOUT)
        owner = pfs.mds.shard_of("f")
        bystander = next(i for i in range(4) if i != owner)
        sim.run(handle.read(0, 64 * KiB))
        assert pfs.mds_cache.is_valid(handle)
        pfs.mds.crash_shard(bystander)
        assert pfs.mds_cache.counters()["epoch"] == 1
        assert not pfs.mds_cache.is_valid(handle)
        sim.run(handle.read(0, 64 * KiB))  # owner is alive: re-fill works
        assert pfs.mds_cache.misses == 2
        assert pfs.mds_cache.stale_hits == 0

    def test_fill_in_flight_across_a_crash_is_dropped(self):
        """The failover race: a consult admitted before the epoch bump must
        not repopulate the cache with its pre-replay answer."""
        sim = Simulator()
        pfs = _pfs(sim, shards=4)
        handle = pfs.create_file("f", LAYOUT)
        owner = pfs.mds.shard_of("f")
        bystander = next(i for i in range(4) if i != owner)

        def bomb():
            # Strictly inside the leader's consult window (~3e-5 s): the
            # bystander crash bumps the epoch but leaves the owner serving.
            yield sim.timeout(1.0e-6)
            pfs.mds.crash_shard(bystander)

        read = handle.read(0, 64 * KiB)
        sim.process(bomb())
        sim.run(read)
        cache = pfs.mds_cache
        assert cache.dropped_fills == 1
        assert not cache.is_valid(handle)  # the poisoned fill never landed
        sim.run(handle.read(0, 64 * KiB))
        assert cache.misses == 2  # next lookup consults again
        assert cache.stale_hits == 0

    def test_stale_audit_tripwire_detects_generation_drift(self):
        """White-box: force the MDS generation past the cached one and the
        audit must count the hit as stale (the counter the chaos gate
        requires to stay zero can actually fire)."""
        sim = Simulator()
        pfs = _pfs(sim)
        handle = pfs.create_file("f", LAYOUT)
        sim.run(handle.read(0, 64 * KiB))
        pfs.mds.record_relayout("f", FixedLayout(2, 1, 128 * KiB), 5)
        sim.run(handle.read(0, 64 * KiB))
        assert pfs.mds_cache.hits == 1
        assert pfs.mds_cache.stale_hits == 1

    def test_counters_snapshot_and_stats_agree(self):
        sim = Simulator()
        pfs = _pfs(sim)
        handle = pfs.create_file("f", LAYOUT)
        sim.run(handle.read(0, 64 * KiB))
        counters = pfs.mds_cache.counters()
        stats = pfs.mds_cache.stats()
        assert counters == {
            "hits": 0, "misses": 1, "coalesced": 0, "invalidations": 0,
            "dropped_fills": 0, "stale_hits": 0, "epoch": 0,
        }
        assert stats.lookups == 1
        assert stats.hit_rate == 0.0
        assert pickle.loads(pickle.dumps(stats)) == stats


class TestHarnessDeterminism:
    """Cached runs through the experiments fabric: serial == --jobs N, and
    cache-off == the pre-cache build, byte for byte."""

    def _storm_job(self, cache, shards=4):
        return RunJob(
            testbed=Testbed(
                n_hservers=2, n_sservers=1, seed=0,
                mds_shards=shards, mds_cache=cache,
            ),
            workload=MetadataWorkload(
                MetadataConfig(n_ops=128, n_processes=8)
            ).request_batch(),
            layout=LAYOUT,
            layout_name="64K",
        )

    def test_cached_storm_serial_vs_jobs_bit_identical(self):
        job = self._storm_job(cache=True)
        serial = run_jobs([job, job], jobs=1)
        pooled = run_jobs([job, job], jobs=2)
        assert [pickle.dumps(r) for r in serial] == [pickle.dumps(r) for r in pooled]
        assert serial[0].cache.misses == 1
        assert serial[0].cache.stale_hits == 0

    def test_cached_crash_run_serial_vs_jobs_bit_identical(self):
        owner = MetadataCluster(4, seed=0).shard_of("shared.dat")
        job = RunJob(
            testbed=Testbed(
                n_hservers=2, n_sservers=2, seed=0, mds_shards=4, mds_cache=True
            ),
            workload=_ior(),
            layout=FixedLayout(2, 2, 64 * KiB),
            layout_name="64K",
            faults=parse_faults(f"mds-crash:{owner}@0.01"),
            retry=RetryPolicy(seed=0),
        )
        serial = run_jobs([job], jobs=1)[0]
        pooled = run_jobs([job, job], jobs=2)
        for result in pooled:
            assert result.makespan == serial.makespan
            assert result.mds == serial.mds
            assert result.cache == serial.cache

    @pytest.mark.parametrize("shards", [0, 2])
    def test_cache_off_is_byte_identical_to_default_build(self, shards):
        default = run_workload(
            Testbed(n_hservers=2, n_sservers=1, seed=0, mds_shards=shards),
            _ior(), LAYOUT, layout_name="64K",
        )
        explicit = run_workload(
            Testbed(
                n_hservers=2, n_sservers=1, seed=0,
                mds_shards=shards, mds_cache=False,
            ),
            _ior(), LAYOUT, layout_name="64K",
        )
        assert default.cache is None and explicit.cache is None
        assert pickle.dumps(default) == pickle.dumps(explicit)


class TestChaosStaleGate:
    """Zero stale-generation reads across crash/failover chaos, cache on."""

    @pytest.mark.parametrize("victim", ["owner", "bystander"])
    def test_crash_chaos_serves_no_stale_generation(self, victim):
        owner = MetadataCluster(4, seed=0).shard_of("shared.dat")
        shard = owner if victim == "owner" else (owner + 1) % 4
        result = run_workload(
            Testbed(
                n_hservers=2, n_sservers=2, seed=0, mds_shards=4, mds_cache=True
            ),
            _ior(),
            FixedLayout(2, 2, 64 * KiB),
            layout_name="64K",
            faults=parse_faults(f"mds-crash:{shard}@0.01"),
            retry=RetryPolicy(seed=0),
        )
        assert result.mds.crashes == 1
        assert result.mds.recoveries == 1  # the journal really replayed
        assert result.mds.lost_entries == 0
        assert result.cache.stale_hits == 0
        assert result.cache.invalidations >= 1  # the epoch really bumped

    def test_cache_metrics_exported_with_trace(self):
        result = run_workload(
            Testbed(n_hservers=2, n_sservers=1, seed=0, mds_cache=True),
            _ior(), LAYOUT, layout_name="64K", trace=True,
        )
        metrics = result.obs.metrics
        assert metrics["mds.cache.misses"]["value"] == result.cache.misses
        assert metrics["mds.cache.stale_hits"]["value"] == 0
