"""The shared run lifecycle behind every harness entry point.

``run_workload`` (on a workload or on a columnar batch), its deprecated
alias ``run_workload_batched`` and ``run_serving`` are thin drivers over
one run core that builds the cluster, tracer and fault injector and fills
``RunResult``'s optional payloads. The payload contract must therefore be
the same for all of them: tracing yields ``obs``, a
fault schedule yields ``faults`` (and corruption arms ``integrity``), and a
plain run carries no optional payload beyond the driver's own.
"""

import pickle

import pytest

from repro.experiments.harness import (
    Testbed,
    run_serving,
    run_workload,
    run_workload_batched,
)
from repro.faults import RetryPolicy, parse_faults
from repro.pfs.layout import FixedLayout
from repro.serving import make_scenario
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload

TESTBED = Testbed(n_hservers=2, n_sservers=2, seed=0)
WORKLOAD = IORWorkload(
    IORConfig(n_processes=4, request_size=64 * KiB, file_size=1 * MiB, seed=0)
)
LAYOUT = FixedLayout(2, 2, 64 * KiB)
# Bronze has one replica: a plain serving run arms no integrity layer.
SCENARIO = make_scenario(["a:bronze"], duration=0.02, seed=0)
FAULTS = parse_faults("corrupt:0@0.001;crash:hserver1@0.002")
PAYLOADS = ("obs", "faults", "integrity", "serving", "mds", "cache", "durability")


def _workload(**kwargs):
    return run_workload(TESTBED, WORKLOAD, LAYOUT, **kwargs)


def _batch(**kwargs):
    return run_workload(TESTBED, WORKLOAD.request_batch(), LAYOUT, **kwargs)


def _batched(**kwargs):
    return run_workload_batched(TESTBED, WORKLOAD, LAYOUT, **kwargs)


def _serving(**kwargs):
    return run_serving(TESTBED, SCENARIO, **kwargs)


ENTRY_POINTS = pytest.mark.parametrize(
    "entry",
    [_workload, _batch, _batched, _serving],
    ids=["workload", "batch", "batched", "serving"],
)


@ENTRY_POINTS
def test_trace_yields_obs(entry):
    result = entry(trace=True)
    assert result.obs is not None
    assert result.obs.makespan == result.makespan


@ENTRY_POINTS
def test_fault_schedule_yields_fault_and_integrity_payloads(entry):
    result = entry(faults=FAULTS, retry=RetryPolicy(seed=0))
    assert result.faults is not None
    assert result.faults.crashes == 1
    assert result.integrity is not None


@ENTRY_POINTS
def test_plain_run_leaves_optional_payloads_none(entry, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    result = entry()
    expected_present = {"serving"} if entry is _serving else set()
    present = {name for name in PAYLOADS if getattr(result, name) is not None}
    assert present == expected_present
    assert result.makespan > 0


@pytest.mark.parametrize("force_general", [False, True])
def test_batched_alias_equals_run_workload_on_the_batch(force_general):
    alias = run_workload_batched(TESTBED, WORKLOAD, LAYOUT, force_general=force_general)
    direct = run_workload(TESTBED, WORKLOAD.request_batch(), LAYOUT, force_general=force_general)
    assert pickle.dumps(alias) == pickle.dumps(direct)
