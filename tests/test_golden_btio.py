"""Golden BTIO values: the collective path's outputs, pinned bit for bit.

fig12 prints four significant digits, so a change to the two-phase
collective path (piece generation, interval merge, domain split) could move
a makespan without moving the figure. This file pins the exact ``repr`` of
makespan and per-server busy time for small BTIO runs, and a digest of the
planning trace and request batch, as the list-of-tuples implementation
produced them.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.figures import default_testbed
from repro.experiments.harness import harl_plan, run_workload
from repro.pfs.layout import FixedLayout
from repro.util.units import KiB, MiB
from repro.workloads.btio import BTIOConfig, BTIOWorkload

GRID = 32


def workload(n_processes):
    return BTIOWorkload(
        BTIOConfig(n_processes=n_processes, grid=GRID, timesteps=20, write_interval=5)
    )


def digest(*columns):
    h = hashlib.sha256()
    for column in columns:
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


def run_values(n_processes, layout_name):
    testbed = default_testbed()
    wl = workload(n_processes)
    if layout_name == "HARL":
        layout = harl_plan(testbed, wl)
    else:
        stripe = {"64K": 64 * KiB, "1M": MiB}[layout_name]
        layout = FixedLayout(testbed.n_hservers, testbed.n_sservers, stripe)
    result = run_workload(testbed, wl, layout)
    return repr(result.makespan), {k: repr(v) for k, v in sorted(result.server_busy.items())}


def trace_values(n_processes):
    records = workload(n_processes).synthetic_trace()
    return len(records), digest(
        np.array([r.offset for r in records], dtype=np.int64),
        np.array([r.size for r in records], dtype=np.int64),
        np.array([r.rank for r in records], dtype=np.int64),
        np.array([r.op.value == "read" for r in records], dtype=bool),
        np.array([r.timestamp for r in records], dtype=np.float64),
    )


def batch_values(n_processes):
    batch = workload(n_processes).request_batch()
    return len(batch), digest(
        batch.offsets.astype(np.int64), batch.sizes.astype(np.int64), batch.is_read.astype(bool)
    )


GOLDEN_RUNS = {
    (4, "1M"): (
        "0.1901474277784512",
        {
            "hserver0": "0.04603142275648927",
            "hserver1": "0.0460642189818288",
            "hserver2": "0.04633941115406556",
            "hserver3": "0.046083395639699265",
            "hserver4": "0.04614162336535356",
            "hserver5": "0.0",
            "sserver0": "0.0",
            "sserver1": "0.0",
        },
    ),
    (4, "64K"): (
        "0.06024891142160075",
        {
            "hserver0": "0.0315854317836175",
            "hserver1": "0.03201279170518481",
            "hserver2": "0.032100643885268655",
            "hserver3": "0.03176530229873227",
            "hserver4": "0.03171964853309062",
            "hserver5": "0.03147194114493247",
            "sserver0": "0.0049213914078926856",
            "sserver1": "0.004994154880581664",
        },
    ),
    (4, "HARL"): (
        "0.040078771458975246",
        {
            "hserver0": "0.011781599689509701",
            "hserver1": "0.012459407483229549",
            "hserver2": "0.01246512136961779",
            "hserver3": "0.011692402908112886",
            "hserver4": "0.011964180299740508",
            "hserver5": "0.011870574186437461",
            "sserver0": "0.013777436026649131",
            "sserver1": "0.013847656883527161",
        },
    ),
    (16, "1M"): (
        "0.1847771212270866",
        {
            "hserver0": "0.04724899397257274",
            "hserver1": "0.047167457654418446",
            "hserver2": "0.047876282814217436",
            "hserver3": "0.047226337305019996",
            "hserver4": "0.04725593082318985",
            "hserver5": "0.0",
            "sserver0": "0.0",
            "sserver1": "0.0",
        },
    ),
    (16, "64K"): (
        "0.05450179361474015",
        {
            "hserver0": "0.0325456324135178",
            "hserver1": "0.03272926497148927",
            "hserver2": "0.03298791957862021",
            "hserver3": "0.03260159659035298",
            "hserver4": "0.032507297406817834",
            "hserver5": "0.03244566181302815",
            "sserver0": "0.005070239005041371",
            "sserver1": "0.005121835096655576",
        },
    ),
    (16, "HARL"): (
        "0.0347017940565431",
        {
            "hserver0": "0.0",
            "hserver1": "0.0",
            "hserver2": "0.0",
            "hserver3": "0.0",
            "hserver4": "0.0",
            "hserver5": "0.0",
            "sserver0": "0.018205336707297046",
            "sserver1": "0.018132573323492312",
        },
    ),
}

GOLDEN_TRACES = {4: (32, "22225f9dc8b89145"), 16: (64, "f546695e8943853b")}

GOLDEN_BATCHES = {4: (32, "40acb20b5a47c432"), 16: (64, "e2e0de9ce05a2c14")}


@pytest.mark.parametrize("n_processes, layout_name", sorted(GOLDEN_RUNS))
def test_run_is_bit_identical(n_processes, layout_name):
    assert run_values(n_processes, layout_name) == GOLDEN_RUNS[n_processes, layout_name]


@pytest.mark.parametrize("n_processes", sorted(GOLDEN_TRACES))
def test_synthetic_trace_is_identical(n_processes):
    assert trace_values(n_processes) == GOLDEN_TRACES[n_processes]


@pytest.mark.parametrize("n_processes", sorted(GOLDEN_BATCHES))
def test_request_batch_is_identical(n_processes):
    assert batch_values(n_processes) == GOLDEN_BATCHES[n_processes]
