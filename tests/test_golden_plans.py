"""Golden plans: the RSTs the planners produce for the paper's figure workloads.

Plan only — trace, calibration, Algorithms 1–2 (or the multi-tier
coordinate descent) — with no workload simulated. Each entry pins every
region's offset and per-class stripes, so any change to the Sec. III-D cost
kernel, the grid geometry or region division that moves a plan fails here.
"""

import pytest

from repro.devices.base import OpType
from repro.experiments.figures import default_testbed, fig6
from repro.experiments.harness import harl_plan
from repro.experiments.tiered import TierDef, TieredTestbed, tiered_harl_plan
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload

K = KiB


def regions(rst):
    return [(entry.offset, entry.config.stripes) for entry in rst.entries]


def ior(op, request_size=512 * KiB, file_size=32 * MiB):
    return IORWorkload(
        IORConfig(n_processes=16, request_size=request_size, file_size=file_size, op=op)
    )


def test_fig6():
    assert regions(fig6().rst) == [
        (0, (0, 4 * K)),
        (10 * MiB, (56 * K, 364 * K)),
        (25427968, (8 * K, 104 * K)),
    ]


@pytest.mark.parametrize("op", [OpType.READ, OpType.WRITE])
def test_fig7(op):
    assert regions(harl_plan(default_testbed(), ior(op))) == [(0, (16 * K, 208 * K))]


@pytest.mark.parametrize(
    "op, request_size, stripes",
    [
        (OpType.READ, 128 * KiB, (0, 4 * K)),
        (OpType.READ, 1024 * KiB, (32 * K, 416 * K)),
        (OpType.WRITE, 128 * KiB, (0, 4 * K)),
        (OpType.WRITE, 1024 * KiB, (32 * K, 416 * K)),
    ],
)
def test_fig9(op, request_size, stripes):
    workload = ior(op, request_size=request_size, file_size=16 * 8 * request_size)
    assert regions(harl_plan(default_testbed(), workload)) == [(0, stripes)]


@pytest.mark.parametrize(
    "ratio, stripes", [((7, 1), (16 * K, 144 * K)), ((2, 6), (0, 16 * K))]
)
@pytest.mark.parametrize("op", [OpType.READ, OpType.WRITE])
def test_fig10(ratio, stripes, op):
    testbed = default_testbed(n_hservers=ratio[0], n_sservers=ratio[1])
    assert regions(harl_plan(testbed, ior(op))) == [(0, stripes)]


@pytest.mark.parametrize(
    "op, stripes",
    [
        (OpType.READ, [(0, 4 * K), (28 * K, 448 * K), (0, 8 * K), (16 * K, 208 * K)]),
        (OpType.WRITE, [(0, 4 * K), (56 * K, 364 * K), (8 * K, 104 * K), (16 * K, 208 * K)]),
    ],
)
def test_fig11(op, stripes):
    scale = 16
    workload = SyntheticRegionWorkload(
        regions=[
            RegionSpec(size=size * MiB // scale, request_size=request, coverage=0.5)
            for size, request in zip((256, 1024, 2048, 4096), (64 * K, 1024 * K, 256 * K, 512 * K))
        ],
        n_processes=16,
        op=op,
    )
    offsets = [0, 18874368, 84410368, 219152384]
    assert regions(harl_plan(default_testbed(), workload)) == list(zip(offsets, stripes))


@pytest.mark.parametrize(
    "op, stripes", [("read", (64 * K, 64 * K, 0)), ("write", (80 * K, 48 * K, 0))]
)
def test_three_tier_example(op, stripes):
    """The cluster of ``examples/three_tier_cluster.py``."""
    testbed = TieredTestbed(
        tiers=[
            TierDef(
                "ssd",
                2,
                {
                    "read_bandwidth": 1800 * MiB,
                    "write_bandwidth": 1200 * MiB,
                    "read_alpha_min": 5e-6,
                    "read_alpha_max": 2e-5,
                    "write_alpha_min": 1e-5,
                    "write_alpha_max": 3e-5,
                },
            ),
            TierDef("ssd", 2, {}),
            TierDef("hdd", 4, {}),
        ],
        seed=0,
    )
    assert regions(tiered_harl_plan(testbed, ior(op))) == [(0, stripes)]
