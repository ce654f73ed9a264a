"""Multi-tier stripe determination (the paper's future work).

Generalizes Sec. III-E from two server classes to K ordered classes
(e.g. NVMe / SATA-SSD / HDD). A stripe vector is priced by the Sec. III-D
model with every max taken over all K classes — the same kernel
(:func:`repro.core.cost_model.class_total_cost`) and scalar reference
(:func:`repro.core.cost_model.class_cost_breakdown`) the two-class
Algorithm 2 uses; :func:`multiclass_total_cost` and
:func:`multiclass_request_cost` adapt :class:`MultiTierParameters` to them.

Exhaustively grid-searching K stripe sizes is O((R̄/step)^K); instead
:func:`determine_stripes_multiclass` runs **coordinate descent**: start from
a bandwidth-proportional allocation, then repeatedly re-optimize one class's
stripe with all others held fixed (each 1-D scan fully vectorized over
candidates × requests × servers). Each sweep can only lower the modeled
cost, so the search terminates; for K = 2 the result is verified against
the exhaustive Algorithm 2 in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import class_cost_breakdown, class_total_cost
from repro.core.stripe_determination import _grid_geometry, _sample_requests
from repro.devices.base import OpType
from repro.devices.profiles import DeviceProfile
from repro.pfs.tiered import ClassStripe, MultiClassStripingConfig
from repro.util.units import format_size
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TierSpec:
    """One server class for the multi-tier cost model."""

    count: int
    profile: DeviceProfile

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"tier count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class MultiTierParameters:
    """Table-I generalization: K tiers plus the unit network time."""

    tiers: tuple[TierSpec, ...]
    unit_network_time: float

    def __post_init__(self):
        if not self.tiers:
            raise ValueError("need at least one tier")
        check_positive("unit_network_time", self.unit_network_time)

    @property
    def n_classes(self) -> int:
        return len(self.tiers)

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(t.count for t in self.tiers)


def multiclass_request_cost(
    params: MultiTierParameters,
    op: OpType | str,
    offset: int,
    size: int,
    stripes: tuple[int, ...],
) -> float:
    """Scalar per-request cost under a K-class stripe vector."""
    op = OpType.parse(op)
    if size <= 0:
        return 0.0
    if len(stripes) != params.n_classes:
        raise ValueError(f"need {params.n_classes} stripes, got {len(stripes)}")
    config = MultiClassStripingConfig(
        [ClassStripe(tier.count, stripe) for tier, stripe in zip(params.tiers, stripes)]
    )
    per_class = config.critical_params_per_class(offset, size)
    return class_cost_breakdown(
        [tier.profile for tier in params.tiers],
        params.unit_network_time,
        op,
        [crit.s_m for crit in per_class],
        [crit.m for crit in per_class],
    ).total


def multiclass_total_cost(
    params: MultiTierParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    stripe_matrix: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every candidate stripe vector.

    The coordinate-descent inner loop: :func:`class_total_cost` over the
    tiers.

    Args:
        stripe_matrix: int64 array of shape ``(n_cand, K)``; every row must
            distribute some data (``Σ count_i · stripe_i > 0``).

    Returns:
        float64 array ``(n_cand,)`` of total costs.
    """
    return class_total_cost(
        params.class_counts,
        [tier.profile for tier in params.tiers],
        params.unit_network_time,
        offsets,
        sizes,
        is_read,
        stripe_matrix,
    )


@dataclass(frozen=True)
class MultiTierChoice:
    """The winning stripe vector and its modeled cost."""

    stripes: tuple[int, ...]
    cost: float

    def describe(self) -> str:
        inner = ", ".join(format_size(s) for s in self.stripes)
        return f"{{{inner}}}"


def _initial_stripes(
    params: MultiTierParameters, avg_request_size: float, step: int, op: OpType
) -> np.ndarray:
    """Bandwidth-proportional warm start, rounded to the grid."""
    rates = np.array([1.0 / tier.profile.beta(op) for tier in params.tiers])
    counts = np.array(params.class_counts, dtype=np.float64)
    # Aim for one striping round per average request, split by capability.
    share = rates / (rates * counts).sum()
    stripes = np.round(avg_request_size * share / step) * step
    return np.maximum(stripes, 0).astype(np.int64)


def determine_stripes_multiclass(
    params: MultiTierParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    avg_request_size: float | None = None,
    step: int | None = None,
    max_requests: int = 256,
    max_sweeps: int = 8,
) -> MultiTierChoice:
    """Coordinate-descent stripe search over K classes.

    Per sweep, each class's stripe is re-optimized over the full
    ``0..R̄`` grid with the other classes fixed; sweeps repeat until the
    vector stops changing (or ``max_sweeps``). Monotone in modeled cost.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    if offsets.shape[0] == 0:
        raise ValueError("cannot determine stripes for an empty region")
    offsets = offsets - int(offsets.min())
    if avg_request_size is None:
        avg_request_size = float(sizes.mean())
    step, max_stripe = _grid_geometry(avg_request_size, step)
    offsets, sizes, is_read, scale = _sample_requests(offsets, sizes, is_read, max_requests)

    dominant_op = OpType.READ if is_read.mean() >= 0.5 else OpType.WRITE
    current = _initial_stripes(params, avg_request_size, step, dominant_op)
    if (current * np.array(params.class_counts)).sum() == 0:
        # Degenerate warm start; every tier count is >= 1, so one stripe
        # set to a step makes the round positive.
        current[int(np.argmax(current))] = step

    grid = np.arange(0, max_stripe + 1, step, dtype=np.int64)
    best_cost = float(
        multiclass_total_cost(params, offsets, sizes, is_read, current[None, :])[0]
    )
    for _ in range(max_sweeps):
        changed = False
        for class_index in range(params.n_classes):
            candidates = np.tile(current, (grid.shape[0], 1))
            candidates[:, class_index] = grid
            valid = (candidates * np.array(params.class_counts)).sum(axis=1) > 0
            candidates = candidates[valid]
            costs = multiclass_total_cost(params, offsets, sizes, is_read, candidates)
            winner = int(np.argmin(costs))
            if float(costs[winner]) < best_cost - 1e-15:
                best_cost = float(costs[winner])
                new_value = int(candidates[winner, class_index])
                if new_value != current[class_index]:
                    current = candidates[winner].copy()
                    changed = True
        if not changed:
            break
    return MultiTierChoice(stripes=tuple(int(s) for s in current), cost=best_cost * scale)


class MultiTierPlanner:
    """HARL's three-phase pipeline generalized to K server classes.

    Region division (Algorithm 1) is class-count agnostic and reused
    verbatim; the per-region stripe search is the coordinate descent above.
    Produces an RST whose entries carry
    :class:`~repro.pfs.tiered.MultiClassStripingConfig` — directly usable by
    :class:`~repro.pfs.layout.RegionLevelLayout` on a
    :class:`~repro.pfs.tiered.TieredPFS`.
    """

    def __init__(
        self,
        params: MultiTierParameters,
        step: int | None = None,
        region_chunk: int | None = None,
        threshold: float = 1.0,
        min_requests_per_region: int = 2,
        max_requests_per_region: int = 256,
        merge_regions: bool = True,
    ):
        self.params = params
        self.step = step
        self.region_chunk = region_chunk
        self.threshold = threshold
        self.min_requests_per_region = min_requests_per_region
        self.max_requests_per_region = max_requests_per_region
        self.merge_regions = merge_regions

    def plan(self, trace):
        """Trace records → merged multi-tier RST."""
        from repro.core.region_division import divide_regions_bounded
        from repro.core.rst import RegionStripeTable, RSTEntry
        from repro.util.units import MiB
        from repro.workloads.traces import sort_trace, trace_arrays

        if not trace:
            raise ValueError("cannot plan a layout from an empty trace")
        offsets, sizes, is_read = trace_arrays(sort_trace(trace))

        region_chunk = self.region_chunk
        if region_chunk is None:
            region_chunk = max(MiB, int((offsets + sizes).max()) // 256)
        regions, _ = divide_regions_bounded(
            offsets,
            sizes,
            region_chunk=region_chunk,
            initial_threshold=self.threshold,
            min_requests=self.min_requests_per_region,
        )
        entries = []
        for region in regions:
            lo, hi = region.first_request, region.last_request
            choice = determine_stripes_multiclass(
                self.params,
                offsets[lo:hi],
                sizes[lo:hi],
                is_read[lo:hi],
                avg_request_size=region.avg_request_size,
                step=self.step,
                max_requests=self.max_requests_per_region,
            )
            entries.append(
                RSTEntry(
                    region_id=region.region_id,
                    offset=region.offset,
                    end=region.end,
                    config=MultiClassStripingConfig(
                        [
                            ClassStripe(tier.count, stripe)
                            for tier, stripe in zip(self.params.tiers, choice.stripes)
                        ]
                    ),
                )
            )
        rst = RegionStripeTable(entries)
        return rst.merged() if self.merge_regions else rst
