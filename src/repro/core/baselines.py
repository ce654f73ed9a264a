"""Planner baselines from the paper's related work (Sec. II).

HARL's two dimensions of adaptivity are (a) per-*region* layouts and (b)
per-*server-class* stripe sizes. The related work covers each dimension
alone, and the paper positions HARL as their combination:

- **Segment-level** (Song et al. [10]): the file is divided into
  *fixed-size* segments, each given one optimal stripe size that is
  *identical on every server* — region-adaptive, heterogeneity-blind.
  :func:`plan_segment_level`.
- **Server-level** (Song et al. [22] / PADP [32]): one (h, s) pair chosen
  per server class for the *whole file* — heterogeneity-aware,
  region-blind. :func:`plan_server_level`.

Both reuse HARL's calibrated cost model for their searches so the
comparison isolates the layout *structure*, not the model quality. Both
return :class:`~repro.core.rst.RegionStripeTable` objects usable anywhere a
HARL RST is.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import total_cost_vectorized
from repro.core.params import CostModelParameters
from repro.core.region_division import fixed_size_division
from repro.core.rst import RegionStripeTable, RSTEntry
from repro.core.stripe_determination import _grid_geometry, _sample_requests, determine_stripes
from repro.pfs.mapping import StripingConfig
from repro.util.units import MiB
from repro.workloads.traces import TraceRecord, sort_trace, trace_arrays


def _best_uniform_stripe(
    params: CostModelParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    step: int,
    max_requests: int,
) -> int:
    """Grid-search a single stripe used on every server (h = s)."""
    offsets, sizes, is_read, _ = _sample_requests(
        offsets - int(offsets.min()), sizes, is_read, max_requests
    )
    step, max_stripe = _grid_geometry(float(sizes.mean()), step)
    best_stripe, best_cost = step, np.inf
    for stripe in range(step, max_stripe + 1, step):
        cost = float(
            total_cost_vectorized(
                params, offsets, sizes, is_read, stripe, np.array([stripe], dtype=np.int64)
            )[0]
        )
        if cost < best_cost:
            best_cost, best_stripe = cost, stripe
    return best_stripe


def plan_segment_level(
    params: CostModelParameters,
    trace: list[TraceRecord],
    segment_size: int = 8 * MiB,
    step: int | None = None,
    max_requests_per_segment: int = 256,
) -> RegionStripeTable:
    """The segment-level scheme [10]: fixed segments, one uniform stripe each.

    ``segment_size`` is the fixed chunk (the paper quotes 64-128 MB against
    16 GB files; scale it with your file). The per-segment search constrains
    h = s, reflecting the scheme's homogeneous-server assumption.
    """
    if not trace:
        raise ValueError("cannot plan from an empty trace")
    offsets, sizes, is_read = trace_arrays(sort_trace(trace))
    regions = fixed_size_division(offsets, sizes, region_chunk=segment_size)
    entries = []
    for region in regions:
        lo, hi = region.first_request, region.last_request
        seg_step, _ = _grid_geometry(region.avg_request_size, step)
        stripe = _best_uniform_stripe(
            params, offsets[lo:hi], sizes[lo:hi], is_read[lo:hi], seg_step,
            max_requests_per_segment,
        )
        entries.append(
            RSTEntry(
                region_id=region.region_id,
                offset=region.offset,
                end=region.end,
                config=StripingConfig(
                    n_hservers=params.n_hservers,
                    n_sservers=params.n_sservers,
                    hstripe=stripe,
                    sstripe=stripe,
                ),
            )
        )
    return RegionStripeTable(entries).merged()


def plan_server_level(
    params: CostModelParameters,
    trace: list[TraceRecord],
    step: int | None = None,
    max_requests: int = 512,
) -> RegionStripeTable:
    """The server-level scheme [22]/[32]: one (h, s) pair for the whole file."""
    if not trace:
        raise ValueError("cannot plan from an empty trace")
    offsets, sizes, is_read = trace_arrays(sort_trace(trace))
    choice = determine_stripes(
        params, offsets, sizes, is_read, step=step, max_requests=max_requests
    )
    return RegionStripeTable(
        [
            RSTEntry(
                region_id=0,
                offset=0,
                end=None,
                config=StripingConfig(
                    n_hservers=params.n_hservers,
                    n_sservers=params.n_sservers,
                    hstripe=choice.hstripe,
                    sstripe=choice.sstripe,
                ),
            )
        ]
    )
