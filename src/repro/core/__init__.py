"""HARL — the paper's primary contribution.

- :mod:`repro.core.params` — Table I parameter bundle (architecture,
  network, storage performance of each server class).
- :mod:`repro.core.cost_model` — the analytical access cost (Sec. III-D,
  Eq. 1–8): one K-class kernel vectorized over candidate stripe vectors and
  requests, plus the scalar reference it is tested against.
- :mod:`repro.core.region_division` — Algorithm 1: CV-driven variable-size
  region division with threshold tuning to bound region counts.
- :mod:`repro.core.stripe_determination` — Algorithm 2: grid search for the
  optimal (h, s) per region under the cost model.
- :mod:`repro.core.rst` — the Region Stripe Table (Fig. 6) with
  adjacent-region merging, plus the R2F region-to-file mapping.
- :mod:`repro.core.planner` — the three-phase pipeline facade: trace →
  regions → stripes → region-level layout.
"""

from repro.core.cost_model import (
    CostBreakdown,
    request_cost,
    request_cost_breakdown,
    total_cost_vectorized,
)
from repro.core.multiclass import (
    MultiTierChoice,
    MultiTierParameters,
    MultiTierPlanner,
    TierSpec,
    determine_stripes_multiclass,
    multiclass_request_cost,
)
from repro.core.params import CostModelParameters
from repro.core.planner import HARLPlanner
from repro.core.region_division import Region, divide_regions, divide_regions_bounded
from repro.core.rst import R2FTable, RegionStripeTable, RSTEntry
from repro.core.space import SpaceConstraint
from repro.core.stripe_determination import (
    InfeasiblePlacementError,
    StripeChoice,
    determine_stripes,
)

__all__ = [
    "CostBreakdown",
    "CostModelParameters",
    "HARLPlanner",
    "InfeasiblePlacementError",
    "MultiTierChoice",
    "MultiTierParameters",
    "MultiTierPlanner",
    "R2FTable",
    "Region",
    "RegionStripeTable",
    "RSTEntry",
    "SpaceConstraint",
    "StripeChoice",
    "TierSpec",
    "determine_stripes",
    "determine_stripes_multiclass",
    "divide_regions",
    "divide_regions_bounded",
    "multiclass_request_cost",
    "request_cost",
    "request_cost_breakdown",
    "total_cost_vectorized",
]
