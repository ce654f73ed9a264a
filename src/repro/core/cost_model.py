"""The analytical access cost model (paper Sec. III-D, Eq. 1–8).

Cost of one file request ``(op, o, r)`` striped over server classes — the
paper's M HServers with stripe h and N SServers with stripe s, or the
Sec. V extension to K ordered classes::

    T = T_X + T_S + T_T

- ``T_X = max_i s_i · t``                            (Eq. 1, network)
- ``T_S = max_i T_i^S`` where each class contributes the expected maximum
  of its per-server uniform startup draws (Eq. 3–5)::

      T_i^S = α_min + m_i/(m_i+1) · (α_max − α_min)   if m_i > 0, else 0

- ``T_T = max_i s_i · β_i``                          (Eq. 6, storage)

with s_i the largest sub-request on a class-i server and m_i the number of
class-i servers touched — the critical parameters (s_m, s_n, m, n) for two
classes. Writes use each class's write parameter set (Eq. 8).

The paper derives the critical parameters by the Figure 5 case analysis
(kept verbatim as :func:`repro.pfs.mapping.paper_case_a_params`); we compute
them exactly from the striping math (:mod:`repro.pfs.mapping`), which agrees
with Fig. 5 where Fig. 5 is exact and corrects its under-count in the
multi-round, multi-column cases (servers between the beginning and ending
columns receive Δr+1 stripes, not Δr). The ablation bench
``benchmarks/test_ablation_cost_model.py`` quantifies the difference.

The model is written twice, on purpose. :func:`class_total_cost` is the
kernel: summed batch cost for every candidate stripe vector, vectorized over
(candidates × requests × servers) on top of
:func:`repro.pfs.mapping.class_critical_params`; Algorithm 2's
:func:`total_cost_vectorized` and the multi-tier coordinate descent wrap it.
:func:`class_cost_breakdown` is the scalar reference for one request, fed
per-class critical parameters from ``decompose``; it backs
:func:`request_cost_breakdown` and the multi-tier scalar cost, and it is the
oracle the kernel is tested against, so it must not call the kernel.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import CostModelParameters
from repro.devices.base import OpType
from repro.devices.profiles import DeviceProfile
from repro.pfs.mapping import StripingConfig, class_critical_params, critical_params


@dataclass(frozen=True)
class CostBreakdown:
    """The three additive cost phases of one request."""

    network: float
    startup: float
    transfer: float

    @property
    def total(self) -> float:
        return self.network + self.startup + self.transfer


def class_cost_breakdown(
    profiles: Sequence[DeviceProfile],
    unit_network_time: float,
    op: OpType | str,
    largest: Sequence[int],
    touched: Sequence[int],
) -> CostBreakdown:
    """Eq. 1–8 for one request from its per-class critical parameters.

    ``largest[i]`` is the largest sub-request on a class-i server and
    ``touched[i]`` the number of class-i servers that receive one.
    """
    op = OpType.parse(op)
    return CostBreakdown(
        network=max(largest) * unit_network_time,
        startup=max(p.expected_startup(op, n) for p, n in zip(profiles, touched)),
        transfer=max(s * p.beta(op) for p, s in zip(profiles, largest)),
    )


def request_cost_breakdown(
    params: CostModelParameters,
    op: OpType | str,
    offset: int,
    size: int,
    hstripe: int,
    sstripe: int,
) -> CostBreakdown:
    """Cost phases of one request under stripe pair (hstripe, sstripe)."""
    op = OpType.parse(op)
    if size <= 0:
        return CostBreakdown(0.0, 0.0, 0.0)
    config = StripingConfig(
        n_hservers=params.n_hservers,
        n_sservers=params.n_sservers,
        hstripe=hstripe,
        sstripe=sstripe,
    )
    crit = critical_params(config, offset, size)
    return class_cost_breakdown(
        (params.hserver, params.sserver),
        params.unit_network_time,
        op,
        (crit.s_m, crit.s_n),
        (crit.m, crit.n),
    )


def request_cost(
    params: CostModelParameters,
    op: OpType | str,
    offset: int,
    size: int,
    hstripe: int,
    sstripe: int,
) -> float:
    """Eq. (7)/(8): total cost of one request."""
    return request_cost_breakdown(params, op, offset, size, hstripe, sstripe).total


def class_total_cost(
    class_counts: Sequence[int],
    profiles: Sequence[DeviceProfile],
    unit_network_time: float,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    stripe_matrix: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every candidate stripe vector.

    Args:
        class_counts, profiles: servers and :class:`DeviceProfile` per class.
        unit_network_time: the network's t (seconds/byte).
        offsets, sizes: int64 arrays, one entry per request.
        is_read: boolean array; False entries are writes.
        stripe_matrix: int64 array ``(n_cand, K)`` of per-class stripes;
            every row must distribute some data.

    Returns:
        float64 array ``(n_cand,)`` — the region cost (sum over requests)
        of each candidate.
    """
    is_read = np.asarray(is_read, dtype=bool)
    if is_read.shape != np.shape(offsets):
        raise ValueError("offsets, sizes, is_read must share a shape")
    largest, touched = class_critical_params(class_counts, stripe_matrix, offsets, sizes)

    # Float sums depend on memory order: op-masked columns are
    # Fortran-ordered and numpy sums their rows sequentially, while a
    # C-ordered operand (say, a max started from np.zeros) makes it sum
    # pairwise. Building every term from the masked columns and starting
    # each max from class 0's term keeps one order, so tied Algorithm 2
    # candidates resolve the same way for every K.
    total = np.zeros(largest.shape[1], dtype=np.float64)
    for op in (OpType.READ, OpType.WRITE):
        mask = is_read if op is OpType.READ else ~is_read
        if not mask.any():
            continue
        terms = None
        for profile, pieces, count in zip(profiles, largest, touched):
            pieces, count = pieces[:, mask], count[:, mask].astype(np.float64)
            lo, hi = profile.alpha_bounds(op)
            class_terms = (
                pieces * unit_network_time,
                np.where(count > 0, lo + (count / (count + 1.0)) * (hi - lo), 0.0),
                pieces * profile.beta(op),
            )
            if terms is None:
                terms = class_terms
            else:
                terms = tuple(np.maximum(a, b) for a, b in zip(terms, class_terms))
        network, startup, transfer = terms
        total += (network + startup + transfer).sum(axis=1)
    return total


def total_cost_vectorized(
    params: CostModelParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    hstripe: int,
    s_candidates: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every candidate ``s`` at fixed ``h``.

    Algorithm 2's inner loop: :func:`class_total_cost` over the ``[h, s]``
    candidate matrix.

    Args:
        params: cost model parameters.
        offsets, sizes: int64 arrays, one entry per request.
        is_read: boolean array; False entries are writes.
        hstripe: the HServer stripe h under evaluation (bytes, may be 0).
        s_candidates: int64 array of SServer stripes s to evaluate; every
            entry must satisfy ``M·h + N·s > 0``.

    Returns:
        float64 array of shape ``(len(s_candidates),)`` — the region cost
        (sum over requests) for each (h, s) pair. Algorithm 2 minimizes this
        over the whole grid.
    """
    s_candidates = np.asarray(s_candidates, dtype=np.int64)
    return class_total_cost(
        (params.n_hservers, params.n_sservers),
        (params.hserver, params.sserver),
        params.unit_network_time,
        offsets,
        sizes,
        is_read,
        np.column_stack([np.full_like(s_candidates, int(hstripe)), s_candidates]),
    )
