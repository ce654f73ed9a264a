"""Property-based tests for collective-I/O interval handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.base import OpType
from repro.middleware.collective import (
    CollectiveEngine,
    access_phase,
    as_pieces,
    merge_intervals,
    merge_runs,
    split_domains,
    split_into_domains,
)
from repro.middleware.mpi_sim import SimMPI
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout
from repro.simulate.engine import Simulator
from repro.util.units import KiB

pieces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**4)),
    min_size=0,
    max_size=60,
)


@given(pieces)
@settings(max_examples=300)
def test_merge_output_sorted_disjoint(piece_list):
    merged = merge_intervals(piece_list)
    for (a_off, a_size), (b_off, b_size) in zip(merged, merged[1:]):
        assert a_off + a_size < b_off  # Strictly disjoint with a gap.
    assert all(size > 0 for _, size in merged)


@given(pieces)
@settings(max_examples=300)
def test_merge_preserves_byte_set(piece_list):
    """Every byte covered before is covered after, and none are invented."""
    def byte_set(spans):
        covered = set()
        for offset, size in spans:
            covered.update(range(offset, offset + size))
        return covered

    # Keep the brute-force set small.
    small = [(o % 500, s % 50) for o, s in piece_list]
    assert byte_set(merge_intervals(small)) == byte_set(small)


@given(pieces, st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_split_conserves_bytes(piece_list, n_aggregators):
    runs = merge_intervals(piece_list)
    domains = split_into_domains(runs, n_aggregators)
    assert len(domains) == n_aggregators
    total_before = sum(size for _, size in runs)
    total_after = sum(size for domain in domains for _, size in domain)
    assert total_after == total_before


@given(pieces, st.integers(min_value=1, max_value=12))
@settings(max_examples=200)
def test_split_domains_are_ordered_and_disjoint(piece_list, n_aggregators):
    runs = merge_intervals(piece_list)
    domains = split_into_domains(runs, n_aggregators)
    previous_end = -1
    for domain in domains:
        for offset, size in domain:
            assert offset > previous_end or offset >= previous_end
            previous_end = max(previous_end, offset + size - 1)


@given(pieces, st.integers(min_value=1, max_value=12))
@settings(max_examples=200)
def test_split_pieces_lie_within_their_domain(piece_list, n_aggregators):
    runs = merge_intervals(piece_list)
    if not runs:
        return
    domains = split_into_domains(runs, n_aggregators)
    lo = min(offset for offset, _ in runs)
    hi = max(offset + size for offset, size in runs)
    per = -(-(hi - lo) // n_aggregators)
    for index, domain in enumerate(domains):
        domain_lo = lo + index * per
        for offset, size in domain:
            assert offset >= domain_lo
            if index + 1 < n_aggregators:
                assert offset + size <= lo + (index + 1) * per
            else:
                assert offset + size <= hi  # Last domain absorbs the tail.


# -- the array kernel against a plain sequential merge/split -----------------


def reference_merge(piece_list):
    """Sort, then extend the last run while the next piece starts inside it."""
    merged = []
    for start, end in sorted((o, o + s) for o, s in piece_list if s > 0):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end - start) for start, end in merged]


def reference_split(runs, n_aggregators):
    """Walk each run, cutting it at every domain boundary it crosses."""
    domains = [[] for _ in range(n_aggregators)]
    if not runs:
        return domains
    lo = min(o for o, _ in runs)
    hi = max(o + s for o, s in runs)
    per = -(-(hi - lo) // n_aggregators)
    for offset, size in runs:
        cursor, end = offset, offset + size
        while cursor < end:
            agg = min((cursor - lo) // per, n_aggregators - 1)
            piece_end = min(end, lo + (agg + 1) * per)
            domains[agg].append((cursor, piece_end - cursor))
            cursor = piece_end
    return domains


def as_domains(requests, bounds):
    return [
        [tuple(p) for p in requests[a:b].tolist()] for a, b in zip(bounds[:-1], bounds[1:])
    ]


# Small offsets make overlaps, containment and touching pieces common;
# duplicates are drawn explicitly, and size 0 is in range.
dense_pieces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=300)),
    max_size=60,
).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=20).map(lambda dup: base + dup)
    if base
    else st.just(base)
)
any_pieces = st.one_of(pieces, dense_pieces)
aggregators = st.integers(min_value=1, max_value=12)


@given(any_pieces)
@settings(max_examples=300)
def test_merge_kernel_matches_sequential_merge(piece_list):
    runs = merge_runs(as_pieces(piece_list))
    assert runs.dtype == np.int64 and runs.shape[1:] == (2,)
    assert [tuple(r) for r in runs.tolist()] == reference_merge(piece_list)
    assert merge_intervals(piece_list) == reference_merge(piece_list)


@given(any_pieces, aggregators)
@settings(max_examples=300)
def test_split_kernel_matches_sequential_split(piece_list, n_aggregators):
    runs = reference_merge(piece_list)
    expected = reference_split(runs, n_aggregators)
    assert as_domains(*split_domains(as_pieces(runs), n_aggregators)) == expected
    assert split_into_domains(runs, n_aggregators) == expected


@given(any_pieces, aggregators)
@settings(max_examples=300)
def test_split_kernel_keeps_input_order_on_unmerged_runs(piece_list, n_aggregators):
    # The list wrapper accepts any runs, as the sequential loop did:
    # unsorted, overlapping or empty ones slice the same way, in input order.
    assert split_into_domains(piece_list, n_aggregators) == reference_split(
        piece_list, n_aggregators
    )


@given(any_pieces, aggregators)
@settings(max_examples=300)
def test_access_phase_matches_merge_split_merge(piece_list, n_aggregators):
    """The kernel's one pass equals the old merge, split, per-domain re-merge."""
    expected = [
        reference_merge(domain)
        for domain in reference_split(reference_merge(piece_list), n_aggregators)
    ]
    requests, bounds = access_phase(as_pieces(piece_list), n_aggregators)
    assert len(bounds) == n_aggregators + 1
    assert as_domains(requests, bounds) == expected


# -- the engine accepts lists and (n, 2) arrays alike ------------------------


def collective_makespan(per_rank, n_aggregators=2):
    sim = Simulator()
    pfs = HybridPFS.build(sim, 2, 1, seed=0)
    handle = pfs.create_file("shared.dat", FixedLayout(2, 1, 64 * KiB))
    world = SimMPI(sim, len(per_rank), network=pfs.network)
    engine = CollectiveEngine(world.comm, handle, n_aggregators=n_aggregators)

    def program(ctx):
        yield from engine.call(ctx.rank, OpType.WRITE, per_rank[ctx.rank])

    sim.run(world.spawn(program))
    return sim.now, handle.bytes_written


@given(st.lists(dense_pieces, min_size=1, max_size=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_engine_list_and_array_inputs_agree(per_rank, n_aggregators):
    scaled = [[(o * KiB, s * KiB) for o, s in pieces] for pieces in per_rank]
    arrays = [np.array(pieces, dtype=np.int64).reshape(-1, 2) for pieces in scaled]
    assert collective_makespan(scaled, n_aggregators) == collective_makespan(
        arrays, n_aggregators
    )


@pytest.mark.parametrize(
    "malformed",
    [
        [(0, KiB, 1)],
        [(0, KiB, 1), (KiB, KiB, 1)],  # Six values: a blind reshape would take them.
        np.zeros((2, 3), dtype=np.int64),
        np.zeros((2, 1), dtype=np.int64),
        np.array([0, KiB], dtype=np.int64),
        np.zeros((1, 2, 2), dtype=np.int64),
        [(0, KiB), (KiB,)],
    ],
)
def test_engine_rejects_malformed_pieces(malformed):
    with pytest.raises(ValueError):
        collective_makespan([malformed, [(0, KiB)]])


def test_engine_accepts_empty_inputs():
    assert collective_makespan([[], np.empty((0, 2), dtype=np.int64)]) == (0.0, 0)
