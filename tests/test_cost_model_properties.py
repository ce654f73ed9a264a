"""Property-based tests for the access cost model's invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import (
    class_cost_breakdown,
    class_total_cost,
    request_cost,
    request_cost_breakdown,
    total_cost_vectorized,
)
from repro.core.params import CostModelParameters
from repro.devices.profiles import DeviceProfile
from repro.pfs.mapping import class_critical_params
from repro.pfs.tiered import MultiClassStripingConfig
from repro.util.units import KiB

HPROF = DeviceProfile(
    read_alpha_min=5e-5, read_alpha_max=1.5e-4,
    write_alpha_min=5e-5, write_alpha_max=1.5e-4,
    beta_read=2.1e-8, beta_write=2.1e-8, label="h",
)
SPROF = DeviceProfile(
    read_alpha_min=1e-5, read_alpha_max=4e-5,
    write_alpha_min=2e-5, write_alpha_max=6e-5,
    beta_read=1.6e-9, beta_write=3.2e-9, label="s",
)


@st.composite
def _params(draw):
    m = draw(st.integers(min_value=0, max_value=8))
    n = draw(st.integers(min_value=0, max_value=4))
    assume(m + n > 0)
    return CostModelParameters(
        n_hservers=m, n_sservers=n, unit_network_time=2e-9, hserver=HPROF, sserver=SPROF
    )


@st.composite
def _stripes(draw, params):
    h = draw(st.integers(min_value=0, max_value=64)) * 4 * KiB
    s = draw(st.integers(min_value=0, max_value=64)) * 4 * KiB
    assume(params.n_hservers * h + params.n_sservers * s > 0)
    return h, s


offsets = st.integers(min_value=0, max_value=2**26)
sizes = st.integers(min_value=1, max_value=2**22)
ops = st.sampled_from(["read", "write"])


@given(st.data())
@settings(max_examples=200)
def test_cost_positive_and_finite(data):
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    offset = data.draw(offsets)
    size = data.draw(sizes)
    op = data.draw(ops)
    cost = request_cost(params, op, offset, size, h, s)
    assert np.isfinite(cost)
    assert cost > 0


@given(st.data())
@settings(max_examples=150)
def test_breakdown_components_nonnegative(data):
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    breakdown = request_cost_breakdown(
        params, data.draw(ops), data.draw(offsets), data.draw(sizes), h, s
    )
    assert breakdown.network >= 0
    assert breakdown.startup >= 0
    assert breakdown.transfer > 0
    assert breakdown.total == pytest.approx(
        breakdown.network + breakdown.startup + breakdown.transfer
    )


@given(st.data())
@settings(max_examples=100)
def test_cost_monotone_in_size_same_offset(data):
    """Extending a request (same start) never lowers any cost phase except
    startup (touching more servers can only raise the expected max)."""
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    offset = data.draw(offsets)
    size = data.draw(st.integers(min_value=1, max_value=2**21))
    extra = data.draw(st.integers(min_value=1, max_value=2**21))
    op = data.draw(ops)
    small = request_cost_breakdown(params, op, offset, size, h, s)
    large = request_cost_breakdown(params, op, offset, size + extra, h, s)
    assert large.network >= small.network - 1e-15
    assert large.transfer >= small.transfer - 1e-15
    assert large.startup >= small.startup - 1e-15


@given(st.data())
@settings(max_examples=100)
def test_round_translation_invariance(data):
    """Shifting a request by whole striping rounds leaves its cost unchanged."""
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    S = params.n_hservers * h + params.n_sservers * s
    offset = data.draw(st.integers(min_value=0, max_value=2**22))
    size = data.draw(sizes)
    rounds = data.draw(st.integers(min_value=1, max_value=5))
    op = data.draw(ops)
    base = request_cost(params, op, offset, size, h, s)
    shifted = request_cost(params, op, offset + rounds * S, size, h, s)
    assert shifted == pytest.approx(base, rel=1e-12)


@given(st.data())
@settings(max_examples=60)
def test_vectorized_equals_scalar(data):
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    assume(params.n_sservers == 0 or s > 0 or params.n_hservers * h > 0)
    n = data.draw(st.integers(min_value=1, max_value=12))
    offs = np.array([data.draw(offsets) for _ in range(n)], dtype=np.int64)
    szs = np.array([data.draw(sizes) for _ in range(n)], dtype=np.int64)
    is_read = np.array([data.draw(st.booleans()) for _ in range(n)])
    total = total_cost_vectorized(params, offs, szs, is_read, h, np.array([s]))[0]
    expected = sum(
        request_cost(params, "read" if r else "write", int(o), int(z), h, s)
        for o, z, r in zip(offs, szs, is_read)
    )
    assert total == pytest.approx(expected, rel=1e-10)


@given(st.data())
@settings(max_examples=100)
def test_write_never_cheaper_than_read_on_sservers(data):
    """With SServer-only placement, Eq. (8)'s write parameters dominate."""
    params = data.draw(_params())
    assume(params.n_sservers > 0)
    s = (data.draw(st.integers(min_value=1, max_value=64))) * 4 * KiB
    offset = data.draw(offsets)
    size = data.draw(sizes)
    read = request_cost(params, "read", offset, size, 0, s)
    write = request_cost(params, "write", offset, size, 0, s)
    assert write >= read - 1e-15


# ---------------------------------------------------------------------------
# The K-class kernel against the scalar reference, K in {1, 2, 3}
# ---------------------------------------------------------------------------

NVME = DeviceProfile(
    read_alpha_min=5e-6, read_alpha_max=2e-5,
    write_alpha_min=1e-5, write_alpha_max=3e-5,
    beta_read=5e-10, beta_write=8e-10, label="nvme",
)


@st.composite
def _class_layouts(draw):
    """(counts, profiles, stripe_matrix): some counts or stripes may be 0."""
    k = draw(st.integers(min_value=1, max_value=3))
    counts = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=k, max_size=k))
    assume(sum(counts) > 0)
    profiles = draw(st.lists(st.sampled_from([HPROF, SPROF, NVME]), min_size=k, max_size=k))
    stripe = st.one_of(st.just(0), st.integers(min_value=1, max_value=48).map(lambda x: x * 4 * KiB))
    rows = draw(
        st.lists(st.lists(stripe, min_size=k, max_size=k), min_size=1, max_size=4)
    )
    rows = [row for row in rows if sum(c * s for c, s in zip(counts, row)) > 0]
    assume(rows)
    return counts, profiles, np.array(rows, dtype=np.int64)


@st.composite
def _requests(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    offs = draw(st.lists(st.integers(min_value=0, max_value=2**24), min_size=n, max_size=n))
    szs = draw(st.lists(st.integers(min_value=0, max_value=2**21), min_size=n, max_size=n))
    reads = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        np.array(offs, dtype=np.int64),
        np.array(szs, dtype=np.int64),
        np.array(reads, dtype=bool),
    )


def _per_class_from_decompose(counts, stripes, offset, size):
    """Per-class (largest piece, servers touched), straight from decompose."""
    config = MultiClassStripingConfig(list(zip(counts, (int(s) for s in stripes))))
    largest = [0] * len(counts)
    touched = [0] * len(counts)
    for sub in config.decompose(int(offset), int(size)):
        index = config.class_of(sub.server_id)
        largest[index] = max(largest[index], sub.size)
        touched[index] += 1
    return largest, touched


@given(_class_layouts(), _requests())
@settings(max_examples=150)
def test_kernel_equals_scalar_reference(layout, requests):
    counts, profiles, matrix = layout
    offs, szs, is_read = requests
    totals = class_total_cost(counts, profiles, 2e-9, offs, szs, is_read, matrix)
    for row, stripes in zip(totals, matrix):
        expected = sum(
            class_cost_breakdown(
                profiles, 2e-9, "read" if r else "write",
                *_per_class_from_decompose(counts, stripes, o, z),
            ).total
            for o, z, r in zip(offs, szs, is_read)
        )
        assert row == pytest.approx(expected, rel=1e-12)


@given(_class_layouts(), _requests())
@settings(max_examples=150)
def test_striping_half_matches_decompose(layout, requests):
    counts, _, matrix = layout
    offs, szs, _ = requests
    largest, touched = class_critical_params(counts, matrix, offs, szs)
    assert largest.shape == touched.shape == (len(counts), matrix.shape[0], offs.shape[0])
    for cand, stripes in enumerate(matrix):
        for i, (o, z) in enumerate(zip(offs, szs)):
            want_largest, want_touched = _per_class_from_decompose(counts, stripes, o, z)
            assert largest[:, cand, i].tolist() == want_largest
            assert touched[:, cand, i].tolist() == want_touched
