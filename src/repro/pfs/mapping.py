"""Round-robin striping math for heterogeneous stripe sizes.

The layout under study (paper Sec. III-D): ``M`` HServers with stripe ``h``
and ``N`` SServers with stripe ``s``, striped round-robin. One *round* is
``S = M·h + N·s`` logical bytes; within a round, bytes ``[i·h, (i+1)·h)`` go
to HServer ``i`` and bytes ``[M·h + j·s, M·h + (j+1)·s)`` go to SServer
``j``. Each server stores its stripes back-to-back in its local file, so a
contiguous logical request maps to **at most one contiguous physical
extent per server** (middle rounds always cover every window fully).

The whole module rests on one closed form. For a server whose in-round
window is ``[a, b)`` (width ``w = b − a``), the number of that server's
bytes below logical offset ``x`` is::

    F(x) = floor(x / S) · w + clamp(x mod S − a, 0, w)

``F`` is monotone and exactly partitions bytes among servers, so a request
``[o, o + r)`` gives server ``i`` the physical extent
``[F_i(o), F_i(o + r))``. Everything else — sub-request decomposition for
the simulator, the critical parameters ``(s_m, s_n, m, n)`` for the cost
model, scalar or vectorized — derives from this.

The paper's Figure 5 publishes case-analysis closed forms for case (a)
(request begins and ends on HServers); :func:`paper_case_a_params`
implements them verbatim so tests can compare against the exact math.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.util.units import format_size


@dataclass(frozen=True)
class StripingConfig:
    """A (M, N, h, s) striping choice for one file or file region.

    ``n_hservers``/``n_sservers`` are the paper's M and N; ``hstripe`` and
    ``sstripe`` are h and s in bytes. ``h == 0`` (or ``s == 0``) excludes
    that server class entirely — the paper's Fig. 9 optimum {0K, 64K} places
    data on SServers only.
    """

    n_hservers: int
    n_sservers: int
    hstripe: int
    sstripe: int

    def __post_init__(self):
        if self.n_hservers < 0 or self.n_sservers < 0:
            raise ValueError("server counts must be >= 0")
        if self.hstripe < 0 or self.sstripe < 0:
            raise ValueError("stripe sizes must be >= 0")
        if self.round_size <= 0:
            raise ValueError(
                "striping config distributes no data: need M*h + N*s > 0 "
                f"(M={self.n_hservers}, N={self.n_sservers}, "
                f"h={self.hstripe}, s={self.sstripe})"
            )

    @property
    def round_size(self) -> int:
        """Bytes per striping round: S = M·h + N·s."""
        return self.n_hservers * self.hstripe + self.n_sservers * self.sstripe

    @property
    def n_servers(self) -> int:
        """Total server count M + N."""
        return self.n_hservers + self.n_sservers

    def server_window(self, server_id: int) -> tuple[int, int]:
        """In-round byte window ``[a, b)`` of ``server_id``.

        Servers ``0 .. M-1`` are HServers; ``M .. M+N-1`` are SServers,
        following the paper's numbering.
        """
        if not (0 <= server_id < self.n_servers):
            raise IndexError(f"server_id {server_id} out of range 0..{self.n_servers - 1}")
        if server_id < self.n_hservers:
            a = server_id * self.hstripe
            return (a, a + self.hstripe)
        j = server_id - self.n_hservers
        a = self.n_hservers * self.hstripe + j * self.sstripe
        return (a, a + self.sstripe)

    def is_hserver(self, server_id: int) -> bool:
        """True if ``server_id`` indexes an HServer."""
        return 0 <= server_id < self.n_hservers

    # -- generic per-class interface (shared with the multi-tier configs) --

    @property
    def class_counts(self) -> tuple[int, ...]:
        """Servers per performance class: (M, N)."""
        return (self.n_hservers, self.n_sservers)

    @property
    def stripes(self) -> tuple[int, ...]:
        """Stripe size per class: (h, s). The RST merges on this tuple."""
        return (self.hstripe, self.sstripe)

    def class_of(self, server_id: int) -> int:
        """Performance-class index of a server (0 = HServer, 1 = SServer)."""
        return 0 if self.is_hserver(server_id) else 1

    def decompose(self, offset: int, size: int) -> list["SubRequest"]:
        """Polymorphic entry point used by the filesystem fan-out."""
        return decompose(self, offset, size)

    def to_dict(self) -> dict:
        """JSON-serializable form (see ``config_from_dict``)."""
        return {
            "type": "hybrid",
            "n_hservers": self.n_hservers,
            "n_sservers": self.n_sservers,
            "hstripe": self.hstripe,
            "sstripe": self.sstripe,
        }

    def describe(self) -> str:
        """Figure-legend style description, e.g. ``"36K-148K"`` or ``"64K"``."""
        h, s = format_size(self.hstripe), format_size(self.sstripe)
        if self.hstripe == self.sstripe:
            return h
        return f"{h}-{s}"


@dataclass(frozen=True)
class SubRequest:
    """One server's share of a logical request.

    ``offset`` and ``size`` address the server's *local* file (physical
    bytes); ``logical_offset`` records where the extent starts in the logical
    file, which the simulator's positional device models use.
    """

    server_id: int
    offset: int
    size: int
    logical_offset: int


@dataclass(frozen=True)
class CriticalParams:
    """The cost model's four critical parameters for one request.

    ``s_m``/``s_n`` — largest sub-request size on any HServer / SServer;
    ``m``/``n`` — number of HServers / SServers receiving a sub-request.
    """

    s_m: int
    s_n: int
    m: int
    n: int


def _server_bytes_below(x: int, a: int, b: int, round_size: int) -> int:
    """F(x): bytes of the server with window [a, b) below logical offset x."""
    w = b - a
    if w == 0:
        return 0
    full, rem = divmod(x, round_size)
    return full * w + min(max(rem - a, 0), w)


@lru_cache(maxsize=1024)
def _window_table(config: StripingConfig) -> tuple[tuple[int, int], ...]:
    """Per-server in-round windows, computed once per config.

    ``decompose`` runs once per simulated request; recomputing every
    server's window (and the round size behind it) per call dominated its
    profile. Configs are small frozen dataclasses, so a bounded cache keyed
    on the config itself is safe.
    """
    return tuple(config.server_window(i) for i in range(config.n_servers))


def decompose(config: StripingConfig, offset: int, size: int) -> list[SubRequest]:
    """Split logical request ``[offset, offset+size)`` into sub-requests.

    Returns one :class:`SubRequest` per touched server, ordered by server id.
    The sub-request sizes always sum to ``size`` and each is a single
    contiguous extent in the server's local file.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size == 0:
        return []
    S = config.round_size
    full_start, rem_start = divmod(offset, S)
    full_end, rem_end = divmod(offset + size, S)
    subs: list[SubRequest] = []
    append = subs.append
    for server_id, (a, b) in enumerate(_window_table(config)):
        w = b - a
        if w == 0:
            continue
        rel = rem_start - a
        p_start = full_start * w + (0 if rel < 0 else (w if rel > w else rel))
        rel = rem_end - a
        p_end = full_end * w + (0 if rel < 0 else (w if rel > w else rel))
        if p_end > p_start:
            # Logical offset where this server's extent begins: the first
            # logical byte >= offset that falls inside the server's window.
            if a <= rem_start < b:
                logical = offset
            elif rem_start < a:
                logical = full_start * S + a
            else:
                logical = (full_start + 1) * S + a
            append(
                SubRequest(
                    server_id=server_id,
                    offset=p_start,
                    size=p_end - p_start,
                    logical_offset=logical,
                )
            )
    return subs


def decompose_batch(
    config: StripingConfig,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> list[list[SubRequest]]:
    """Vectorized :func:`decompose` over many requests in one numpy pass.

    Args:
        config: the striping choice shared by every request.
        offsets, sizes: integer arrays of equal length (bytes).

    Returns:
        One ``decompose``-identical sub-request list per input request, in
        input order. This is the multi-request submission path: the closed
        form ``F`` is evaluated as one (n_requests × n_servers) array
        operation instead of per request, which is what the general path of
        :meth:`repro.pfs.filesystem.PFSFile.request_batch` uses.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape or offsets.ndim != 1:
        raise ValueError("offsets and sizes must be equal-length 1-D arrays")
    if offsets.size and (int(offsets.min()) < 0 or int(sizes.min()) < 0):
        raise ValueError("offsets and sizes must be >= 0")
    if offsets.size == 0:
        return []
    S = config.round_size
    windows = np.asarray(_window_table(config), dtype=np.int64)  # (n_servers, 2)
    a = windows[:, 0][None, :]
    w = (windows[:, 1] - windows[:, 0])[None, :]

    full_start, rem_start = np.divmod(offsets[:, None], S)
    full_end, rem_end = np.divmod((offsets + sizes)[:, None], S)
    p_start = full_start * w + np.clip(rem_start - a, 0, w)
    p_end = full_end * w + np.clip(rem_end - a, 0, w)
    sub_sizes = p_end - p_start

    # First logical byte >= offset inside each server's window (see decompose).
    b = windows[:, 1][None, :]
    logical = np.where(
        rem_start < a,
        full_start * S + a,
        np.where(rem_start >= b, (full_start + 1) * S + a, offsets[:, None]),
    )

    # Assemble from plain Python lists: per-element numpy scalar indexing
    # costs more than the whole vectorized math above at realistic batch
    # sizes, while tolist() converts each matrix in one C pass.
    out: list[list[SubRequest]] = []
    for row_start, row_sizes, row_logical in zip(
        p_start.tolist(), sub_sizes.tolist(), logical.tolist()
    ):
        out.append(
            [
                SubRequest(
                    server_id=sid,
                    offset=row_start[sid],
                    size=sub_size,
                    logical_offset=row_logical[sid],
                )
                for sid, sub_size in enumerate(row_sizes)
                if sub_size > 0
            ]
        )
    return out


def decompose_batch_flat(
    config: StripingConfig,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decompose_batch` emitted as flat sub-request columns.

    Returns ``(piece_index, server_id, sub_offset, sub_size)`` int64 arrays,
    one entry per non-empty sub-request, ordered by ``(input piece,
    server_id)`` — the exact order in which :func:`decompose` would emit
    them per piece. No per-request Python lists are materialized, which is
    what the columnar replay engine consumes directly.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape or offsets.ndim != 1:
        raise ValueError("offsets and sizes must be equal-length 1-D arrays")
    if offsets.size and (int(offsets.min()) < 0 or int(sizes.min()) < 0):
        raise ValueError("offsets and sizes must be >= 0")
    empty = np.empty(0, dtype=np.int64)
    if offsets.size == 0:
        return empty, empty, empty, empty
    S = config.round_size
    windows = np.asarray(_window_table(config), dtype=np.int64)  # (n_servers, 2)
    a = windows[:, 0][None, :]
    w = (windows[:, 1] - windows[:, 0])[None, :]

    full_start, rem_start = np.divmod(offsets[:, None], S)
    full_end, rem_end = np.divmod((offsets + sizes)[:, None], S)
    p_start = full_start * w + np.clip(rem_start - a, 0, w)
    sub_sizes = full_end * w + np.clip(rem_end - a, 0, w) - p_start

    # nonzero over the (piece × server) matrix yields row-major order:
    # piece-ascending, server-ascending within a piece — decompose's order.
    piece, server = np.nonzero(sub_sizes > 0)
    return (
        piece.astype(np.int64, copy=False),
        server.astype(np.int64, copy=False),
        p_start[piece, server],
        sub_sizes[piece, server],
    )


def critical_params(config: StripingConfig, offset: int, size: int) -> CriticalParams:
    """Exact (s_m, s_n, m, n) for one request under ``config``."""
    s_m = s_n = 0
    m = n = 0
    for sub in decompose(config, offset, size):
        if config.is_hserver(sub.server_id):
            m += 1
            s_m = max(s_m, sub.size)
        else:
            n += 1
            s_n = max(s_n, sub.size)
    return CriticalParams(s_m=s_m, s_n=s_n, m=m, n=n)


def class_critical_params(
    class_counts: tuple[int, ...],
    stripe_matrix: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class critical parameters for every candidate stripe vector.

    The K-class, vectorized (s_m, s_n, m, n): class ``i`` has
    ``class_counts[i]`` servers (0 allowed) with stripe ``stripe_matrix[c, i]``
    under candidate ``c``, classes laid out in order within a round as in
    :class:`StripingConfig`. Returns ``(largest, touched)``, int64 arrays of
    shape ``(K, n_cand, n_requests)``: each class's largest sub-request and
    number of servers touched (0 for a class that gets no data). This is the
    striping half of :func:`repro.core.cost_model.class_total_cost`.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape:
        raise ValueError("offsets and sizes must have the same shape")
    if offsets.ndim != 1:
        raise ValueError("request arrays must be 1-D")
    if np.any(offsets < 0) or np.any(sizes < 0):
        raise ValueError("offsets and sizes must be >= 0")
    counts = np.asarray(class_counts, dtype=np.int64)
    stripes = np.atleast_2d(np.asarray(stripe_matrix, dtype=np.int64))
    if stripes.shape[1] != counts.shape[0]:
        raise ValueError(
            f"stripe matrix has {stripes.shape[1]} columns, need {counts.shape[0]}"
        )
    if np.any(stripes < 0):
        raise ValueError("stripe sizes must be >= 0")
    S = (stripes @ counts)[:, None]  # (n_cand, 1)
    if np.any(S <= 0):
        raise ValueError(
            "every candidate must distribute some data: need M*h + N*s > 0 "
            "(sum of count_i * stripe_i over the classes)"
        )

    # F(x) = floor(x/S)·w + clip(x mod S − a, 0, w), per server window
    # [a, a + w); the floor/mod is shared by every class.
    full_lo, rem_lo = np.divmod(offsets[None, :], S)  # (n_cand, k)
    full_hi, rem_hi = np.divmod((offsets + sizes)[None, :], S)
    rounds = full_hi - full_lo
    # Class windows start at the prefix sums of count_j · stripe_j.
    bases = np.zeros_like(stripes)
    np.cumsum(stripes[:, :-1] * counts[:-1], axis=1, out=bases[:, 1:])

    shape = (counts.shape[0], stripes.shape[0], offsets.shape[0])
    largest = np.zeros(shape, dtype=np.int64)
    touched = np.zeros(shape, dtype=np.int64)
    for index, count in enumerate(counts.tolist()):
        if count == 0:
            continue
        width = stripes[:, index][:, None]  # (n_cand, 1)
        starts = bases[:, index][:, None] + np.arange(count)[:, None, None] * width
        # Servers on the leading axis make the per-class max/count cheap
        # elementwise reductions; in place, since these (count, n_cand, k)
        # temporaries dominate the cost.
        pieces = rem_hi - starts
        np.clip(pieces, 0, width, out=pieces)
        below = rem_lo - starts
        np.clip(below, 0, width, out=below)
        pieces -= below
        pieces += rounds * width
        largest[index] = pieces.max(axis=0)
        touched[index] = (pieces > 0).sum(axis=0)
    return largest, touched


def critical_params_vectorized(
    config: StripingConfig,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (s_m, s_n, m, n) over arrays of requests.

    The one-candidate, two-class view of :func:`class_critical_params`;
    returns four int64 arrays, one entry per request.
    """
    largest, touched = class_critical_params(
        config.class_counts, np.array([config.stripes]), offsets, sizes
    )
    return largest[0, 0], largest[1, 0], touched[0, 0], touched[1, 0]


def paper_case_a_params(config: StripingConfig, offset: int, size: int) -> CriticalParams:
    """Figure 5's closed forms for case (a): request begins AND ends on HServers.

    Implemented verbatim from the paper (including its notation
    ``Δr = r_e − r_b``, ``Δc = n_e − n_b``) for fidelity testing against
    :func:`critical_params`. Only valid when both the beginning and ending
    sub-requests land on HServers and h > 0; raises ``ValueError`` otherwise.
    """
    M, N = config.n_hservers, config.n_sservers
    h, s = config.hstripe, config.sstripe
    if h <= 0 or M <= 0:
        raise ValueError("case (a) requires M > 0 and h > 0")
    S = config.round_size
    o, r = offset, size
    r_b = o // S
    r_e = (o + r) // S
    l_b = o - r_b * S
    l_e = (o + r) - r_e * S
    if l_b >= M * h or l_e > M * h:
        raise ValueError("request does not begin and end on HServers (not case (a))")
    n_b = l_b // h
    # The ending sub-request's server: l_e is an exclusive bound, so the last
    # byte sits at l_e - 1 (the paper's floor(l_e/h) with l_e on a stripe
    # boundary would point one server too far).
    n_e = (l_e - 1) // h if l_e > 0 else -1
    s_b = h - l_b % h
    s_e = l_e - n_e * h if l_e > 0 else 0
    delta_r = r_e - r_b
    delta_c = n_e - n_b

    if delta_r == 0:
        if delta_c == 0:
            return CriticalParams(s_m=min(s_b, r), s_n=0, m=1, n=0)
        if delta_c == 1:
            return CriticalParams(s_m=max(s_b, s_e), s_n=0, m=delta_c + 1, n=0)
        return CriticalParams(s_m=h, s_n=0, m=delta_c + 1, n=0)
    # delta_r >= 1: the request wraps at least one full round boundary.
    s_n = delta_r * s if N > 0 else 0
    n = N if N > 0 and s > 0 else 0
    if delta_c == 0:
        s_m = max(delta_r * h - h + s_b + s_e, delta_r * h)
        return CriticalParams(s_m=s_m, s_n=s_n, m=M, n=n)
    if n_b + 1 == M and n_e == 0:
        s_m = max(delta_r * h - h + s_b, delta_r * h - h + s_e)
        m = 2 if delta_r == 1 else M
        return CriticalParams(s_m=s_m, s_n=s_n, m=m, n=n)
    s_m = delta_r * h
    m = (M + 1 + delta_c) if delta_c < -1 else M
    return CriticalParams(s_m=s_m, s_n=s_n, m=m, n=n)
