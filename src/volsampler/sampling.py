"""Piecewise-constant PDF machinery over ray bins.

Covers inverse-CDF sampling, stratified variates, the nucleus-style robust
filter (minimal bin set holding tau of the mass, sampled uniformly),
per-stratum sample budgeting with bin-width delta clipping, and the adaptive
per-pixel budget allocation driven by leftover probability mass. A budget
below a pixel's support size samples an evenly thinned support, one sample
per kept bin; budget_sample_grid makes that decision.

Every operation is pure given explicit random variates; image-scale paths
take precomputed variate blocks so results are independent of worker count
and evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = np.uint64


def derive_seed(*parts: int) -> int:
    """Stable 64-bit subseed from an integer path (seed, trial, stream, ...)."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def block_uniforms(seed: int, stream: int, shape) -> np.ndarray:
    """Deterministic block of uniforms in [0,1) keyed by (seed, stream).

    Row i of the block is pixel i's private variate budget: the layout is
    fixed by the shape, so chunked/parallel consumers see identical values.
    """
    bg = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF,
                                        stream & 0xFFFFFFFFFFFFFFFF], dtype=_U64))
    return np.random.Generator(bg).random(shape)


@dataclass(frozen=True)
class SampleBudget:
    """Adaptive per-pixel sample budget: most pixels get base_spp, the
    boosted_fraction with the highest scores get boosted_spp."""

    base_spp: int = 16
    boosted_spp: int = 32
    boosted_fraction: float = 0.10

    def __post_init__(self):
        if not (self.boosted_spp >= self.base_spp >= 1):
            raise ValueError("need boosted_spp >= base_spp >= 1")
        if not (0.0 <= self.boosted_fraction <= 1.0):
            raise ValueError("boosted_fraction must be in [0, 1]")

    @property
    def mean_spp(self) -> float:
        return self.base_spp + self.boosted_fraction * (self.boosted_spp - self.base_spp)


def stratified_u_block(n_pixels: int, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """(n_pixels, n) stratified variates from the block RNG."""
    if n < 1:
        raise ValueError("need n >= 1")
    xi = block_uniforms(seed, stream, (n_pixels, n))
    return (np.arange(n)[None, :] + xi) / n


def normalize_pdf(weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """L1-normalize nonnegative weights; all-zero vectors stay zero."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0.0, w / np.where(total > 0.0, total, 1.0), 0.0)
    return p


def _searchsorted_rows(rows: np.ndarray, queries: np.ndarray, side: str = "right") -> np.ndarray:
    """Row-wise searchsorted via the offset trick; rows must be per-row sorted
    with values in [0, 1] (scaled by caller)."""
    n, m = rows.shape
    off = 2.0 * np.arange(n)[:, None]
    flat = np.searchsorted((rows + off).ravel(), (queries + off).ravel(), side=side)
    return flat.reshape(queries.shape) - np.arange(n)[:, None] * m


def inverse_cdf_sample_grid(probs: np.ndarray, t_near: np.ndarray, t_far: np.ndarray,
                            u: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF sampling over Z equal-width bins of
    [t_near, t_far]: probs (N, Z), u (N, K) -> sorted t (N, K)."""
    z = np.shape(probs)[1]
    edges = t_near[:, None] + (np.arange(z + 1) / z) * (t_far - t_near)[:, None]
    return inverse_cdf_sample_edges(probs, edges, u)


def inverse_cdf_sample_edges(probs: np.ndarray, edges: np.ndarray,
                             u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling over per-row interval edges: bin j of row i is
    [edges[i, j], edges[i, j+1]]. probs (N, Z), edges (N, Z+1) ascending,
    u (N, K) -> sorted t (N, K). All-zero rows fall back to uniform over
    [edges[:, 0], edges[:, -1]]."""
    p = np.asarray(probs, dtype=np.float64)
    n, z = p.shape
    total = p.sum(axis=1)
    ok = total > 0.0
    pn = p / np.where(ok, total, 1.0)[:, None]
    cdf = np.concatenate([np.zeros((n, 1)), np.cumsum(pn, axis=1)], axis=1)
    cdf[:, -1] = 1.0  # close the CDF against rounding

    idx = _searchsorted_rows(cdf, u, side="right") - 1
    idx = np.clip(idx, 0, z - 1)
    lo = np.take_along_axis(cdf, idx, axis=1)
    pj = np.take_along_axis(pn, idx, axis=1)
    frac = np.where(pj > 0.0, (u - lo) / np.where(pj > 0.0, pj, 1.0), 0.0)

    left = np.take_along_axis(edges, idx, axis=1)
    right = np.take_along_axis(edges, idx + 1, axis=1)
    t = left + frac * (right - left)
    t_fallback = edges[:, :1] + u * (edges[:, -1:] - edges[:, :1])
    t = np.where(ok[:, None], t, t_fallback)
    return np.sort(t, axis=1)


def nucleus_support_grid(probs: np.ndarray, tau: float = 0.98) -> np.ndarray:
    """Boolean support masks (N, Z) of the nucleus filter applied per row: the
    minimal set of highest-probability bins with cumulative mass >= tau, bins
    entering in descending probability order (ties towards lower index)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    p = np.asarray(probs, dtype=np.float64)
    n, z = p.shape
    order = np.argsort(-p, axis=1, kind="stable")
    sorted_p = np.take_along_axis(p, order, axis=1)
    cum = np.cumsum(sorted_p, axis=1)
    total = np.maximum(cum[:, -1:], 1e-300)
    # smallest k with cum[k-1] >= tau (within float slack); all-zero rows keep 1 bin
    reached = cum >= tau * total - 1e-12
    k = np.argmax(reached, axis=1) + 1
    k = np.where(reached.any(axis=1), k, z)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(z), (n, z)).copy(), axis=1)
    return rank < k[:, None]


def _thin_support(support: np.ndarray, s: int) -> np.ndarray:
    """Keep exactly s evenly spaced bins of each row's support (rows must have
    more than s support bins)."""
    counts = support.sum(axis=1)
    order = np.argsort(~support, axis=1, kind="stable")  # support indices first
    pick = np.rint(np.linspace(0.0, 1.0, s) * (counts[:, None] - 1)).astype(np.int64)
    out = np.zeros_like(support)
    np.put_along_axis(out, np.take_along_axis(order, pick, axis=1), True, axis=1)
    return out


def _budget_allocation(support: np.ndarray, phat: np.ndarray, s: int) -> np.ndarray:
    """Per-bin sample counts (N, Z) for supports of at most s bins: floor(s/c)
    per support bin, extras to the largest-phat support bins, ties towards
    lower index."""
    n, z = support.shape
    c = support.sum(axis=1)
    if np.any(c == 0):
        raise ValueError("empty robust support")
    base = s // c
    rem = s % c

    key = np.where(support, phat, -np.inf)
    order = np.argsort(-key, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(z), (n, z)).copy(), axis=1)
    return support * base[:, None] + ((rank < rem[:, None]) & support)


def budget_sample_grid(support: np.ndarray, phat: np.ndarray, s: int,
                       t_near: np.ndarray, t_far: np.ndarray,
                       xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stratified samples from robust supports at a flat budget of s per row.

    support, phat: (N, Z); xi: (N, s) uniforms. Returns (t, delta), both
    (N, s), t sorted per row, delta clipped to the bin width. A support of
    more than s bins is thinned to s evenly spaced bins with one sample each,
    so the budget still spans the whole support instead of chasing its
    largest bins.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    n, z = support.shape
    wide = np.flatnonzero(support.sum(axis=1) > s)
    if wide.size:
        support = support.copy()
        support[wide] = _thin_support(support[wide], s)
    alloc = _budget_allocation(support, phat, s)
    if not np.all(alloc.sum(axis=1) == s):
        raise AssertionError("allocation must sum to the budget")

    cum = np.cumsum(alloc, axis=1)
    ks = np.broadcast_to(np.arange(s), (n, s))
    stride = float(s + 1)
    flat = np.searchsorted((cum + stride * np.arange(n)[:, None]).ravel(),
                           (ks + stride * np.arange(n)[:, None]).ravel(), side="right")
    bin_idx = flat.reshape(n, s) - np.arange(n)[:, None] * z
    bin_idx = np.clip(bin_idx, 0, z - 1)

    before = np.take_along_axis(cum, bin_idx, axis=1) - np.take_along_axis(alloc, bin_idx, axis=1)
    j = ks - before
    m = np.take_along_axis(alloc, bin_idx, axis=1)

    width = (t_far - t_near)[:, None] / z
    t = t_near[:, None] + (bin_idx + (j + xi) / m) * width

    delta = np.empty_like(t)
    delta[:, :-1] = t[:, 1:] - t[:, :-1]
    delta[:, -1] = t_far - t[:, -1]
    delta = np.minimum(delta, width)
    return t, delta


def adaptive_score_grid(probs: np.ndarray, k: int = 16) -> np.ndarray:
    """Per-row leftover probability mass after removing the k largest bins;
    in [0, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    n, z = p.shape
    if k >= z:
        raise ValueError("k must be < number of bins")
    top = np.partition(p, z - k, axis=1)[:, z - k:]
    return np.clip(1.0 - top.sum(axis=1), 0.0, 1.0)


def allocate_budgets(scores: np.ndarray, budget: SampleBudget) -> np.ndarray:
    """Per-pixel spp map: the boosted_fraction of pixels with the highest
    scores (ties resolved row-major) get boosted_spp, the rest base_spp."""
    scores = np.asarray(scores, dtype=np.float64)
    flat = scores.ravel()
    n = flat.size
    n_boost = int(np.floor(budget.boosted_fraction * n + 0.5))
    spp = np.full(n, budget.base_spp, dtype=np.int64)
    if n_boost > 0:
        order = np.argsort(-flat, kind="stable")
        spp[order[:n_boost]] = budget.boosted_spp
    return spp.reshape(scores.shape)


def upsample_nearest(grid: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor lift of a (..., h, w) grid to (..., h*f, w*f)."""
    return np.repeat(np.repeat(grid, factor, axis=-2), factor, axis=-1)
