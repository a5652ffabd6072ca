"""Piecewise-constant PDF machinery over ray bins.

Covers inverse-CDF sampling, stratified variates, the nucleus-style robust
filter (minimal bin set holding tau of the mass, sampled uniformly),
per-stratum sample budgeting, and the adaptive per-pixel budget allocation
driven by leftover probability mass. A budget below a pixel's support size
samples an evenly thinned support, one sample per kept bin;
budget_sample_grid makes that decision. It returns positions only: the
quadrature deltas are set where the samples are assembled
(bench.robust_samples).

Every operation is pure given explicit random variates; image-scale paths
take precomputed variate blocks so results are independent of worker count
and evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def derive_seed(*parts: int) -> int:
    """Stable 64-bit subseed from an integer path (seed, trial, stream, ...);
    every part is hashed whole, none folded to fewer bits."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def block_uniforms(seed: int, stream: int, shape) -> np.ndarray:
    """Deterministic block of uniforms in [0,1) keyed by (seed, stream).

    Row i of the block is pixel i's private variate budget: the layout is
    fixed by the shape, so chunked/parallel consumers see identical values.
    A seed or stream outside [0, 2**64) raises OverflowError.
    """
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
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


def normalize_pdf(weights: np.ndarray) -> np.ndarray:
    """L1-normalize nonnegative weights along the last axis; all-zero rows stay zero."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0.0, w / np.where(total > 0.0, total, 1.0), 0.0)
    return p


def _searchsorted_rows(rows: np.ndarray, queries: np.ndarray,
                       index: np.ndarray) -> np.ndarray:
    """Row-wise searchsorted (side="right") via the offset trick: query row i
    searches rows[index[i]]. rows must be per-row sorted with values in
    [0, 1] (scaled by caller)."""
    n, m = rows.shape
    off = 2.0 * np.arange(n)
    flat = np.searchsorted((rows + off[:, None]).ravel(),
                           (queries + off[index, None]).ravel(), side="right")
    return flat.reshape(queries.shape) - index[:, None] * m


def inverse_cdf_sample_grid(probs: np.ndarray, t_near: np.ndarray, t_far: np.ndarray,
                            u: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Vectorized inverse-CDF sampling over Z equal-width bins of
    [t_near, t_far]: probs (M, Z), t_near, t_far (N,), u (N, K) -> sorted t
    (N, K). Row i samples probs[index[i]] (probs[i] without index, M = N)."""
    z = np.shape(probs)[1]
    edges = t_near[:, None] + (np.arange(z + 1) / z) * (t_far - t_near)[:, None]
    return inverse_cdf_sample_edges(probs, edges, u, index)


def inverse_cdf_sample_edges(probs: np.ndarray, edges: np.ndarray,
                             u: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF sampling over per-row interval edges: bin j of row i is
    [edges[i, j], edges[i, j+1]]. probs (M, Z), edges (N, Z+1) ascending,
    u (N, K) -> sorted t (N, K); row i samples probs[index[i]] (probs[i]
    without index, M = N), and each row of probs is normalized and summed
    into its CDF once. All-zero rows fall back to uniform over
    [edges[:, 0], edges[:, -1]]."""
    pn = normalize_pdf(probs)
    m, z = pn.shape
    ok = pn.any(axis=1)
    cdf = np.concatenate([np.zeros((m, 1)), np.cumsum(pn, axis=1)], axis=1)
    cdf[:, -1] = 1.0  # close the CDF against rounding
    row = np.arange(m) if index is None else index

    idx = _searchsorted_rows(cdf, u, row) - 1
    idx = np.clip(idx, 0, z - 1)
    lo = cdf[row[:, None], idx]
    pj = pn[row[:, None], idx]
    frac = np.where(pj > 0.0, (u - lo) / np.where(pj > 0.0, pj, 1.0), 0.0)

    left = np.take_along_axis(edges, idx, axis=1)
    right = np.take_along_axis(edges, idx + 1, axis=1)
    t = left + frac * (right - left)
    t_fallback = edges[:, :1] + u * (edges[:, -1:] - edges[:, :1])
    t = np.where(ok[row, None], t, t_fallback)
    return np.sort(t, axis=1)


def _top_k_at(keys: np.ndarray, thr: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The top-k masks given each row's k-th largest key thr (N,): every key
    above it is kept, and of the keys equal to it only the first ones, up to
    the room left."""
    thr = thr[:, None]
    above = keys > thr
    tie = keys == thr
    room = k - above.sum(axis=1)
    return above | (tie & (np.cumsum(tie, axis=1) <= room[:, None]))


def top_k_mask(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Boolean masks (N, Z) of the k[i] largest keys of each row, ties towards
    lower index: the bins ranked below k[i] by a stable descending sort.
    Rows with k[i] = 0 keep nothing and are not sorted."""
    n, z = keys.shape
    k = np.asarray(k)
    some = np.flatnonzero(k > 0)
    if some.size < n:
        mask = np.zeros((n, z), dtype=bool)
        if some.size:
            mask[some] = top_k_mask(keys[some], k[some])
        return mask
    thr = np.sort(keys, axis=1)[np.arange(n), np.clip(z - k, 0, z - 1)]
    return _top_k_at(keys, thr, k)


def nucleus_support_grid(probs: np.ndarray, tau: float = 0.98,
                         index: np.ndarray | None = None) -> np.ndarray:
    """Boolean support masks (N, Z) of the nucleus filter applied per row: the
    minimal set of highest-probability bins with cumulative mass >= tau, bins
    entering in descending probability order (ties towards lower index).
    With index (N,), the masks of the rows probs[index], each row's computed
    once."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0, 1]")
    p = np.asarray(probs, dtype=np.float64)
    n, z = p.shape
    ascending = np.sort(p, axis=1)
    cum = np.cumsum(ascending[:, ::-1], axis=1)
    total = np.maximum(cum[:, -1:], 1e-300)
    # smallest k with cum[k-1] >= tau (within float slack); all-zero rows keep 1 bin
    reached = cum >= tau * total - 1e-12
    k = np.argmax(reached, axis=1) + 1
    k = np.where(reached.any(axis=1), k, z)
    mask = _top_k_at(p, ascending[np.arange(n), z - k], k)
    return mask if index is None else mask[index]


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
    c = support.sum(axis=1)
    if np.any(c == 0):
        raise ValueError("empty robust support")
    base = s // c
    extra = top_k_mask(np.where(support, phat, -np.inf), s % c)
    return support * base[:, None] + (extra & support)


def interval_deltas(t: np.ndarray, t_far: np.ndarray) -> np.ndarray:
    """Quadrature deltas of sorted samples t (N, K): each sample's gap to the
    next one, and the last sample's gap to t_far (N,). Unclipped: callers
    clip to their own rule."""
    delta = np.empty_like(t)
    delta[:, :-1] = t[:, 1:] - t[:, :-1]
    delta[:, -1] = t_far - t[:, -1]
    return delta


def budget_sample_grid(support: np.ndarray, phat: np.ndarray, s: int,
                       t_near: np.ndarray, t_far: np.ndarray, xi: np.ndarray,
                       index: np.ndarray | None = None) -> np.ndarray:
    """Stratified samples from robust supports at a flat budget of s per row.

    support, phat: (M, Z) over Z equal-width bins; t_near, t_far: (N,);
    xi: (N, s) uniforms; index (N,): each output row's row of support and
    phat (default: the identity, M = N). Returns the positions t (N, s) in
    each [t_near, t_far], sorted per row. A support of more than s bins is
    thinned to s evenly spaced bins with one sample each, so the budget still
    spans the whole support instead of chasing its largest bins. Thinning
    and allocation run once per row of support.
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

    # sample k of a row is sample j of the m in its bin, bins ascending; the
    # rows sum to s, so row i's samples are items i*s .. i*s+s-1 of the runs
    counts = alloc.ravel()
    cells = np.flatnonzero(counts)
    m = counts[cells]
    first = np.cumsum(m) - m
    bin_idx = np.repeat(cells % z, m).reshape(n, s)
    j = (np.arange(n * s) - np.repeat(first, m)).reshape(n, s)
    m = np.repeat(m, m).reshape(n, s)
    if index is not None:
        bin_idx, j, m = bin_idx[index], j[index], m[index]

    width = (t_far - t_near)[:, None] / z
    return t_near[:, None] + (bin_idx + (j + xi) / m) * width


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
    scores (top_k_mask, ties resolved row-major) get boosted_spp, the rest
    base_spp."""
    scores = np.asarray(scores, dtype=np.float64)
    n_boost = int(np.floor(budget.boosted_fraction * scores.size + 0.5))
    boost = top_k_mask(scores.reshape(1, -1), np.array([n_boost]))
    spp = np.where(boost, budget.boosted_spp, budget.base_spp).astype(np.int64)
    return spp.reshape(scores.shape)
