"""Quadrature volume rendering over procedural SDF scenes.

Produces radiance images, per-ray weight tensors (the probe fed to the
proposal network), accumulated-variance images, and expected depth.
Integration is two steps: field_weights gives every sample point its SDF,
beta and quadrature weight, and weighted_radiance shades only the points
with nonzero weight and sums w * rgb per ray, since a zero weight adds
0 * rgb == 0 to the pixel either way. The sample points travel as three
contiguous component planes (3, N, K), with one view direction per ray
(see SceneOracle.fields): numpy runs its inner loop over the last axis,
and a last axis of 3 is slow. Callers that read weights only (the
reference's coarse pass, dense_weights) skip the second step. Pixels are
embarrassingly parallel: the image is cut into chunks of about
_CHUNK_POINTS sample points, which keeps each per-point temporary within a
few hundred kilobytes, and the chunks are shared among the workers. A
chunk of the reference runs both of its passes before the next starts, so
no per-sample array spans the image but the reference's two variate
blocks. Chunking never changes per-pixel arithmetic, so any chunk size and
worker count reproduce the single-worker output bit for bit. Every
renderer chunks only the rays certified_empty cannot prove empty: a proven
ray has weight 0 at every sample, so its pixel keeps +0.0, as rendering it
gives, and no sample of it reaches the fields.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, clip_to_box
from .sampling import (interval_deltas, inverse_cdf_sample_edges,
                       stratified_u_block)
from .scenes import DENSITY_ZERO_BETAS, SceneOracle, laplace_density

_CHUNK_POINTS = 1 << 15
_TRACE_STEPS = 24


def _chunk_rows(n_rays: int, samples_per_ray: int) -> int:
    return max(16, min(n_rays, _CHUNK_POINTS // max(samples_per_ray, 1)))


@dataclass
class RenderOutput:
    """One rendering pass: radiance plus the scalar images regularizers use."""

    radiance: np.ndarray             # (H, W, 3) in [0, 1]
    beta_image: np.ndarray           # (H, W) weights applied to beta samples
    expected_depth: np.ndarray       # (H, W) weights applied to depths
    accumulated_opacity: np.ndarray  # (H, W) per-pixel weight sum


@dataclass
class ProbeOutput:
    """Low-resolution probe: image, weight grid, ray intervals and
    directions. Sample j of a probe ray lies at its bin_midpoints."""

    image: np.ndarray    # (H, W, 3)
    weights: np.ndarray  # (Z, H, W)
    t_near: np.ndarray   # (H, W)
    t_far: np.ndarray    # (H, W)
    dirs: np.ndarray     # (H, W, 3)


@dataclass
class PixelSamples:
    """Per-pixel depth samples grouped by sample count.

    groups: list of (pixel_indices (M,), t (M, K), delta (M, K) or None);
    delta overrides the default spacing rule; a group with K = 0 takes no samples.
    """

    height: int
    width: int
    groups: list


def _quadrature_weights(sigma: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Volume-rendering weights w_i = T_i (1 - exp(-sigma_i delta_i)); running
    T is non-increasing by construction."""
    tau = sigma * delta
    cum = np.cumsum(tau, axis=-1)
    trans = np.exp(-(cum - tau))  # exclusive prefix sum
    alpha = -np.expm1(-tau)
    return trans * alpha


def field_weights(scene: SceneOracle, origins: np.ndarray, dirs: np.ndarray,
                  t: np.ndarray, t_far: np.ndarray,
                  deltas: np.ndarray | None = None):
    """The weights step of integrate_batch: fields and quadrature weights of
    N rays at sorted sample positions t (N, K).

    Returns weights (N, K), beta (N, K) and shade, where shade(rows) is the
    radiance at the flattened samples rows (see SceneOracle.fields); nothing
    is shaded here. The fields get the points as a view of their component
    planes and the N ray directions. The last interval is capped at the far
    plane unless explicit deltas are supplied.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] < 1:
        raise ValueError("need at least one sample per ray")

    # the points as three contiguous component planes (see the module docstring)
    n, k = t.shape
    planes = np.empty((3, n, k))
    for c in range(3):
        np.multiply(t, dirs[:, c, None], out=planes[c])
        planes[c] += origins[:, c, None]
    s, beta, shade = scene.fields(planes.reshape(3, -1).T, dirs)
    s = s.reshape(n, k)
    beta = beta.reshape(n, k)

    if deltas is None:
        deltas = np.maximum(interval_deltas(t, t_far), 0.0)

    sigma = laplace_density(s, beta)
    return _quadrature_weights(sigma, deltas), beta, shade


def weighted_radiance(weights: np.ndarray, shade) -> np.ndarray:
    """The radiance step of integrate_batch: each ray's sum of w * rgb (N, 3)
    over its samples with w > 0, the only ones shaded. np.bincount adds each
    ray's terms in sample order, as np.sum(w[:, :, None] * rgb, axis=1) does;
    the samples skipped would add +0.0, so the bits are the same."""
    n, k = weights.shape
    flat = weights.reshape(-1)
    rows = np.flatnonzero(flat > 0.0)
    # all live (e.g. a soft scene): shade without the gather
    rgb = shade(slice(None) if rows.size == flat.size else rows)
    w, ray = flat[rows], rows // k
    return np.stack([np.bincount(ray, weights=w * rgb[:, c], minlength=n)
                     for c in range(3)], axis=1)


def integrate_batch(scene: SceneOracle, origins: np.ndarray, dirs: np.ndarray,
                    t: np.ndarray, t_far: np.ndarray,
                    deltas: np.ndarray | None = None) -> dict:
    """Integrate N rays at sorted sample positions t (N, K): field_weights,
    then weighted_radiance.

    Returns rgb (N,3), weights (N,K), beta (N,K).
    The last interval is capped at the far plane unless explicit deltas are
    supplied. Only samples with w > 0 are shaded. Positions and deltas are
    trusted (render_full and render_reference check them).
    """
    weights, beta, shade = field_weights(scene, origins, dirs, t, t_far, deltas)
    return {"rgb": weighted_radiance(weights, shade), "weights": weights, "beta": beta}


class _Frame:
    """Flat per-pixel images that chunks of rays are integrated into."""

    def __init__(self, n: int):
        self.radiance = np.zeros((n, 3))
        self.beta = np.zeros(n)
        self.depth = np.zeros(n)
        self.acc = np.zeros(n)

    def integrate(self, rows, scene: SceneOracle, origins: np.ndarray,
                  dirs: np.ndarray, t: np.ndarray, t_far: np.ndarray,
                  deltas: np.ndarray | None) -> None:
        """integrate_batch the rays of pixels rows and store their images."""
        out = integrate_batch(scene, origins, dirs, t, t_far, deltas=deltas)
        w = out["weights"]
        self.radiance[rows] = out["rgb"]
        self.beta[rows] = np.sum(w * out["beta"], axis=1)
        self.depth[rows] = np.sum(w * t, axis=1)
        self.acc[rows] = np.sum(w, axis=1)

    def output(self, h: int, w: int) -> RenderOutput:
        return RenderOutput(radiance=self.radiance.reshape(h, w, 3),
                            beta_image=self.beta.reshape(h, w),
                            expected_depth=self.depth.reshape(h, w),
                            accumulated_opacity=self.acc.reshape(h, w))


def _check_samples(t: np.ndarray, delta: np.ndarray | None) -> None:
    """Sample positions (M, K) must be finite and sorted ascending per row,
    and deltas, where given, nonnegative."""
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite sample positions")
    if np.any(t[:, 1:] < t[:, :-1]):
        raise ValueError("sample positions must be sorted ascending")
    if delta is not None and np.any(delta < 0.0):
        raise ValueError("deltas must be nonnegative")


def _run_chunks(fn, live: np.ndarray, workers: int, samples_per_ray: int) -> None:
    """Call fn(rows) on chunks of the rays to render: the rows live sets."""
    rows = np.flatnonzero(live)
    step = _chunk_rows(rows.size, samples_per_ray)
    chunks = [rows[lo:lo + step] for lo in range(0, rows.size, step)]
    if workers <= 1:
        for chunk in chunks:
            fn(chunk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fn, chunks))


def camera_geometry(camera: Camera):
    """Flattened per-pixel origins, dirs, and box-clipped intervals."""
    o, d = camera.rays()
    t_near, t_far = clip_to_box(o, d)
    n = camera.height * camera.width
    return (o.reshape(n, 3), d.reshape(n, 3),
            t_near.reshape(n), t_far.reshape(n))


def bin_midpoints(t_near: np.ndarray, t_far: np.ndarray, z: int) -> np.ndarray:
    """Centers (N, z) of z equal-width depth bins over each [t_near, t_far]
    (N,): where the probe, and every dense weight grid compared with it,
    samples a ray."""
    return t_near[:, None] + ((np.arange(z) + 0.5) / z) * (t_far - t_near)[:, None]


def render_probe(scene: SceneOracle, camera: Camera, z_bins: int = 192,
                 workers: int = 1) -> ProbeOutput:
    """Dense low-resolution probe: one sample per depth bin for every pixel,
    deterministically at the bin midpoints."""
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    t = bin_midpoints(t_near, t_far, z_bins)

    image = np.zeros((n, 3))
    weights = np.zeros((n, z_bins))

    def work(rows):
        out = integrate_batch(scene, o[rows], d[rows], t[rows], t_far[rows])
        image[rows] = out["rgb"]
        weights[rows] = out["weights"]

    _run_chunks(work, ~certified_empty(scene, o, d, t_near, t_far), workers, z_bins)
    h, w = camera.height, camera.width
    return ProbeOutput(image=image.reshape(h, w, 3),
                       weights=weights.reshape(h, w, z_bins).transpose(2, 0, 1),
                       t_near=t_near.reshape(h, w), t_far=t_far.reshape(h, w),
                       dirs=d.reshape(h, w, 3))


def dense_weights(scene: SceneOracle, camera: Camera, z_bins: int = 192,
                  workers: int = 1) -> np.ndarray:
    """The weight grid (Z, H, W) of render_probe(scene, camera, z_bins), bit
    for bit, without shading: for callers that read no image."""
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    t = bin_midpoints(t_near, t_far, z_bins)
    weights = np.zeros((n, z_bins))

    def work(rows):
        weights[rows] = field_weights(scene, o[rows], d[rows], t[rows], t_far[rows])[0]

    _run_chunks(work, ~certified_empty(scene, o, d, t_near, t_far), workers, z_bins)
    return weights.reshape(camera.height, camera.width, z_bins).transpose(2, 0, 1)


def render_full(scene: SceneOracle, camera: Camera, samples: PixelSamples,
                workers: int = 1) -> RenderOutput:
    """Render with externally supplied per-pixel sample positions: finite,
    sorted ascending per pixel, with nonnegative deltas where given. They
    may leave [t_near, t_far], so a ray is skipped when certified_empty
    proves empty [min(t_near, first sample), max(t_far, last sample)]."""
    if samples.height != camera.height or samples.width != camera.width:
        raise ValueError("sample grid does not match camera resolution")
    for _, t, delta in samples.groups:
        _check_samples(t, delta)
    o, d, t_near, t_far = camera_geometry(camera)
    frame = _Frame(o.shape[0])
    # a zero-width group takes no samples: its pixels stay 0 in every image
    groups = [g for g in samples.groups if g[1].shape[1]]
    lo, hi = t_near.copy(), t_near.copy()  # a ray that takes no sample spans no depth
    for idx, t, _ in groups:
        lo[idx], hi[idx] = np.minimum(t_near[idx], t[:, 0]), np.maximum(t_far[idx], t[:, -1])
    live = ~certified_empty(scene, o, d, lo, hi)
    for idx, t, delta in groups:
        def work(rows, idx=idx, t=t, delta=delta):
            pix = idx[rows]
            frame.integrate(pix, scene, o[pix], d[pix], t[rows], t_far[pix],
                            None if delta is None else delta[rows])

        _run_chunks(work, live[idx], workers, t.shape[1])
    return frame.output(camera.height, camera.width)


def render_uniform(scene: SceneOracle, camera: Camera, spp: int,
                   mode: str = "stratified", seed: int = 0,
                   workers: int = 1) -> RenderOutput:
    """Uniform-dense baseline: spp samples per pixel over [t_near, t_far]."""
    o, _, t_near, t_far = camera_geometry(camera)
    if mode == "midpoint":
        t = bin_midpoints(t_near, t_far, spp)
    elif mode == "stratified":
        frac = stratified_u_block(o.shape[0], spp, seed, stream=102)
        t = t_near[:, None] + frac * (t_far - t_near)[:, None]
    else:
        raise ValueError(f"unknown uniform mode {mode!r}")
    samples = PixelSamples(camera.height, camera.width, [(np.arange(o.shape[0]), t, None)])
    return render_full(scene, camera, samples, workers=workers)


def certified_empty(scene: SceneOracle, origins: np.ndarray, dirs: np.ndarray,
                    t_near: np.ndarray, t_far: np.ndarray) -> np.ndarray:
    """Rays (N,) proven to keep at least c = DENSITY_ZERO_BETAS *
    scene.beta_max from every surface over [t_near, t_far], so that
    laplace_density is exactly 0 at every point of them.

    Sphere tracing from t_near: where s = sdf > c, a 1-Lipschitz SDF stays
    at least c over the next s - c along a unit direction, so the trace
    steps that far. A ray is certified once its stepped span reaches t_far;
    it is dropped after _TRACE_STEPS queries or at s <= 1.1c, since a ray
    that meets a surface nears s = c from above without reaching it.
    """
    c = DENSITY_ZERO_BETAS * scene.beta_max
    certified = np.zeros(len(t_near), dtype=bool)
    rays = np.arange(len(t_near))
    t = t_near
    for _ in range(_TRACE_STEPS):
        s = scene.sdf(origins[rays] + t[:, None] * dirs[rays])
        t = t + (s - c)
        clear = s > c
        reached = clear & (t >= t_far[rays])
        certified[rays[reached]] = True
        go = (s > 1.1 * c) & ~reached
        rays, t = rays[go], t[go]
        if not rays.size:
            break
    return certified


def render_reference(scene: SceneOracle, camera: Camera, total: int = 384,
                     seed: int = 0, workers: int = 1) -> RenderOutput:
    """Two-pass reference, the PSNR oracle.

    A stratified coarse pass (total // 2 samples) is integrated with the
    left-endpoint rule, so coarse weight j belongs to the jittered interval
    [t_j, t_{j+1}] (t_K = t_far) and [t_near, t_0] carries none. It takes
    weights only (field_weights): the fine samples (the other half) are
    drawn by inverse CDF over exactly those intervals. The sorted {t_near,
    coarse, fine, t_far} are then interval edges: the fields are evaluated at
    interval midpoints and integrated with the interval widths as deltas
    (midpoint rule), so every part of [t_near, t_far] is covered.

    A ray not certified empty costs total // 2 + total + 1 field evaluations
    (577 at the default): its coarse points and the midpoints between its
    total + 2 edges. Each chunk of rays runs both passes before the next
    starts, and its midpoints and widths get render_full's checks. Only the
    variate blocks of the two passes, (N, total // 2) each, span the image;
    they are drawn whole, so the block layout fixes every pixel's variates,
    whatever the chunking and whichever rays are skipped.
    """
    n_coarse = total // 2
    n_fine = total - n_coarse
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    frac = stratified_u_block(n, n_coarse, seed, stream=103)
    u_fine = stratified_u_block(n, n_fine, seed, stream=104)
    frame = _Frame(n)

    def work(rows):
        near, far = t_near[rows, None], t_far[rows, None]
        t_coarse = near + frac[rows] * (far - near)
        weights = field_weights(scene, o[rows], d[rows], t_coarse, t_far[rows])[0]
        coarse_edges = np.concatenate([near, t_coarse, far], axis=1)
        probs = np.concatenate([np.zeros((rows.size, 1)), weights], axis=1)
        t_fine = inverse_cdf_sample_edges(probs, coarse_edges, u_fine[rows])
        edges = np.sort(np.concatenate([coarse_edges, t_fine], axis=1), axis=1)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        width = np.diff(edges, axis=1)
        _check_samples(mid, width)
        frame.integrate(rows, scene, o[rows], d[rows], mid, t_far[rows], width)

    _run_chunks(work, ~certified_empty(scene, o, d, t_near, t_far), workers, total)
    return frame.output(camera.height, camera.width)
