"""Quadrature volume rendering over procedural SDF scenes.

Produces radiance images, per-ray weight tensors (the probe fed to the
proposal network), accumulated-variance images, and expected depth. Pixels
are embarrassingly parallel: a worker count chunks the image, and chunking
never changes per-pixel arithmetic, so any worker count reproduces the
single-worker output bit for bit.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, clip_to_box
from .sampling import inverse_cdf_sample_edges, stratified_u_block
from .scenes import SceneOracle, laplace_density

_CHUNK_POINTS = 1 << 19


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
    """Low-resolution probe: image, weight grid, SDF grid, and ray geometry."""

    image: np.ndarray    # (H, W, 3)
    weights: np.ndarray  # (Z, H, W)
    sdf: np.ndarray      # (Z, H, W)
    t_near: np.ndarray   # (H, W)
    t_far: np.ndarray    # (H, W)
    origins: np.ndarray  # (H, W, 3)
    dirs: np.ndarray     # (H, W, 3)

    @property
    def z(self) -> int:
        return self.weights.shape[0]


@dataclass
class PixelSamples:
    """Per-pixel depth samples grouped by sample count.

    groups: list of (pixel_indices (M,), t (M, K), delta (M, K) or None);
    delta overrides the default spacing rule (used for clipped robust deltas).
    """

    height: int
    width: int
    groups: list

    @classmethod
    def dense(cls, t: np.ndarray, delta: np.ndarray | None = None) -> "PixelSamples":
        h, w, k = t.shape
        idx = np.arange(h * w)
        return cls(h, w, [(idx, t.reshape(h * w, k),
                           None if delta is None else delta.reshape(h * w, k))])


def _quadrature_weights(sigma: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Volume-rendering weights w_i = T_i (1 - exp(-sigma_i delta_i)) and the
    final transmittance; running T is non-increasing by construction."""
    tau = sigma * delta
    cum = np.cumsum(tau, axis=-1)
    trans = np.exp(-(cum - tau))  # exclusive prefix sum
    alpha = -np.expm1(-tau)
    return trans * alpha, np.exp(-cum[..., -1])


def integrate_batch(scene: SceneOracle, origins: np.ndarray, dirs: np.ndarray,
                    t: np.ndarray, t_far: np.ndarray,
                    deltas: np.ndarray | None = None, validate: bool = True) -> dict:
    """Integrate N rays at sorted sample positions t (N, K).

    Returns rgb (N,3), weights (N,K), s (N,K), beta (N,K), trans_end (N,).
    The last interval is capped at the far plane unless explicit deltas are
    supplied.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] < 1:
        raise ValueError("need at least one sample per ray")
    if validate:
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite sample positions")
        if t.shape[1] > 1 and np.any(np.diff(t, axis=1) < 0.0):
            raise ValueError("sample positions must be sorted ascending")

    p = origins[:, None, :] + t[:, :, None] * dirs[:, None, :]
    n, k = t.shape
    v = np.broadcast_to(dirs[:, None, :], (n, k, 3)).reshape(-1, 3)
    s, beta, rgb_samples = scene.fields(p.reshape(-1, 3), v)
    s = s.reshape(n, k)
    beta = beta.reshape(n, k)
    rgb_samples = rgb_samples.reshape(n, k, 3)

    if deltas is None:
        deltas = np.empty_like(t)
        deltas[:, :-1] = t[:, 1:] - t[:, :-1]
        deltas[:, -1] = t_far - t[:, -1]
        deltas = np.maximum(deltas, 0.0)
    elif validate and np.any(deltas < 0.0):
        raise ValueError("deltas must be nonnegative")

    sigma = laplace_density(s, beta)
    weights, trans_end = _quadrature_weights(sigma, deltas)
    rgb = np.sum(weights[:, :, None] * rgb_samples, axis=1)
    return {"rgb": rgb, "weights": weights, "s": s, "beta": beta,
            "trans_end": trans_end}


def _run_chunks(fn, n: int, workers: int, samples_per_ray: int = 192) -> None:
    step = _chunk_rows(n, samples_per_ray)
    bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    if workers <= 1:
        for lo, hi in bounds:
            fn(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fn(*b), bounds))


def camera_geometry(camera: Camera):
    """Flattened per-pixel origins, dirs, and box-clipped intervals."""
    o, d = camera.rays()
    t_near, t_far = clip_to_box(o, d)
    n = camera.height * camera.width
    return (o.reshape(n, 3), d.reshape(n, 3),
            t_near.reshape(n), t_far.reshape(n))


def render_probe(scene: SceneOracle, camera: Camera, z_bins: int = 192,
                 mode: str = "midpoint", seed: int = 0, workers: int = 1) -> ProbeOutput:
    """Dense low-resolution probe: one sample per depth bin for every pixel.

    mode "midpoint" (default) probes deterministically at bin centers;
    "stratified" jitters within bins for variance studies.
    """
    if mode not in ("midpoint", "stratified"):
        raise ValueError(f"unknown probe mode {mode!r}")
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    if mode == "midpoint":
        frac = np.broadcast_to((np.arange(z_bins) + 0.5) / z_bins, (n, z_bins))
    else:
        frac = stratified_u_block(n, z_bins, seed, stream=101)
    t = t_near[:, None] + frac * (t_far - t_near)[:, None]

    image = np.empty((n, 3))
    weights = np.empty((n, z_bins))
    sdf = np.empty((n, z_bins))

    def work(lo, hi):
        out = integrate_batch(scene, o[lo:hi], d[lo:hi], t[lo:hi], t_far[lo:hi],
                              validate=False)
        image[lo:hi] = out["rgb"]
        weights[lo:hi] = out["weights"]
        sdf[lo:hi] = out["s"]

    _run_chunks(work, n, workers, z_bins)
    h, w = camera.height, camera.width
    return ProbeOutput(image=image.reshape(h, w, 3),
                       weights=weights.reshape(h, w, z_bins).transpose(2, 0, 1),
                       sdf=sdf.reshape(h, w, z_bins).transpose(2, 0, 1),
                       t_near=t_near.reshape(h, w), t_far=t_far.reshape(h, w),
                       origins=o.reshape(h, w, 3), dirs=d.reshape(h, w, 3))


def render_full(scene: SceneOracle, camera: Camera, samples: PixelSamples,
                workers: int = 1) -> RenderOutput:
    """Render with externally supplied per-pixel sample positions."""
    if samples.height != camera.height or samples.width != camera.width:
        raise ValueError("sample grid does not match camera resolution")
    o, d, _, t_far = camera_geometry(camera)
    n = o.shape[0]
    radiance = np.zeros((n, 3))
    beta_img = np.zeros(n)
    depth = np.zeros(n)
    acc = np.zeros(n)

    for idx, t, delta in samples.groups:
        def work(lo, hi, idx=idx, t=t, delta=delta):
            rows = idx[lo:hi]
            out = integrate_batch(scene, o[rows], d[rows], t[lo:hi], t_far[rows],
                                  deltas=None if delta is None else delta[lo:hi])
            w = out["weights"]
            radiance[rows] = out["rgb"]
            beta_img[rows] = np.sum(w * out["beta"], axis=1)
            depth[rows] = np.sum(w * t[lo:hi], axis=1)
            acc[rows] = np.sum(w, axis=1)

        _run_chunks(work, len(idx), workers, t.shape[1])

    h, w_ = camera.height, camera.width
    return RenderOutput(radiance=radiance.reshape(h, w_, 3),
                        beta_image=beta_img.reshape(h, w_),
                        expected_depth=depth.reshape(h, w_),
                        accumulated_opacity=acc.reshape(h, w_))


def render_uniform(scene: SceneOracle, camera: Camera, spp: int,
                   mode: str = "stratified", seed: int = 0,
                   workers: int = 1) -> RenderOutput:
    """Uniform-dense baseline: spp samples per pixel over [t_near, t_far]."""
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    if mode == "midpoint":
        frac = np.broadcast_to((np.arange(spp) + 0.5) / spp, (n, spp)).copy()
    elif mode == "stratified":
        frac = stratified_u_block(n, spp, seed, stream=102)
    else:
        raise ValueError(f"unknown uniform mode {mode!r}")
    t = t_near[:, None] + frac * (t_far - t_near)[:, None]
    h, w = camera.height, camera.width
    return render_full(scene, camera, PixelSamples.dense(t.reshape(h, w, spp)),
                       workers=workers)


def render_reference(scene: SceneOracle, camera: Camera, total: int = 384,
                     seed: int = 0, workers: int = 1) -> RenderOutput:
    """Two-pass reference, the PSNR oracle.

    A stratified coarse pass (total // 2 samples) is integrated with the
    left-endpoint rule, so coarse weight j belongs to the jittered interval
    [t_j, t_{j+1}] (t_K = t_far) and [t_near, t_0] carries none. The fine
    samples (the other half) are drawn by inverse CDF over exactly those
    intervals. The sorted {t_near, coarse, fine, t_far} are then interval
    edges: the fields are evaluated at interval midpoints and integrated with
    the interval widths as deltas (midpoint rule), so every part of
    [t_near, t_far] is covered.
    """
    n_coarse = total // 2
    n_fine = total - n_coarse
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    span = (t_far - t_near)[:, None]

    frac = stratified_u_block(n, n_coarse, seed, stream=103)
    t_coarse = t_near[:, None] + frac * span
    u_fine = stratified_u_block(n, n_fine, seed, stream=104)

    edges = np.empty((n, total + 2))

    def coarse_work(lo, hi):
        out = integrate_batch(scene, o[lo:hi], d[lo:hi], t_coarse[lo:hi],
                              t_far[lo:hi], validate=False)
        coarse_edges = np.concatenate(
            [t_near[lo:hi, None], t_coarse[lo:hi], t_far[lo:hi, None]], axis=1)
        probs = np.concatenate([np.zeros((hi - lo, 1)), out["weights"]], axis=1)
        t_fine = inverse_cdf_sample_edges(probs, coarse_edges, u_fine[lo:hi])
        edges[lo:hi] = np.sort(np.concatenate([coarse_edges, t_fine], axis=1),
                               axis=1)

    _run_chunks(coarse_work, n, workers, total)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    width = np.diff(edges, axis=1)
    h, w = camera.height, camera.width
    k = total + 1
    return render_full(scene, camera,
                       PixelSamples.dense(mid.reshape(h, w, k),
                                          width.reshape(h, w, k)),
                       workers=workers)
