"""Correctness checks on the program's outputs, each against an independent
computation or a property the method must have. Every check returns a list
of failure messages (empty when the output is correct)."""
from __future__ import annotations

import math

import numpy as np

from volsampler.geometry import Camera, clip_to_box
from volsampler.imageio import read_pfm
from volsampler.sampling import SampleBudget

# closed-form shading of the `sphere` scene (unit sphere at the origin)
SPHERE_ALBEDO = np.array([0.80, 0.56, 0.34])
LIGHT_DIR = np.array([0.45, 0.70, 0.55]) / np.linalg.norm([0.45, 0.70, 0.55])
AMBIENT, DIFFUSE = 0.25, 0.75


def ray_intervals(camera: Camera):
    """Per-pixel origins, directions and box-clipped [t_near, t_far], flat."""
    o, d = camera.rays()
    t_near, t_far = clip_to_box(o, d)
    return o.reshape(-1, 3), d.reshape(-1, 3), t_near.ravel(), t_far.ravel()


def image_in_range(name: str, out) -> list[str]:
    """Radiance finite and in [0, 1]; accumulated opacity in [0, 1]."""
    bad = []
    rad, acc = out.radiance, out.accumulated_opacity
    if not (np.all(np.isfinite(rad)) and rad.min() >= 0.0 and rad.max() <= 1.0):
        bad.append(f"{name}: radiance outside [0, 1] or not finite")
    if not (np.all(np.isfinite(acc)) and acc.min() >= 0.0 and acc.max() <= 1.0 + 1e-12):
        bad.append(f"{name}: accumulated opacity outside [0, 1] "
                   f"(min {acc.min():.3g}, max {acc.max():.17g})")
    return bad


def adaptive_frame(name: str, camera: Camera, budget: SampleBudget, out, spp_map,
                   samples, pfm_path) -> list[str]:
    """The properties every adaptive frame must have."""
    bad = image_in_range(name, out)
    spp = np.asarray(spp_map).ravel()
    n = spp.size
    n_boost = math.floor(budget.boosted_fraction * n + 0.5)
    boosted = int(np.count_nonzero(spp == budget.boosted_spp))
    if boosted != n_boost or np.count_nonzero(spp == budget.base_spp) != n - n_boost:
        bad.append(f"{name}: {boosted} boosted pixels of {n}, expected {n_boost}")
    exact_mean = (budget.base_spp * (n - n_boost) + budget.boosted_spp * n_boost) / n
    if float(np.mean(spp)) != exact_mean or \
            abs(exact_mean - budget.mean_spp) > (budget.boosted_spp - budget.base_spp) / n:
        bad.append(f"{name}: spp mean {np.mean(spp)!r}, expected {exact_mean!r} "
                   f"(budget mean {budget.mean_spp})")

    _, _, t_near, t_far = ray_intervals(camera)
    seen = np.zeros(n, dtype=np.int64)
    for rows, t, delta in samples.groups:
        seen[rows] += 1
        if t.shape[1] > 1 and np.any(np.diff(t, axis=1) < 0.0):
            bad.append(f"{name}: sample positions not sorted")
        if np.any(t < t_near[rows, None]) or np.any(t > t_far[rows, None]):
            worst = max(float(np.max(t_near[rows, None] - t)), float(np.max(t - t_far[rows, None])))
            bad.append(f"{name}: sample outside its ray's [t_near, t_far] by {worst:.3g}")
        if delta is not None and np.any(delta < 0.0):
            bad.append(f"{name}: negative sample delta")
    if np.any(seen != 1):
        bad.append(f"{name}: sample groups do not cover every pixel exactly once")

    written = read_pfm(pfm_path)
    if not np.array_equal(written, out.radiance.astype(np.float32)):
        bad.append(f"{name}: {pfm_path.name} differs from the rendered radiance")
    return bad


def sphere_analytic(name: str, camera: Camera, out, beta: float) -> list[str]:
    """Reference render of the unit sphere against the closed-form ray-sphere
    hit: expected depth within 4 beta / cos(theta) of the hit (the mean
    termination depth of a Laplace surface lies O(beta / cos) before it), and
    radiance within 0.01 of Lambert shading at the hit point. Pixels within
    cos(theta) < 0.2 of the silhouette are skipped, where the soft surface
    is cut by the rim."""
    o, d, _, _ = ray_intervals(camera)
    b = np.sum(o * d, axis=1)
    disc = b * b - (np.sum(o * o, axis=1) - 1.0)
    hit = disc > 0.0
    t_hit = -b - np.sqrt(np.where(hit, disc, 0.0))
    normal = o + t_hit[:, None] * d
    cos = -np.sum(normal * d, axis=1)
    m = hit & (cos >= 0.2)
    bad = []
    if m.sum() < 0.5 * camera.height * camera.width:
        bad.append(f"{name}: only {m.sum()} sphere hit pixels")
        return bad
    depth = out.expected_depth.ravel()[m]
    err = np.abs(depth - t_hit[m]) * cos[m] / beta
    if err.max() > 4.0:
        bad.append(f"{name}: expected depth off the ray-sphere hit by "
                   f"{err.max():.2f} beta/cos (allowed 4)")
    shade = SPHERE_ALBEDO[None] * (AMBIENT + DIFFUSE * np.maximum(normal[m] @ LIGHT_DIR, 0.0))[:, None]
    rad_err = np.abs(out.radiance.reshape(-1, 3)[m] - shade).max()
    if rad_err > 0.01:
        bad.append(f"{name}: radiance off Lambert shading by {rad_err:.4f} (allowed 0.01)")
    acc = out.accumulated_opacity.ravel()[m]
    if acc.min() < 0.999:
        bad.append(f"{name}: hit pixel opacity {acc.min():.4f} < 0.999")
    return bad
