"""Pinhole cameras over the scene box and clipping to it.

All scene content lives inside the axis-aligned box [-1, 1]^3; cameras sit
outside and every primary ray is clipped to the box, which defines the
integration interval [t_near, t_far] of that ray.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOX_MIN = -1.0
BOX_MAX = 1.0
_BOX_HALF_DIAG = math.sqrt(3.0)


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit-normalize the last axis."""
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    return v / n


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite vector: {v!r}")
    return a


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: position + look-at pose, vertical fov in radians, H x W pixels."""

    position: np.ndarray
    look_at: np.ndarray
    up: np.ndarray
    fov_y: float
    height: int
    width: int

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position))
        object.__setattr__(self, "look_at", _as_vec3(self.look_at))
        object.__setattr__(self, "up", _as_vec3(self.up))
        # zero when the camera sits on its target or up is parallel to the
        # view direction: no image plane (also false for non-finite values,
        # so a pose that overflows is refused without a warning)
        with np.errstate(over="ignore", invalid="ignore"):
            view = self.look_at - self.position
            has_plane = (np.linalg.norm(np.cross(view, self.up))
                         > 1e-9 * np.linalg.norm(view) * np.linalg.norm(self.up))
        if not has_plane:
            raise ValueError("camera up must not be parallel to the view direction"
                             " (and look_at must differ from position)")
        if not (0.0 < self.fov_y < math.pi):
            raise ValueError("fov_y must be in (0, pi)")
        if self.height < 1 or self.width < 1:
            raise ValueError("resolution must be >= 1")

    def scaled(self, factor: int) -> "Camera":
        """Same pose and fov at factor-times the pixel resolution."""
        return Camera(self.position, self.look_at, self.up, self.fov_y,
                      self.height * factor, self.width * factor)

    def rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel ray origins and unit directions, shape (H, W, 3).

        Rays pass through pixel centers; row 0 is the top of the image.
        """
        fwd = normalize(self.look_at - self.position)
        right = normalize(np.cross(fwd, normalize(self.up)))
        up = np.cross(right, fwd)

        tan_half = math.tan(0.5 * self.fov_y)
        aspect = self.width / self.height
        ys = (1.0 - 2.0 * (np.arange(self.height) + 0.5) / self.height) * tan_half
        xs = (2.0 * (np.arange(self.width) + 0.5) / self.width - 1.0) * tan_half * aspect

        d = (fwd[None, None, :]
             + xs[None, :, None] * right[None, None, :]
             + ys[:, None, None] * up[None, None, :])
        d = normalize(d)
        o = np.broadcast_to(self.position, d.shape).copy()
        return o, d


def clip_to_box(origins: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slab-clip rays against [-1,1]^3; returns (t_near, t_far) per ray.

    Rays that miss the box get a fallback interval centered on their closest
    approach to the origin, so every pixel still owns a valid (empty-space)
    integration interval.
    """
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(dirs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (BOX_MIN - o) / d
        t2 = (BOX_MAX - o) / d
    lo = np.fmin(t1, t2)
    hi = np.fmax(t1, t2)
    # d==0 inside a slab gives lo=-inf/hi=+inf (never binds); outside gives
    # lo=hi=+/-inf which forces a miss below.
    t_near = np.max(np.where(np.isnan(lo), -np.inf, lo), axis=-1)
    t_far = np.min(np.where(np.isnan(hi), np.inf, hi), axis=-1)
    t_near = np.maximum(t_near, 0.0)

    miss = ~(t_far > t_near) | ~np.isfinite(t_near) | ~np.isfinite(t_far)
    if np.any(miss):
        t_mid = np.maximum(-np.sum(o * d, axis=-1), 0.0)
        t_near = np.where(miss, np.maximum(t_mid - _BOX_HALF_DIAG, 1e-3), t_near)
        t_far = np.where(miss, t_near + 2.0 * _BOX_HALF_DIAG, t_far)
    # Guard tangent grazes so every interval is usable downstream.
    t_far = np.where(t_far - t_near < 1e-9, t_near + 1e-9, t_far)
    return t_near, t_far


def default_camera(height: int = 128, width: int = 128) -> Camera:
    return Camera(position=(0.0, 0.0, 2.8), look_at=(0.0, 0.0, 0.0),
                  up=(0.0, 1.0, 0.0), fov_y=0.69, height=height, width=width)
