"""Procedural SDF scenes with spatially varying surface variance.

Each scene answers point queries analytically: signed distance s (negative
inside), Laplace variance beta controlling surface softness, and
view-dependent RGB radiance. The signed distance is mapped to
volume-rendering opacity through the Laplace CDF, oriented so that opacity
saturates at 1/beta deep inside a surface and decays to zero outside.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import normalize

BETA_MIN = 1e-4
BETA_MAX = 1e-1

_LIGHT_DIR = normalize(np.array([0.45, 0.70, 0.55]))
_AMBIENT = 0.25
_DIFFUSE = 0.75


def laplace_density(s, beta):
    """Opacity sigma from signed distance and Laplace variance.

    sigma(s, beta) = (1/beta) * LaplaceCDF(-s; scale=beta):
        s <= 0 (inside):  (1 - 0.5*exp(s/beta)) / beta
        s >  0 (outside): 0.5*exp(-s/beta) / beta

    Monotone non-increasing in s, continuous, sigma(0) = 1/(2 beta) exactly,
    range (0, 1/beta).
    """
    s = np.asarray(s, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if np.any(beta <= 0.0):
        raise ValueError("beta must be positive")
    # 0.5 + 0.5*sign(-s)*(-expm1(-|s|/beta)) evaluates both branches without overflow.
    cdf = 0.5 - 0.5 * np.sign(s) * (-np.expm1(-np.abs(s) / beta))
    return cdf / beta


def beta_activation(beta_pre):
    """Map a raw scalar to a valid variance in (0.0001, 0.02), 0.01 at zero.

    tanh saturates in float64, so the endpoints are clamped to keep the
    variance floor exact.
    """
    beta_pre = np.asarray(beta_pre, dtype=np.float64)
    b = 0.01 + np.tanh(2.0 * beta_pre) * (0.01 - 0.0001)
    return np.clip(b, 0.0001, 0.0199)


def _sphere_sdf(p, center, radius):
    dx = p[..., 0] - center[0]
    dy = p[..., 1] - center[1]
    dz = p[..., 2] - center[2]
    return np.sqrt(dx * dx + dy * dy + dz * dz) - radius


def _sphere_normal(p, center):
    d = p - np.asarray(center)
    n = np.sqrt(np.sum(d * d, axis=-1, keepdims=True))
    return d / np.maximum(n, 1e-12)


def _torus_sdf(p, center, major, minor):
    dx = p[..., 0] - center[0]
    dy = p[..., 1] - center[1]
    dz = p[..., 2] - center[2]
    qx = np.sqrt(dx * dx + dz * dz) - major
    return np.sqrt(qx * qx + dy * dy) - minor


def _smooth_union(a, b, k):
    # Polynomial smooth min; its gradient is the convex blend h*grad_a +
    # (1-h)*grad_b (the dh term cancels identically), hence 1-Lipschitz.
    h = np.clip(0.5 + 0.5 * (b - a) / k, 0.0, 1.0)
    return b * (1.0 - h) + a * h - k * h * (1.0 - h)


@dataclass
class SceneOracle:
    """A named analytic scene: pure, stateless, deterministic point queries."""

    name: str
    params: dict = field(default_factory=dict)
    _sdf: Callable = None
    _normal: Callable = None
    _albedo: Callable = None
    _beta: Callable = None
    specular: float = 0.0
    spec_power: float = 16.0

    def sdf(self, p: np.ndarray) -> np.ndarray:
        return self._sdf(np.asarray(p, dtype=np.float64))

    def beta_field(self, p: np.ndarray) -> np.ndarray:
        b = self._beta(np.asarray(p, dtype=np.float64))
        return np.clip(b, BETA_MIN, BETA_MAX)

    def normals(self, p: np.ndarray) -> np.ndarray:
        """Unit SDF gradient (analytic per scene)."""
        return self._normal(np.asarray(p, dtype=np.float64))

    def radiance(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        n = self.normals(p)
        lambert = np.maximum(n @ _LIGHT_DIR, 0.0)
        shade = _AMBIENT + _DIFFUSE * lambert
        rgb = self._albedo(p) * shade[..., None]
        if self.specular > 0.0:
            # Blinn-Phong lobe towards the viewer (v points along the ray).
            half = normalize(_LIGHT_DIR - np.asarray(v, dtype=np.float64))
            spec = np.maximum(np.sum(n * half, axis=-1), 0.0) ** self.spec_power
            rgb = rgb + self.specular * spec[..., None]
        return np.clip(rgb, 0.0, 1.0)

    def fields(self, p: np.ndarray, v: np.ndarray):
        """(s, beta, radiance) at points p viewed along v."""
        p = np.asarray(p, dtype=np.float64)
        return self.sdf(p), self.beta_field(p), self.radiance(p, v)



def _constant_beta(value):
    def f(p):
        return np.full(p.shape[:-1], float(value))
    return f


def _constant_albedo(rgb):
    c = np.asarray(rgb, dtype=np.float64)

    def f(p):
        return np.broadcast_to(c, p.shape[:-1] + (3,))
    return f


def _build_sphere(params):
    r = params["radius"]
    c = (0.0, 0.0, 0.0)
    return dict(_sdf=lambda p: _sphere_sdf(p, c, r),
                _normal=lambda p: _sphere_normal(p, c),
                _albedo=_constant_albedo((0.80, 0.56, 0.34)),
                _beta=_constant_beta(params["beta"]))


# laterally separated with a visible gap: silhouettes fall on background, and
# neighboring rays across the gap jump between the two depths (near t=2.5 for
# the front sphere, t=2.87 behind); the central ray hits the back sphere
_TWO_SPHERES = (np.array([-0.55, 0.0, 0.30]), 0.42, np.array([0.42, 0.0, -0.30]), 0.48)


def _build_two_spheres(params):
    ca, ra, cb, rb = _TWO_SPHERES

    def sdf(p):
        return np.minimum(_sphere_sdf(p, ca, ra), _sphere_sdf(p, cb, rb))

    def nearest_a(p):
        return _sphere_sdf(p, ca, ra) <= _sphere_sdf(p, cb, rb)

    def normal(p):
        na = _sphere_normal(p, ca)
        nb = _sphere_normal(p, cb)
        return np.where(nearest_a(p)[..., None], na, nb)

    def albedo(p):
        return np.where(nearest_a(p)[..., None],
                        np.array([0.85, 0.30, 0.25]), np.array([0.25, 0.45, 0.85]))
    return dict(_sdf=sdf, _normal=normal, _albedo=albedo,
                _beta=_constant_beta(params["beta"]))


def _build_torus(params):
    c = (0.0, -0.05, 0.0)
    major, minor = 0.55, 0.25

    def sdf(p):
        return _torus_sdf(p, c, major, minor)

    def normal(p):
        dx = p[..., 0] - c[0]
        dy = p[..., 1] - c[1]
        dz = p[..., 2] - c[2]
        ring = np.sqrt(dx * dx + dz * dz)
        scale = (ring - major) / np.maximum(ring, 1e-12)
        g = np.stack([dx * scale, dy, dz * scale], axis=-1)
        n = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
        return g / np.maximum(n, 1e-12)
    return dict(_sdf=sdf, _normal=normal,
                _albedo=_constant_albedo((0.35, 0.75, 0.40)),
                _beta=_constant_beta(params["beta"]))


def _build_blended_union(params):
    ca, ra = np.array([-0.30, -0.05, 0.10]), 0.45
    cb, rb = np.array([0.35, 0.12, -0.12]), 0.40
    k = 0.30

    def sdf(p):
        return _smooth_union(_sphere_sdf(p, ca, ra), _sphere_sdf(p, cb, rb), k)

    def normal(p):
        a = _sphere_sdf(p, ca, ra)
        b = _sphere_sdf(p, cb, rb)
        h = np.clip(0.5 + 0.5 * (b - a) / k, 0.0, 1.0)[..., None]
        g = h * _sphere_normal(p, ca) + (1.0 - h) * _sphere_normal(p, cb)
        n = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
        return g / np.maximum(n, 1e-12)

    def albedo(p):
        t = np.clip(0.5 + p[..., 0], 0.0, 1.0)[..., None]
        return (1.0 - t) * np.array([0.75, 0.60, 0.25]) + t * np.array([0.45, 0.35, 0.70])
    return dict(_sdf=sdf, _normal=normal, _albedo=albedo,
                _beta=_constant_beta(params["beta"]))


def _build_textured_sphere(params):
    r = 0.68
    c = (0.0, 0.0, 0.0)
    base = params["beta"]
    band = params["beta_band"]

    def albedo(p):
        # Soft checker in spherical angles.
        theta = np.arctan2(p[..., 0], p[..., 2])
        radius = np.maximum(np.sqrt(np.sum(p * p, axis=-1)), 1e-9)
        phi = np.arcsin(np.clip(p[..., 1] / radius, -1.0, 1.0))
        cval = 0.5 + 0.5 * np.tanh(4.0 * np.sin(6.0 * theta) * np.sin(6.0 * phi))
        dark = np.array([0.20, 0.22, 0.45])
        light = np.array([0.90, 0.85, 0.60])
        return dark + (light - dark) * cval[..., None]

    def beta_f(p):
        # Fuzzy equatorial band: variance rises where |y| is small.
        return base + band * np.exp(-(p[..., 1] / 0.18) ** 2)
    return dict(_sdf=lambda p: _sphere_sdf(p, c, r),
                _normal=lambda p: _sphere_normal(p, c),
                _albedo=albedo, _beta=beta_f, specular=0.35)


def _build_wall(params):
    z0 = params["wall_z"]

    def sdf(p):
        return p[..., 2] - z0

    def normal(p):
        return np.broadcast_to(np.array([0.0, 0.0, 1.0]), p.shape)
    return dict(_sdf=sdf, _normal=normal,
                _albedo=_constant_albedo((0.70, 0.70, 0.72)),
                _beta=_constant_beta(params["beta"]))


_BUILDERS = {
    "sphere": _build_sphere,
    "two-spheres": _build_two_spheres,
    "torus": _build_torus,
    "blended-union": _build_blended_union,
    "textured-sphere": _build_textured_sphere,
    "wall": _build_wall,
}

SCENE_NAMES = ("sphere", "two-spheres", "torus", "blended-union", "textured-sphere")

_DEFAULTS = {
    "beta": 0.025,
    "beta_band": 0.04,
    "radius": 1.0,
    "wall_z": 0.0,
}


def make_scene(name: str, **overrides) -> SceneOracle:
    """Build a scene from the catalog; keyword overrides replace defaults."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scene {name!r}; have {sorted(_BUILDERS)}")
    params = dict(_DEFAULTS)
    for k, val in overrides.items():
        if val is None:
            continue
        if k not in params:
            raise ValueError(f"unknown scene parameter {k!r}")
        params[k] = float(val)
    parts = _BUILDERS[name](params)
    return SceneOracle(name=name, params=params, **parts)
