"""Procedural SDF scenes with spatially varying surface variance.

Each scene answers point queries analytically: signed distance s (negative
inside), Laplace variance beta controlling surface softness, and
view-dependent RGB radiance. The signed distance is mapped to
volume-rendering opacity through the Laplace CDF, oriented so that opacity
saturates at 1/beta deep inside a surface and decays to zero outside.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import normalize

BETA_MIN = 1e-4
BETA_MAX = 1e-1

# laplace_density is exactly 0.0 at s >= DENSITY_ZERO_BETAS * beta: its
# outside branch 0.5 - 0.5 * (-expm1(-s/beta)) cancels once -expm1(-x) rounds
# to 1, which it does for x > 54 ln 2 ~ 37.43; 38 leaves a margin for the
# roundoff of s / beta and of the renderers' sphere tracing
DENSITY_ZERO_BETAS = 38.0

_LIGHT_DIR = normalize(np.array([0.45, 0.70, 0.55]))
_AMBIENT = 0.25
_DIFFUSE = 0.75
_SPEC_POWER = 16.0


def laplace_density(s, beta):
    """Opacity sigma from signed distance and Laplace variance.

    sigma(s, beta) = (1/beta) * LaplaceCDF(-s; scale=beta):
        s <= 0 (inside):  (1 - 0.5*exp(s/beta)) / beta
        s >  0 (outside): 0.5*exp(-s/beta) / beta

    Monotone non-increasing in s, continuous, sigma(0) = 1/(2 beta) exactly,
    range [0, 1/beta). The outside branch is computed as 0.5 - 0.5 *
    (-expm1(-s/beta)), which cancels to exactly 0.0 from s = 37.43 beta on,
    so sigma is exactly 0 for s >= DENSITY_ZERO_BETAS * beta.
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


def _sphere_sdf_normal(p, center, radius):
    """Signed distance and unit outward normal planes from one |p - center|."""
    d = [p[..., c] - center[c] for c in range(3)]
    r = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    r_safe = np.maximum(r, 1e-12)
    return r - radius, [dc / r_safe for dc in d]


def _unit(g):
    """The unit vectors of the component planes g, as planes."""
    n = np.maximum(np.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2]), 1e-12)
    return [gc / n for gc in g]


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
    """A named analytic scene: pure, stateless, deterministic point queries.

    The SDF must be 1-Lipschitz (a point at distance s has no surface within
    s of it). beta_max is an upper bound of beta_field over all space; the
    default, BETA_MAX, bounds every scene, since beta_field clips to it.
    Every renderer relies on both to prove rays empty by sphere tracing.
    """

    name: str
    _sdf: Callable = None
    _surface: Callable = None  # p -> (unit SDF gradient, albedo) as 3 planes each
    _beta: Callable = None
    specular: float = 0.0
    beta_max: float = BETA_MAX

    def sdf(self, p: np.ndarray) -> np.ndarray:
        return self._sdf(np.asarray(p, dtype=np.float64))

    def beta_field(self, p: np.ndarray) -> np.ndarray:
        b = self._beta(np.asarray(p, dtype=np.float64))
        return np.clip(b, BETA_MIN, BETA_MAX)

    def radiance(self, p: np.ndarray, v: np.ndarray, ray: np.ndarray) -> np.ndarray:
        """RGB (M, 3) at points p (M, 3), point i seen along v[ray[i]] of the
        ray directions v (N, 3). Computed one component plane at a time, it
        is an (M, 3) view of (3, M) colour planes; the specular half vector
        is normalized once per ray and gathered per point.
        """
        p = np.asarray(p, dtype=np.float64)
        n, albedo = self._surface(p)
        # a matmul on C-ordered normals: BLAS's dot sets the lambert bits
        lambert = np.maximum(np.stack(n, axis=-1) @ _LIGHT_DIR, 0.0)
        shade = _AMBIENT + _DIFFUSE * lambert
        rgb = np.empty((3,) + shade.shape)
        for c in range(3):
            np.multiply(albedo[c], shade, out=rgb[c])
        if self.specular > 0.0:
            # Blinn-Phong lobe towards the viewer (v points along the ray).
            half = normalize(_LIGHT_DIR - np.asarray(v, dtype=np.float64))
            half = np.take(half.T, ray, axis=1)
            n_half = n[0] * half[0] + n[1] * half[1] + n[2] * half[2]
            rgb += self.specular * np.maximum(n_half, 0.0) ** _SPEC_POWER
        return np.clip(rgb, 0.0, 1.0, out=rgb).T

    def fields(self, p: np.ndarray, v: np.ndarray):
        """(s, beta, shade) at points p (M, 3) of the N rays with directions
        v (N, 3): ray-major, k = M / N points per ray. Per-point views are the
        case k = 1.

        Every sample point passes through here once. The renderers'
        sphere-tracing queries prove rays empty and sample nothing; they call
        sdf. Shading costs several times the SDF, so it is deferred:
        shade(rows) is the radiance at the flattened points rows (an index
        array, or slice(None) for every point), and renderers call it on the
        points that carry quadrature weight only.

        Scene queries read p one component at a time, so callers pass p as a
        view of three contiguous component planes (field_weights passes
        planes.reshape(3, -1).T), from which shade gathers its points.
        """
        p = np.asarray(p, dtype=np.float64)
        k, extra = divmod(len(p), len(v))
        if extra:
            raise ValueError("points must be k per view direction")
        planes = p.T

        def shade(rows):
            if isinstance(rows, slice):  # slice(None): every point, no gather
                return self.radiance(p, v, np.repeat(np.arange(len(v)), k))
            return self.radiance(np.take(planes, rows, axis=1).T, v, rows // k)
        return self.sdf(p), self.beta_field(p), shade


def _constant_beta(value):
    """A constant variance field and its bound: a scene's _beta and beta_max."""
    def f(p):
        return np.full(p.shape[:-1], float(value))
    return dict(_beta=f, beta_max=value)


def _surface(normal, albedo):
    """A scene's (normal, albedo) query when the two share no work."""
    return lambda p: (normal(p), albedo(p))


def _build_sphere(beta):
    r = 1.0
    c = (0.0, 0.0, 0.0)
    return dict(_sdf=lambda p: _sphere_sdf(p, c, r),
                _surface=_surface(lambda p: _sphere_sdf_normal(p, c, r)[1],
                                  lambda p: (0.80, 0.56, 0.34)),
                **_constant_beta(beta))


# laterally separated with a visible gap: silhouettes fall on background, and
# neighboring rays across the gap jump between the two depths (near t=2.5 for
# the front sphere, t=2.87 behind); the central ray hits the back sphere
_TWO_SPHERES = (np.array([-0.55, 0.0, 0.30]), 0.42, np.array([0.42, 0.0, -0.30]), 0.48)


def _build_two_spheres(beta):
    ca, ra, cb, rb = _TWO_SPHERES

    def sdf(p):
        return np.minimum(_sphere_sdf(p, ca, ra), _sphere_sdf(p, cb, rb))

    def surface(p):
        sa, na = _sphere_sdf_normal(p, ca, ra)
        sb, nb = _sphere_sdf_normal(p, cb, rb)
        nearest_a = sa <= sb
        return ([np.where(nearest_a, a, b) for a, b in zip(na, nb)],
                [np.where(nearest_a, a, b) for a, b in zip((0.85, 0.30, 0.25),
                                                           (0.25, 0.45, 0.85))])
    return dict(_sdf=sdf, _surface=surface, **_constant_beta(beta))


def _build_torus(beta):
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
        return _unit([dx * scale, dy, dz * scale])
    return dict(_sdf=sdf, _surface=_surface(normal, lambda p: (0.35, 0.75, 0.40)),
                **_constant_beta(beta))


def _build_blended_union(beta):
    ca, ra = np.array([-0.30, -0.05, 0.10]), 0.45
    cb, rb = np.array([0.35, 0.12, -0.12]), 0.40
    k = 0.30

    def sdf(p):
        return _smooth_union(_sphere_sdf(p, ca, ra), _sphere_sdf(p, cb, rb), k)

    def normal(p):
        a, na = _sphere_sdf_normal(p, ca, ra)
        b, nb = _sphere_sdf_normal(p, cb, rb)
        h = np.clip(0.5 + 0.5 * (b - a) / k, 0.0, 1.0)
        return _unit([h * ga + (1.0 - h) * gb for ga, gb in zip(na, nb)])

    def albedo(p):
        t = np.clip(0.5 + p[..., 0], 0.0, 1.0)
        return [(1.0 - t) * a + t * b for a, b in zip((0.75, 0.60, 0.25), (0.45, 0.35, 0.70))]
    return dict(_sdf=sdf, _surface=_surface(normal, albedo),
                **_constant_beta(beta))


def _build_textured_sphere(beta):
    r = 0.68
    c = (0.0, 0.0, 0.0)
    band = 0.04

    def albedo(p):
        # Soft checker in spherical angles.
        theta = np.arctan2(p[..., 0], p[..., 2])
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        radius = np.maximum(np.sqrt(x * x + y * y + z * z), 1e-9)
        phi = np.arcsin(np.clip(p[..., 1] / radius, -1.0, 1.0))
        cval = 0.5 + 0.5 * np.tanh(4.0 * np.sin(6.0 * theta) * np.sin(6.0 * phi))
        return [dark + (light - dark) * cval
                for dark, light in zip((0.20, 0.22, 0.45), (0.90, 0.85, 0.60))]

    def beta_f(p):
        # Fuzzy equatorial band: variance rises where |y| is small.
        return beta + band * np.exp(-(p[..., 1] / 0.18) ** 2)
    return dict(_sdf=lambda p: _sphere_sdf(p, c, r),
                _surface=_surface(lambda p: _sphere_sdf_normal(p, c, r)[1], albedo),
                _beta=beta_f, beta_max=beta + band, specular=0.35)


def _build_wall(beta):
    """The plane z = 0."""
    def normal(p):
        zero = np.zeros(p.shape[:-1])
        return [zero, zero, zero + 1.0]
    return dict(_sdf=lambda p: p[..., 2],
                _surface=_surface(normal, lambda p: (0.70, 0.70, 0.72)),
                **_constant_beta(beta))


_BUILDERS = {
    "sphere": _build_sphere,
    "two-spheres": _build_two_spheres,
    "torus": _build_torus,
    "blended-union": _build_blended_union,
    "textured-sphere": _build_textured_sphere,
    "wall": _build_wall,
}

SCENE_NAMES = ("sphere", "two-spheres", "torus", "blended-union", "textured-sphere")


def make_scene(name: str, beta: float | None = None) -> SceneOracle:
    """Build a scene from the catalog; beta None keeps the default 0.025."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scene {name!r}; have {sorted(_BUILDERS)}")
    parts = _BUILDERS[name](0.025 if beta is None else float(beta))
    parts["beta_max"] = float(np.clip(parts["beta_max"], BETA_MIN, BETA_MAX))
    return SceneOracle(name=name, **parts)
