import sys

import numpy as np
import pytest

from volsampler.geometry import Camera
from volsampler.proposal import ProposalNet
from volsampler.scenes import SceneOracle


def small_camera(res: int = 32) -> Camera:
    return Camera(position=(0.0, 0.0, 2.8), look_at=(0.0, 0.0, 0.0),
                  up=(0.0, 1.0, 0.0), fov_y=0.69, height=res, width=res)


def vacuum_scene() -> SceneOracle:
    """Empty space: constant SDF far from zero (trivially 1-Lipschitz)."""
    return SceneOracle(
        name="vacuum",
        _sdf=lambda p: np.full(p.shape[:-1], 10.0),
        _surface=lambda p: ([np.zeros(p.shape[:-1])] * 2 + [np.ones(p.shape[:-1])],
                            (1.0, 1.0, 1.0)),
        _beta=lambda p: np.full(p.shape[:-1], 0.01),
    )


def volsampler_bindings() -> list[tuple[dict, str, object]]:
    """Every name bound in a volsampler module and in the two classes whose
    methods the benchmark's hooks wrap: a traced test checks that each is
    restored."""
    owners = [vars(mod) for name, mod in sys.modules.items()
              if mod is not None and (name == "volsampler" or name.startswith("volsampler."))]
    owners += [vars(SceneOracle), vars(ProposalNet)]
    return [(owner, key, value) for owner in owners for key, value in list(owner.items())]


def ray_sphere_hit(origin, direction, center, radius):
    """Nearest positive intersection distance, or None. Independent oracle:
    closed-form quadratic, no renderer code involved."""
    o = np.asarray(origin, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    b = 2.0 * np.dot(o, d)
    c = np.dot(o, o) - radius * radius
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return None
    root = np.sqrt(disc)
    for t in ((-b - root) / 2.0, (-b + root) / 2.0):
        if t > 0.0:
            return float(t)
    return None


def finite_diff(f, x, h=1e-3):
    """Central-difference gradient of scalar f w.r.t. array x (mutates x
    transiently). The oracle for every hand-derived gradient."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)) + np.max(np.abs(b)), 1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
