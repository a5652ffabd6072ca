"""Geometry regularizers evaluated on rendered outputs.

Pure reductions: the surface-tightness penalty on the rendered variance image
B and the SDF decision-boundary penalty on SDF samples. The B target anneals
linearly from a soft start value towards a small positive floor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegularizerConfig:
    b_target_start: float = 0.01
    b_target_end: float = 0.001
    b_target_steps: int = 200

    def __post_init__(self):
        if self.b_target_end <= 0.0:
            raise ValueError("annealing floor must stay positive")

    def b_target_at(self, step: int) -> float:
        """Linear anneal: start + (end - start) * min(1, step / steps)."""
        frac = min(1.0, step / self.b_target_steps) if self.b_target_steps > 0 else 1.0
        return self.b_target_start + (self.b_target_end - self.b_target_start) * frac


def surface_loss(b_image: np.ndarray, b_target: float) -> float:
    """Sum of squared deviations of the rendered variance image from its target."""
    b = np.asarray(b_image, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("B image must be finite")
    d = b - b_target
    return float(np.sum(d * d))


def decision_loss(sdf: np.ndarray) -> float:
    """sum exp(-2|s|): pushes SDF samples away from the zero level set."""
    s = np.asarray(sdf, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("SDF tensor must be finite")
    return float(np.sum(np.exp(-2.0 * np.abs(s))))

