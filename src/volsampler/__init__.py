"""Low-sample volume rendering over procedural SDF scenes.

The stack: Laplace-CDF density scenes, a low-resolution probe, a trainable
proposal upsampler, nucleus-filtered robust stratified sampling with adaptive
per-pixel budgets, and a benchmark harness scoring everything against a dense
two-pass reference.
"""
__version__ = "0.1.0"

from .geometry import BOX_MAX, BOX_MIN, Camera, default_camera
from .metrics import psnr, worst_percentile_psnr
from .regularizers import RegularizerConfig, decision_loss, surface_loss
from .render import (PixelSamples, ProbeOutput, RenderOutput, render_full,
                     render_probe, render_reference, render_uniform)
from .sampling import SampleBudget, allocate_budgets
from .scenes import (SCENE_NAMES, SceneOracle, beta_activation, laplace_density,
                     make_scene)

__all__ = [
    "BOX_MAX", "BOX_MIN", "Camera", "default_camera",
    "psnr", "worst_percentile_psnr",
    "RegularizerConfig", "decision_loss", "surface_loss",
    "PixelSamples", "ProbeOutput", "RenderOutput",
    "render_full", "render_probe", "render_reference", "render_uniform",
    "SampleBudget", "allocate_budgets",
    "SCENE_NAMES", "SceneOracle", "beta_activation",
    "laplace_density", "make_scene",
    "__version__",
]
