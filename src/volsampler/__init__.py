"""Low-sample volume rendering over procedural SDF scenes.

The stack: Laplace-CDF density scenes, a low-resolution probe, a trainable
proposal upsampler, nucleus-filtered robust stratified sampling with adaptive
per-pixel budgets, and a benchmark harness scoring everything against a dense
two-pass reference.
"""
__version__ = "0.1.0"
