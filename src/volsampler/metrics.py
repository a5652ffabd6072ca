"""PSNR metrics for unit-range radiance images, including the worst-percentile
variant that scores only the hardest pixels."""
from __future__ import annotations

import math

import numpy as np

PSNR_CAP = 100.0


def _pixel_sq_error(image: np.ndarray, reference: np.ndarray) -> np.ndarray:
    a = np.asarray(image, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    sq = d * d
    if sq.ndim == 3:
        sq = sq.mean(axis=-1)
    return sq


def _capped_psnr(sq: np.ndarray) -> float:
    """10 log10(1 / MSE) over the squared errors sq, at most PSNR_CAP; a zero
    MSE hits the cap."""
    mse = float(np.mean(sq))
    if mse <= 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))


def psnr(image: np.ndarray, reference: np.ndarray) -> float:
    """10 log10(1 / MSE) for images in [0, 1]; identical images hit the cap."""
    return _capped_psnr(_pixel_sq_error(image, reference))


def worst_percentile_psnr(image: np.ndarray, reference: np.ndarray, p: float) -> float:
    """PSNR over the ceil(p%) of pixels with the largest squared error.

    Ties resolve in row-major order so the selection is deterministic.
    p = 100 recovers plain psnr.
    """
    if not (0.0 < p <= 100.0):
        raise ValueError("p must be in (0, 100]")
    sq = _pixel_sq_error(image, reference).ravel()
    n_sel = max(1, math.ceil(p / 100.0 * sq.size))
    order = np.argsort(-sq, kind="stable")
    return _capped_psnr(sq[order[:n_sel]])


def foreground_psnr(image: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> float:
    """PSNR restricted to pixels where mask is True."""
    sq = _pixel_sq_error(image, reference)
    if mask.shape != sq.shape:
        raise ValueError("mask must match image resolution")
    if not np.any(mask):
        raise ValueError("empty foreground mask")
    return _capped_psnr(sq[mask])
