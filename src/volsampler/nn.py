"""Minimal CNN building blocks with hand-derived gradients.

Just the pieces the proposal upsampler needs: 3x3 same-padding convolution
(im2col + BLAS), ReLU, exact bilinear upsampling expressed as fixed row/column
interpolation matrices, channel softmax, and the fused softmax-cross-entropy
head. No autodiff graph: each op returns what its backward pass needs, and the
network wires them explicitly.

Tensors are (B, C, H, W). Convolutions cache their input patches, so memory
scales with activation size; fine at the resolutions this project runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Param:
    """A trainable tensor and its gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def he_init(rng: np.random.Generator, c_out: int, c_in: int, k: int, dtype) -> np.ndarray:
    std = np.sqrt(2.0 / (c_in * k * k))
    return (rng.standard_normal((c_out, c_in, k, k)) * std).astype(dtype)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C*k*k, H*W) patch matrix for same-padding conv."""
    b, c, h, w = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, k * k, h * w), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky * k + kx, :] = xp[:, :, ky:ky + h, kx:kx + w].reshape(b, c, -1)
    return cols.reshape(b, c * k * k, h * w)


def _col2im(cols: np.ndarray, shape, k: int) -> np.ndarray:
    """Adjoint of _im2col without the final crop: scatter-add the patches of
    a (B, C, H, W) grid onto that grid grown by k // 2 on every side."""
    b, c, h, w = shape
    pad = k // 2
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols = cols.reshape(b, c, k * k, h * w)
    for ky in range(k):
        for kx in range(k):
            xp[:, :, ky:ky + h, kx:kx + w] += cols[:, :, ky * k + kx, :].reshape(b, c, h, w)
    return xp


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """Same-padding stride-1 convolution; returns (y, cache)."""
    b, c_in, h, w = x.shape
    c_out, c_in_w, k, _ = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv expects {c_in_w} input channels, got {c_in}")
    cols = _im2col(x, k)
    w2d = weight.reshape(c_out, -1)
    y = np.matmul(w2d[None], cols)  # (b, c_out, h*w) via BLAS
    y += bias[None, :, None]
    return y.reshape(b, c_out, h, w), (cols, x.shape, weight.shape)


def conv2d_backward(dy: np.ndarray, weight: np.ndarray, cache):
    """Gradients (dx, dw, db) of conv2d_forward. Only the bounding box of the
    nonzero entries of dy is visited, so a gradient confined to a patch costs
    the patch, not the whole grid."""
    cols, x_shape, w_shape = cache
    b, c_out, h, w = dy.shape
    k = w_shape[-1]
    pad = k // 2
    dx = np.zeros(x_shape, dtype=np.result_type(weight, dy))
    rows = np.flatnonzero(dy.any(axis=(0, 1, 3)))
    cs = np.flatnonzero(dy.any(axis=(0, 1, 2)))
    if rows.size == 0:
        dt = np.result_type(dy, cols)
        return dx, np.zeros(w_shape, dtype=dt), np.zeros(c_out, dtype=dt)
    r0, r1, c0, c1 = rows[0], rows[-1] + 1, cs[0], cs[-1] + 1
    hb, wb = r1 - r0, c1 - c0
    dy_mat = np.ascontiguousarray(dy[:, :, r0:r1, c0:c1]).reshape(b, c_out, hb * wb)
    box_cols = cols.reshape(b, -1, h, w)[:, :, r0:r1, c0:c1].reshape(b, -1, hb * wb)
    dw = np.matmul(dy_mat, box_cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
    db = dy_mat.sum(axis=(0, 2))
    dcols = np.matmul(weight.reshape(c_out, -1).T[None], dy_mat)
    # the box's patches reach pad beyond it; what lands on the zero padding
    # of the grid is dropped
    grown = _col2im(dcols, (b, x_shape[1], hb, wb), k)
    y0, y1 = max(r0 - pad, 0), min(r1 + pad, h)
    x0, x1 = max(c0 - pad, 0), min(c1 + pad, w)
    dx[:, :, y0:y1, x0:x1] = grown[:, :, y0 - r0 + pad:y1 - r0 + pad,
                                   x0 - c0 + pad:x1 - c0 + pad]
    return dx, dw, db


def relu_forward(x: np.ndarray):
    mask = x > 0
    return x * mask, mask


def relu_backward(dy: np.ndarray, mask: np.ndarray):
    return dy * mask


def bilinear_matrix(n_in: int, factor: int, dtype=np.float64) -> np.ndarray:
    """(n_in*factor, n_in) interpolation matrix, half-pixel convention.

    Rows are convex weights, so constants are preserved exactly; edges clamp.
    """
    n_out = n_in * factor
    x = (np.arange(n_out) + 0.5) / factor - 0.5
    x = np.clip(x, 0.0, n_in - 1.0)
    x0 = np.floor(x).astype(np.int64)
    x1 = np.minimum(x0 + 1, n_in - 1)
    w1 = x - x0
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[np.arange(n_out), x0] += 1.0 - w1
    m[np.arange(n_out), x1] += w1
    return m


def upsample_forward(x: np.ndarray, factor: int):
    """Separable bilinear upsample by an integer factor."""
    b, c, h, w = x.shape
    mh = bilinear_matrix(h, factor, x.dtype)
    mw = bilinear_matrix(w, factor, x.dtype)
    flat = x.reshape(b * c, h, w)
    y = np.matmul(np.matmul(mh[None], flat), mw.T[None])
    return y.reshape(b, c, h * factor, w * factor), (mh, mw, x.shape)


def upsample_backward(dy: np.ndarray, cache):
    mh, mw, x_shape = cache
    b, c, h, w = x_shape
    flat = dy.reshape(b * c, dy.shape[2], dy.shape[3])
    dx = np.matmul(np.matmul(mh.T[None], flat), mw[None])
    return dx.reshape(b, c, h, w)


def softmax_channels(x: np.ndarray) -> np.ndarray:
    """Softmax along axis 1; per-pixel distributions over channels."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


EPS_LOG = 1e-12


def softmax_ce(logits: np.ndarray, target: np.ndarray, valid: np.ndarray):
    """Mean cross-entropy between per-pixel channel distributions.

    target rows must sum to 1 where valid; invalid pixels are excluded from
    both the mean and the gradient. Returns (loss, probs, d_logits) with the
    fused gradient (probs - target) / n_valid at valid pixels.
    """
    probs = softmax_channels(logits)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0, probs, np.zeros_like(logits)
    vmask = valid[:, None, :, :]
    ce = -(target * np.log(probs + EPS_LOG)).sum(axis=1)
    loss = float(ce[valid].sum() / n_valid)
    d_logits = np.where(vmask, (probs - target) / n_valid, 0.0).astype(logits.dtype)
    return loss, probs, d_logits


@dataclass
class AdamState:
    """First/second moment buffers per parameter, plus step count."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: list[Param], state: AdamState) -> None:
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p in params:
        m = state.m.setdefault(p.name, np.zeros_like(p.value))
        v = state.v.setdefault(p.name, np.zeros_like(p.value))
        m += (1.0 - b1) * (p.grad - m)
        v += (1.0 - b2) * (p.grad * p.grad - v)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.value -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.value.dtype)
