"""High-resolution proposal network and its training loop.

A small fully-convolutional upsampler maps the low-resolution probe (weight
grid, RGB image, per-pixel view directions) to per-pixel discrete depth
distributions at 4x the probe resolution, with a softmax head and a skip
connection that adds the bilinearly upsampled input weights to the pre-logit
features. Supervision targets come from ground-truth weight patches cleaned
by blur -> suppress -> normalize; the loss is mean pixelwise cross-entropy.

Gradients are hand-derived through every layer; training is plain Adam.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import Camera
from .nn import (AdamState, Param, adam_step, conv2d_backward, conv2d_forward,
                 he_init, relu_backward, relu_forward, softmax_ce,
                 softmax_channels, upsample_backward, upsample_forward)
from .render import ProbeOutput, render_probe
from .scenes import SceneOracle

UPSCALE = 4  # two 2x bilinear stages
# Receptive field of the net, in probe pixels around an output pixel's parent
# P. Walking back from P's children 4P..4P+3: conv6, conv5 and conv4 widen
# them by 3 to 4P-3..4P+6; the second 2x stage reads 2P-2..2P+3, which conv3
# widens to 2P-3..2P+4; the first 2x stage reads P-2..P+2, and conv2 and
# conv1 widen that to P-4..P+4. The skip's 4x upsample reaches less far.
HALO = 4
CHECKPOINT_MAGIC = b"VSMP"
CHECKPOINT_VERSION = 1


@dataclass
class SupervisionTarget:
    """Cleaned per-pixel weight distributions; invalid rows carry no signal."""

    probs: np.ndarray  # (Z, h, w), rows sum to 1 where valid
    valid: np.ndarray  # (h, w) bool, False where suppression emptied the ray


def gaussian_kernel(sigma: float, radius: int = 3) -> np.ndarray:
    """Truncated renormalized 1D Gaussian; sigma == 0 degenerates to identity."""
    if sigma <= 0.0:
        return np.array([1.0])
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def blur_bins(weights: np.ndarray, sigma: float, radius: int = 3) -> np.ndarray:
    """1D Gaussian blur along the leading (bin) axis, zero-padded."""
    kernel = gaussian_kernel(sigma, radius)
    if kernel.size == 1:
        return weights.astype(np.float64, copy=True)
    z = weights.shape[0]
    r = kernel.size // 2
    padded = np.zeros((z + 2 * r,) + weights.shape[1:], dtype=np.float64)
    padded[r:r + z] = weights
    out = np.zeros_like(padded[:z])
    for i, kv in enumerate(kernel):
        out += kv * padded[i:i + z]
    return out


def build_target(p_patch: np.ndarray, blur_sigma: float = 1.0,
                 suppress_eps: float = 5e-3, blur_radius: int = 3) -> SupervisionTarget:
    """Clean a ground-truth weight patch into supervision distributions.

    Per ray: Gaussian-blur along bins, zero entries below suppress_eps,
    L1-normalize. Rays with nothing left are flagged invalid and excluded
    from the loss.
    """
    p = np.asarray(p_patch, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError("weights must be nonnegative")
    b = blur_bins(p, blur_sigma, blur_radius)
    b[b < suppress_eps] = 0.0
    total = b.sum(axis=0)
    valid = total > 0.0
    b = np.where(valid[None], b / np.where(valid, total, 1.0)[None], 0.0)
    return SupervisionTarget(probs=b, valid=valid)


def sampler_loss(phat_patch: np.ndarray, target: SupervisionTarget,
                 eps_log: float = 1e-12) -> float:
    """Mean cross-entropy sum_j -pbar_j log(phat_j + eps) over valid pixels."""
    if phat_patch.shape != target.probs.shape:
        raise ValueError("patch shapes differ")
    if not np.any(target.valid):
        return 0.0
    ce = -(target.probs * np.log(phat_patch + eps_log)).sum(axis=0)
    return float(ce[target.valid].mean())


class ProposalNet:
    """Conv upsampler from probe inputs to per-pixel depth distributions.

    Topology (hidden width C, bin count Z):
        concat(P, I, phi) -> conv+relu(C) -> conv+relu(C) -> up2
        -> conv+relu(C) -> up2 -> conv(Z) -> (+ up4(P) skip)
        -> conv+relu(C) -> conv(Z) -> channel softmax
    The final conv starts at zero so the untrained net proposes uniform bins.
    """

    def __init__(self, z_bins: int = 192, hidden: int = 64,
                 dtype=np.float32, seed: int = 0):
        self.z_bins = z_bins
        self.hidden = hidden
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c_in = z_bins + 6
        spec = [("conv1", c_in, hidden), ("conv2", hidden, hidden),
                ("conv3", hidden, hidden), ("conv4", hidden, z_bins),
                ("conv5", z_bins, hidden), ("conv6", hidden, z_bins)]
        self.params: list[Param] = []
        for name, ci, co in spec:
            w = he_init(rng, co, ci, 3, dtype)
            if name == "conv6":
                w = np.zeros_like(w)
            self.params.append(Param(f"{name}.w", w))
            self.params.append(Param(f"{name}.b", np.zeros(co, dtype=dtype)))
        self._cache = None

    def _p(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()

    def forward(self, probe_weights: np.ndarray, image: np.ndarray,
                dirs: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        """probe_weights (B,Z,h,w), image (B,3,h,w), dirs (B,3,h,w) ->
        per-pixel distributions (B, Z, 4h, 4w)."""
        if probe_weights.shape[1] != self.z_bins:
            raise ValueError(f"expected {self.z_bins} bins, got {probe_weights.shape[1]}")
        if image.shape[-2:] != probe_weights.shape[-2:] or dirs.shape[-2:] != probe_weights.shape[-2:]:
            raise ValueError("probe inputs must share one resolution")
        dt = self.dtype
        x = np.concatenate([probe_weights.astype(dt), image.astype(dt),
                            dirs.astype(dt)], axis=1)
        c = {}
        y, c["c1"] = conv2d_forward(x, *self._wb("conv1"))
        y, c["r1"] = relu_forward(y)
        y, c["c2"] = conv2d_forward(y, *self._wb("conv2"))
        y, c["r2"] = relu_forward(y)
        y, c["u2"] = upsample_forward(y, 2)
        y, c["c3"] = conv2d_forward(y, *self._wb("conv3"))
        y, c["r3"] = relu_forward(y)
        y, c["u3"] = upsample_forward(y, 2)
        g, c["c4"] = conv2d_forward(y, *self._wb("conv4"))
        skip, _ = upsample_forward(x[:, :self.z_bins], UPSCALE)
        y, c["c5"] = conv2d_forward(g + skip, *self._wb("conv5"))
        y, c["r5"] = relu_forward(y)
        logits, c["c6"] = conv2d_forward(y, *self._wb("conv6"))
        self._cache = c if keep_cache else None
        return logits

    def predict(self, probe: ProbeOutput) -> np.ndarray:
        """Softmax proposal grid (Z, 4h, 4w) from a probe."""
        logits = self.forward(*probe_inputs(probe, self.dtype))
        return softmax_channels(logits.astype(np.float64))[0]

    def _wb(self, name):
        return self._p(f"{name}.w").value, self._p(f"{name}.b").value

    def backward(self, d_logits: np.ndarray) -> None:
        """Accumulate parameter gradients from the head gradient."""
        if self._cache is None:
            raise RuntimeError("forward(keep_cache=True) must precede backward")
        c = self._cache
        d = d_logits.astype(self.dtype)

        d, dw, db = conv2d_backward(d, self._p("conv6.w").value, c["c6"])
        _acc(self, "conv6", dw, db)
        d = relu_backward(d, c["r5"])
        d, dw, db = conv2d_backward(d, self._p("conv5.w").value, c["c5"])
        _acc(self, "conv5", dw, db)
        # skip branch feeds network inputs only; no parameters downstream of it
        d, dw, db = conv2d_backward(d, self._p("conv4.w").value, c["c4"])
        _acc(self, "conv4", dw, db)
        d = upsample_backward(d, c["u3"])
        d = relu_backward(d, c["r3"])
        d, dw, db = conv2d_backward(d, self._p("conv3.w").value, c["c3"])
        _acc(self, "conv3", dw, db)
        d = upsample_backward(d, c["u2"])
        d = relu_backward(d, c["r2"])
        d, dw, db = conv2d_backward(d, self._p("conv2.w").value, c["c2"])
        _acc(self, "conv2", dw, db)
        d = relu_backward(d, c["r1"])
        _, dw, db = conv2d_backward(d, self._p("conv1.w").value, c["c1"])
        _acc(self, "conv1", dw, db)
        self._cache = None


def _acc(net: ProposalNet, name: str, dw, db):
    net._p(f"{name}.w").grad += dw
    net._p(f"{name}.b").grad += db


@dataclass
class TrainConfig:
    steps: int = 500
    lr: float = 1e-3
    lr_end_factor: float = 0.1   # cosine decay to lr * factor
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    patch: int = 64
    blur_sigma: float = 1.0
    blur_radius: int = 3
    suppress_eps: float = 5e-3
    z_bins: int = 192
    probe_mode: str = "midpoint"

    def lr_at(self, step: int) -> float:
        if self.steps <= 1:
            return self.lr
        frac = step / (self.steps - 1)
        lo = self.lr * self.lr_end_factor
        return lo + 0.5 * (self.lr - lo) * (1.0 + np.cos(np.pi * frac))


def probe_camera(camera: Camera) -> Camera:
    """The probe's camera: the same pose and fov at 1/UPSCALE of the
    resolution per side."""
    return Camera(camera.position, camera.look_at, camera.up, camera.fov_y,
                  camera.height // UPSCALE, camera.width // UPSCALE)


def probe_inputs(probe: ProbeOutput, dtype=np.float32):
    return (probe.weights[None].astype(dtype),
            np.moveaxis(probe.image, -1, 0)[None].astype(dtype),
            np.moveaxis(probe.dirs, -1, 0)[None].astype(dtype))


def patch_pixels(row: int, col: int, patch: int, height: int, width: int):
    """Row and column indices of the patch at origin (row, col); the patch
    wraps around the image edges."""
    return (row + np.arange(patch)) % height, (col + np.arange(patch)) % width


def render_gt_patch(scene: SceneOracle, camera_full: Camera, row: int, col: int,
                    patch: int, z_bins: int, workers: int = 1):
    """Ground-truth dense weight patch (Z, patch, patch) at full resolution,
    wrapping around the image edges (see patch_pixels)."""
    from .render import camera_geometry, integrate_batch

    o, d, t_near, t_far = camera_geometry(camera_full)
    h, w = camera_full.height, camera_full.width
    r, c = patch_pixels(row, col, patch, h, w)
    rows = (r[:, None] * w + c[None, :]).ravel()
    frac = (np.arange(z_bins) + 0.5) / z_bins
    t = t_near[rows][:, None] + frac[None, :] * (t_far - t_near)[rows][:, None]
    out = integrate_batch(scene, o[rows], d[rows], t, t_far[rows], validate=False)
    return out["weights"].reshape(patch, patch, z_bins).transpose(2, 0, 1)


def _runs(start: int, length: int, size: int):
    """(image start, patch offset, length) of the runs that do not wrap in
    the wrapped index range start .. start + length - 1 (mod size)."""
    first = min(length, size - start)
    runs = [(start, 0, first)]
    if first < length:
        runs.append((0, first, length - first))
    return runs


def _window(start: int, stop: int, size: int):
    """Probe-pixel window [lo, hi) of full-resolution pixels [start, stop):
    their parent probe pixels plus HALO, clamped to the probe image."""
    return (max(start // UPSCALE - HALO, 0),
            min((stop - 1) // UPSCALE + 1 + HALO, size))


def forward_patch(net: ProposalNet, inputs, row: int, col: int, patch: int):
    """Logits (1, Z, patch, patch) of the wrapped patch at full-resolution
    origin (row, col), from probe windows only (see train_step), and the
    windows' caches for backward_patch. inputs is probe_inputs(probe)."""
    ph, pw = inputs[0].shape[-2:]
    logits = np.empty((1, net.z_bins, patch, patch), dtype=net.dtype)
    windows = []
    for r0, pr, nr in _runs(row, patch, ph * UPSCALE):
        wr0, wr1 = _window(r0, r0 + nr, ph)
        for c0, pc, nc in _runs(col, patch, pw * UPSCALE):
            wc0, wc1 = _window(c0, c0 + nc, pw)
            out = net.forward(*(a[:, :, wr0:wr1, wc0:wc1] for a in inputs),
                              keep_cache=True)
            r, c = r0 - UPSCALE * wr0, c0 - UPSCALE * wc0
            src = (slice(None), slice(None), slice(r, r + nr), slice(c, c + nc))
            dst = (slice(None), slice(None), slice(pr, pr + nr), slice(pc, pc + nc))
            logits[dst] = out[src]
            # the net keeps one forward's cache; hold each window's until the
            # loss over the whole patch gives its head gradient
            windows.append((net._cache, out.shape, src, dst))
    return logits, windows


def backward_patch(net: ProposalNet, windows, d_patch: np.ndarray) -> None:
    """Accumulate parameter gradients from the patch's head gradient, one
    window at a time; the head gradient is zero outside the patch."""
    for cache, shape, src, dst in windows:
        d_logits = np.zeros(shape, dtype=net.dtype)
        d_logits[src] = d_patch[dst]
        net._cache = cache
        net.backward(d_logits)


def train_step(net: ProposalNet, opt: AdamState, scene: SceneOracle,
               camera_full: Camera, rng: np.random.Generator,
               cfg: TrainConfig, probe: ProbeOutput | None = None,
               workers: int = 1) -> float:
    """One supervised step: probe, random ground-truth patch, CE loss, Adam.

    The probe can be passed in when the scene and camera are fixed across
    steps (it is deterministic in midpoint mode).

    Only the patch carries loss, so the net runs on probe windows, not on the
    whole probe: each window is the patch's parent probe pixels plus a HALO
    of probe pixels on every side, clamped to the probe image, so the image
    border keeps its zero padding and edge-clamped upsampling. HALO covers
    the receptive field, so the window's logits on the patch are the full
    image's. A patch that wraps around the image edge is split into up to
    four rectangles that do not wrap, each with its own window; the loss
    runs once over the reassembled patch and every window is backpropagated
    into the same gradients. A patch with no valid pixel carries no
    gradient: the net is not run, and Adam steps on its momentum alone.
    """
    if camera_full.height % UPSCALE or camera_full.width % UPSCALE:
        raise ValueError("full resolution must be a multiple of the upscale factor")
    if cfg.patch > min(camera_full.height, camera_full.width):
        raise ValueError("patch must fit inside the full-resolution image")
    if probe is None:
        probe = render_probe(scene, probe_camera(camera_full), cfg.z_bins,
                             mode=cfg.probe_mode, workers=workers)

    h, w = camera_full.height, camera_full.width
    # origins are uniform over the whole image and patches wrap around its
    # edges, so each pixel lies in exactly patch**2 of the h*w equally likely
    # patches: border pixels are supervised as often as interior ones
    row, col = int(rng.integers(h)), int(rng.integers(w))
    gt = render_gt_patch(scene, camera_full, row, col, cfg.patch, cfg.z_bins,
                         workers=workers)
    target = build_target(gt, cfg.blur_sigma, cfg.suppress_eps, cfg.blur_radius)

    net.zero_grads()
    loss = 0.0
    if target.valid.any():
        logits, windows = forward_patch(net, probe_inputs(probe, net.dtype),
                                        row, col, cfg.patch)
        loss, _, d_patch = softmax_ce(logits.astype(np.float64),
                                      target.probs[None], target.valid[None])
        backward_patch(net, windows, d_patch)
    adam_step(net.params, opt)
    return loss


def train(net: ProposalNet, scene: SceneOracle, camera_full: Camera,
          cfg: TrainConfig, seed: int = 0, workers: int = 1,
          log_every: int = 0, scene_factory=None) -> list[float]:
    """Run cfg.steps supervised steps; returns the per-step loss history.

    scene_factory(rng) draws a fresh scene each step (a randomized-parameter
    family) for cross-scene generalization; otherwise the fixed scene's
    deterministic probe is rendered once and reused.
    """
    rng = np.random.default_rng(seed)
    opt = AdamState(lr=cfg.lr, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2)
    probe_cam = probe_camera(camera_full)
    losses = []
    probe = None
    if cfg.probe_mode == "midpoint" and scene_factory is None:
        probe = render_probe(scene, probe_cam, cfg.z_bins, mode="midpoint",
                             workers=workers)
    for step in range(cfg.steps):
        scene_step = scene_factory(rng) if scene_factory is not None else scene
        if probe is None:
            probe_step = render_probe(scene_step, probe_cam, cfg.z_bins,
                                      mode=cfg.probe_mode, seed=seed + step,
                                      workers=workers)
        else:
            probe_step = probe
        opt.lr = cfg.lr_at(step)
        loss = train_step(net, opt, scene_step, camera_full, rng, cfg,
                          probe=probe_step, workers=workers)
        losses.append(loss)
        if log_every and (step + 1) % log_every == 0:
            recent = np.mean(losses[-log_every:])
            print(f"step {step + 1:5d}  loss {recent:.4f}")
    return losses


def save_checkpoint(net: ProposalNet, path) -> None:
    """Versioned binary checkpoint: magic, version, tensor count, then per
    tensor a shape header and row-major little-endian float32 data."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(net.params)))
        for p in net.params:
            shape = p.value.shape
            f.write(struct.pack("<I", len(shape)))
            f.write(struct.pack(f"<{len(shape)}I", *shape))
            f.write(np.ascontiguousarray(p.value, dtype="<f4").tobytes())


class CheckpointError(ValueError):
    """A checkpoint file that is not a well-formed proposal checkpoint for
    the net it is loaded into."""


def _read(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(data)}")
    return data


def load_checkpoint(net: ProposalNet, path) -> None:
    """Load parameters into a net of matching architecture. Every malformed
    file (short read, bad magic, version, tensor count or shape, trailing
    bytes) raises CheckpointError."""
    with open(path, "rb") as f:
        magic = _read(f, 4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a proposal checkpoint (magic {magic!r})")
        version, count = struct.unpack("<II", _read(f, 8))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if count != len(net.params):
            raise CheckpointError(f"checkpoint has {count} tensors, net has {len(net.params)}")
        for p in net.params:
            (ndim,) = struct.unpack("<I", _read(f, 4))
            if ndim != p.value.ndim:
                raise CheckpointError(f"rank mismatch for {p.name}: "
                                      f"checkpoint {ndim}, net {p.value.ndim}")
            shape = struct.unpack(f"<{ndim}I", _read(f, 4 * ndim))
            if shape != p.value.shape:
                raise CheckpointError(f"shape mismatch for {p.name}: "
                                      f"checkpoint {shape}, net {p.value.shape}")
            n = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(_read(f, 4 * n), dtype="<f4").reshape(shape)
            p.value = data.astype(net.dtype)
        if f.read(1):
            raise CheckpointError("trailing bytes in checkpoint")
