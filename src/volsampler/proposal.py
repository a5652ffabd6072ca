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
from .nn import (AdamState, Param, adam_step, conv2d_at, conv2d_backward,
                 conv2d_forward, he_init, relu_backward, relu_forward,
                 softmax_ce, softmax_channels, upsample_backward,
                 upsample_forward)
from .render import ProbeOutput, dense_weights, render_probe
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
LR_END_FACTOR = 0.1  # the cosine schedule decays lr to lr * LR_END_FACTOR
TARGET_BLUR_SIGMA = 1.0  # build_target's Gaussian blur along bins, in bins
TARGET_SUPPRESS_EPS = 5e-3  # build_target zeroes blurred weights below this


@dataclass
class SupervisionTarget:
    """Cleaned per-pixel weight distributions; invalid rows carry no signal."""

    probs: np.ndarray  # (Z, h, w), rows sum to 1 where valid
    valid: np.ndarray  # (h, w) bool, False where suppression emptied the ray


def gaussian_kernel(sigma: float) -> np.ndarray:
    """1D Gaussian over 3 taps per side, renormalized."""
    x = np.arange(-3, 4, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def blur_bins(weights: np.ndarray, sigma: float) -> np.ndarray:
    """1D Gaussian blur (gaussian_kernel) along the leading (bin) axis, zero-padded."""
    kernel = gaussian_kernel(sigma)
    z = weights.shape[0]
    r = kernel.size // 2
    padded = np.zeros((z + 2 * r,) + weights.shape[1:], dtype=np.float64)
    padded[r:r + z] = weights
    out = np.zeros_like(padded[:z])
    for i, kv in enumerate(kernel):
        out += kv * padded[i:i + z]
    return out


def build_target(p_patch: np.ndarray) -> SupervisionTarget:
    """Clean a ground-truth weight patch into supervision distributions.

    Per ray: Gaussian-blur along bins (TARGET_BLUR_SIGMA), zero entries
    below TARGET_SUPPRESS_EPS, L1-normalize. Rays with nothing left are
    flagged invalid and excluded from the loss.
    """
    p = np.asarray(p_patch, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError("weights must be nonnegative")
    b = blur_bins(p, TARGET_BLUR_SIGMA)
    b[b < TARGET_SUPPRESS_EPS] = 0.0
    total = b.sum(axis=0)
    valid = total > 0.0
    b = np.where(valid[None], b / np.where(valid, total, 1.0)[None], 0.0)
    return SupervisionTarget(probs=b, valid=valid)


def _layers(z: int, c: int) -> list[tuple]:
    """The net for Z bins and hidden width C, from the input concat(P, I,
    phi) of probe weights, image and view directions to the logits, in
    order: ("conv", name, c_in, c_out) is a 3x3 conv, ("relu",) a ReLU,
    ("up", f) a bilinear f-times upsample, and ("skip",) adds P upsampled
    by UPSCALE. __init__, forward and backward all walk this table."""
    return [("conv", "conv1", z + 6, c), ("relu",), ("conv", "conv2", c, c), ("relu",),
            ("up", 2), ("conv", "conv3", c, c), ("relu",), ("up", 2),
            ("conv", "conv4", c, z), ("skip",),
            ("conv", "conv5", z, c), ("relu",), ("conv", "conv6", c, z)]


def max_pool3x3(grid: np.ndarray) -> np.ndarray:
    """The max of each cell's 3x3 neighborhood inside a (H, W, ...) grid
    (edge-padded); it grows a bool mask by one pixel on every side."""
    h, w = grid.shape[:2]
    padded = np.pad(grid, ((1, 1), (1, 1)) + ((0, 0),) * (grid.ndim - 2), mode="edge")
    out = grid.copy()
    for dy in range(3):
        for dx in range(3):
            np.maximum(out, padded[dy:dy + h, dx:dx + w], out=out)
    return out


def _needed(layers: list[tuple], live: np.ndarray) -> list:
    """Per layer, the (H, W) mask of the output positions the logits at the
    live positions read, for the layers after the last upsample (None for
    the layers before it, which run dense). Walking back from the logits,
    each 3x3 conv grows the mask by one pixel."""
    needed = [None] * len(layers)
    mask = live
    for i in reversed(range(len(layers))):
        if layers[i][0] == "up":
            break
        needed[i] = mask
        if layers[i][0] == "conv":
            mask = max_pool3x3(mask)
    return needed


class ProposalNet:
    """Conv upsampler from probe inputs to per-pixel depth distributions:
    the layers of _layers, then a channel softmax. The final conv starts at
    zero so the untrained net proposes uniform bins."""

    def __init__(self, z_bins: int = 192, hidden: int = 64,
                 dtype=np.float32, seed: int = 0):
        self.z_bins = z_bins
        self.hidden = hidden
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.params: list[Param] = []
        self.convs: dict[str, tuple[Param, Param]] = {}
        for kind, *args in _layers(z_bins, hidden):
            if kind == "conv":
                name, ci, co = args
                self.convs[name] = (Param(f"{name}.w", he_init(rng, co, ci, 3, dtype)),
                                    Param(f"{name}.b", np.zeros(co, dtype=dtype)))
                self.params.extend(self.convs[name])
        self.params[-2].value[...] = 0.0  # the final conv's weights

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()

    def forward(self, probe_weights: np.ndarray, image: np.ndarray,
                dirs: np.ndarray, cache: list | None = None,
                live: np.ndarray | None = None) -> np.ndarray:
        """probe_weights (B,Z,h,w), image (B,3,h,w), dirs (B,3,h,w) ->
        logits (B, Z, 4h, 4w). With a list for cache, appends each layer's
        cache to it for backward. With a (4h, 4w) bool mask for live, the
        layers after the last upsample run only at the positions the live
        logits read, and the logits are 0 at the other pixels; the live
        logits are the same bits as without the mask, and so is a backward
        from a head gradient that is 0 outside them."""
        if probe_weights.shape[1] != self.z_bins:
            raise ValueError(f"expected {self.z_bins} bins, got {probe_weights.shape[1]}")
        if image.shape[-2:] != probe_weights.shape[-2:] or dirs.shape[-2:] != probe_weights.shape[-2:]:
            raise ValueError("probe inputs must share one resolution")
        dt = self.dtype
        x = np.concatenate([probe_weights.astype(dt), image.astype(dt),
                            dirs.astype(dt)], axis=1)
        y = x
        layers = _layers(self.z_bins, self.hidden)
        needed = [None] * len(layers) if live is None else _needed(layers, live)
        for (kind, *args), mask in zip(layers, needed):
            if kind == "conv":
                w, b = self.convs[args[0]]
                if mask is None:
                    y, c = conv2d_forward(y, w.value, b.value)
                else:
                    y, c = conv2d_at(y, w.value, b.value, mask)
            elif kind == "relu":
                y, c = relu_forward(y)
            elif kind == "up":
                y, c = upsample_forward(y, args[0])
            else:  # skip
                y, c = y + upsample_forward(x[:, :self.z_bins], UPSCALE)[0], None
            if cache is not None:
                cache.append(c)
        return y

    def predict(self, probe: ProbeOutput, shared: bool = False):
        """Softmax proposal grid (Z, 4h, 4w) from a probe, every column
        summing to 1. Only the live pixels (live_pixels) run the net's
        full-resolution layers, and their columns are the bits of the softmax
        of forward's logits; every idle pixel gets the uniform distribution
        1/Z. With shared, the grid comes as its distinct rows instead: (rows,
        index), where rows (n_live + 1, Z) holds the live pixels' rows in
        raster order and then the uniform row, and index (4h * 4w,) is each
        flattened pixel's row."""
        z = self.z_bins
        h, w = (UPSCALE * n for n in probe.weights.shape[1:])
        live = live_pixels(probe, h, w)
        n_live = int(np.count_nonzero(live))
        rows = np.empty((n_live + 1, z))
        rows[n_live] = 1.0 / z
        if n_live:
            logits = self.forward(*probe_inputs(probe, self.dtype), live=live.reshape(h, w))
            # np.compress keeps the live logits contiguous, so the softmax
            # reduces them in the order it reduces the whole grid
            cols = np.compress(live, logits.reshape(1, z, -1), axis=2).astype(np.float64)
            rows[:n_live] = softmax_channels(cols)[0].T
        index = np.full(live.size, n_live)
        index[live] = np.arange(n_live)
        if shared:
            return rows, index
        return rows[index].T.reshape(z, h, w)

    def backward(self, d_logits: np.ndarray, cache: list) -> None:
        """Accumulate parameter gradients from the head gradient, through the
        cache a forward of this net filled."""
        layers = _layers(self.z_bins, self.hidden)
        if len(cache) != len(layers):
            raise RuntimeError("backward needs the cache of one forward(cache=[])")
        d = d_logits.astype(self.dtype)
        # the first layer's input has no parameters upstream: no gradient
        cache = [cache[0]._replace(input_grad=False)] + cache[1:]
        for (kind, *args), c in zip(reversed(layers), reversed(cache)):
            if kind == "conv":
                w, b = self.convs[args[0]]
                d, dw, db = conv2d_backward(d, w.value, c)
                w.grad += dw
                b.grad += db
            elif kind == "relu":
                d = relu_backward(d, c)
            elif kind == "up":
                d = upsample_backward(d, c)
            # the skip adds network inputs only; its gradient passes through


@dataclass
class TrainConfig:
    steps: int = 500
    lr: float = 2e-3
    patch: int = 16
    z_bins: int = 192

    def lr_at(self, step: int) -> float:
        if self.steps <= 1:
            return self.lr
        frac = step / (self.steps - 1)
        lo = self.lr * LR_END_FACTOR
        return lo + 0.5 * (self.lr - lo) * (1.0 + np.cos(np.pi * frac))


def probe_camera(camera: Camera) -> Camera:
    """The probe's camera: the same pose and fov at 1/UPSCALE of the
    resolution per side."""
    return Camera(camera.position, camera.look_at, camera.up, camera.fov_y,
                  camera.height // UPSCALE, camera.width // UPSCALE)


def parent_rows(height: int, width: int) -> np.ndarray:
    """Flattened probe pixel index (nearest parent) of every flattened pixel
    of a height x width image: the probe pixel it lies in, UPSCALE per side."""
    rows = (np.arange(height) // UPSCALE)[:, None] * (width // UPSCALE)
    cols = (np.arange(width) // UPSCALE)[None, :]
    return (rows + cols).ravel()


def live_pixels(probe: ProbeOutput, height: int, width: int,
                min_opacity: float = 0.0) -> np.ndarray:
    """(height * width,) bool: the flattened pixels of the full-resolution
    image (UPSCALE times the probe's per side) whose parent probe ray's
    weights sum to more than min_opacity. At the default 0 these are the
    live pixels, the only ones that take samples."""
    opacity = probe.weights.sum(axis=0).ravel()
    return opacity[parent_rows(height, width)] > min_opacity


def probe_inputs(probe: ProbeOutput, dtype=np.float32):
    return (probe.weights[None].astype(dtype),
            np.moveaxis(probe.image, -1, 0)[None].astype(dtype),
            np.moveaxis(probe.dirs, -1, 0)[None].astype(dtype))


def patch_pixels(row: int, col: int, patch: int, height: int, width: int):
    """Row and column indices of the patch at origin (row, col); the patch
    wraps around the image edges."""
    return (row + np.arange(patch)) % height, (col + np.arange(patch)) % width


def render_gt_patch(truth: np.ndarray, row: int, col: int, patch: int):
    """Ground-truth dense weight patch (Z, patch, patch) at origin (row, col)
    of the full-resolution truth grid (Z, H, W), wrapping around the image
    edges (see patch_pixels)."""
    r, c = patch_pixels(row, col, patch, *truth.shape[1:])
    return truth[:, r[:, None], c[None, :]]


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
    windows' caches for backward_patch. inputs is probe_inputs(probe). Each
    window's forward runs its layers after the last upsample only where its
    rectangle of the patch reads them (forward's live)."""
    ph, pw = inputs[0].shape[-2:]
    logits = np.empty((1, net.z_bins, patch, patch), dtype=net.dtype)
    windows = []
    for r0, pr, nr in _runs(row, patch, ph * UPSCALE):
        wr0, wr1 = _window(r0, r0 + nr, ph)
        for c0, pc, nc in _runs(col, patch, pw * UPSCALE):
            wc0, wc1 = _window(c0, c0 + nc, pw)
            r, c = r0 - UPSCALE * wr0, c0 - UPSCALE * wc0
            rect = np.zeros((UPSCALE * (wr1 - wr0), UPSCALE * (wc1 - wc0)), dtype=bool)
            rect[r:r + nr, c:c + nc] = True
            cache = []
            out = net.forward(*(a[:, :, wr0:wr1, wc0:wc1] for a in inputs),
                              cache=cache, live=rect)
            src = (slice(None), slice(None), slice(r, r + nr), slice(c, c + nc))
            dst = (slice(None), slice(None), slice(pr, pr + nr), slice(pc, pc + nc))
            logits[dst] = out[src]
            # hold each window's cache until the loss over the whole patch
            # gives its head gradient
            windows.append((cache, out.shape, src, dst))
    return logits, windows


def backward_patch(net: ProposalNet, windows, d_patch: np.ndarray) -> None:
    """Accumulate parameter gradients from the patch's head gradient, one
    window at a time; the head gradient is zero outside the patch."""
    for cache, shape, src, dst in windows:
        d_logits = np.zeros(shape, dtype=net.dtype)
        d_logits[src] = d_patch[dst]
        net.backward(d_logits, cache)


def train_step(net: ProposalNet, opt: AdamState, truth: np.ndarray,
               rng: np.random.Generator, cfg: TrainConfig,
               probe: ProbeOutput) -> float:
    """One supervised step: random ground-truth patch, CE loss, Adam. truth
    is the scene's dense weight grid (Z, H, W) at full resolution, and probe
    the scene's probe at 1/UPSCALE of it (see train).

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
    h, w = truth.shape[1:]
    if h % UPSCALE or w % UPSCALE:
        raise ValueError("full resolution must be a multiple of the upscale factor")
    if cfg.patch > min(h, w):
        raise ValueError("patch must fit inside the full-resolution image")

    # origins are uniform over the whole image and patches wrap around its
    # edges, so each pixel lies in exactly patch**2 of the h*w equally likely
    # patches: border pixels are supervised as often as interior ones
    row, col = int(rng.integers(h)), int(rng.integers(w))
    target = build_target(render_gt_patch(truth, row, col, cfg.patch))

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
          log_every: int = 0) -> list[float]:
    """Run cfg.steps supervised steps; returns the per-step loss history.

    The probe and the truth (the dense weight grid at full resolution, at
    the probe's bin midpoints, unshaded: dense_weights) are deterministic,
    so each is rendered once, on `workers` threads, and every step slices
    its patch from the truth. Training stops at the first NaN or infinite
    loss with CheckpointError, since no checkpoint is written from it.
    """
    rng = np.random.default_rng(seed)
    opt = AdamState(lr=cfg.lr)
    probe = render_probe(scene, probe_camera(camera_full), cfg.z_bins,
                         workers=workers)
    truth = dense_weights(scene, camera_full, cfg.z_bins, workers=workers)
    losses = []
    for step in range(cfg.steps):
        opt.lr = cfg.lr_at(step)
        loss = train_step(net, opt, truth, rng, cfg, probe=probe)
        if not np.isfinite(loss):
            raise CheckpointError(f"training loss is {loss} at step {step + 1}")
        losses.append(loss)
        if log_every and (step + 1) % log_every == 0:
            recent = np.mean(losses[-log_every:])
            print(f"step {step + 1:5d}  loss {recent:.4f}")
    return losses


def save_checkpoint(net: ProposalNet, path) -> None:
    """Versioned binary checkpoint: magic, version, tensor count, then per
    tensor a shape header and row-major little-endian float32 data. A NaN or
    infinite value, which load_checkpoint would refuse, raises
    CheckpointError before the file is opened."""
    data = [np.ascontiguousarray(p.value, dtype="<f4") for p in net.params]
    for p, values in zip(net.params, data):
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"non-finite values in {p.name}")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(net.params)))
        for values in data:
            f.write(struct.pack("<I", values.ndim))
            f.write(struct.pack(f"<{values.ndim}I", *values.shape))
            f.write(values.tobytes())


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
    bytes, a NaN or infinite value) raises CheckpointError."""
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
            if not np.all(np.isfinite(data)):
                raise CheckpointError(f"non-finite values in {p.name}")
            p.value = data.astype(net.dtype)
        if f.read(1):
            raise CheckpointError("trailing bytes in checkpoint")
