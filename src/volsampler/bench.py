"""Benchmark orchestration: sampling-method comparisons scored against the
384-sample reference, CSV output, and the adaptive proposal-guided render
pipeline.

Methods:
    uniform-dense  stratified-uniform positions, no proposal
    unstratified   inverse-CDF sampling of the proposal with i.i.d. variates
    stratified     inverse-CDF sampling with stratified variates
    robust         nucleus filter -> per-stratum budgeting, clipped deltas

Proposal sources: "probe-lift" (ground-truth low-resolution probe weights,
nearest-neighbor lifted and blurred along bins), "checkpoint" (trained
proposal network), or "oracle-full" (dense per-pixel coarse weights, for
sampler-free studies).
"""
from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .config import Config, ConfigError
from .geometry import Camera
from .metrics import psnr, worst_percentile_psnr
from .proposal import CheckpointError, ProposalNet, blur_bins, load_checkpoint
from .render import (PixelSamples, ProbeOutput, RenderOutput, camera_geometry,
                     render_full, render_probe, render_reference,
                     render_uniform)
from .sampling import (SampleBudget, adaptive_score_grid, allocate_budgets,
                       block_uniforms, budget_sample_grid, derive_seed,
                       inverse_cdf_sample_grid, normalize_pdf,
                       nucleus_support_grid, stratified_u_block,
                       upsample_nearest)
from .scenes import SceneOracle, make_scene

METHODS = ("uniform-dense", "unstratified", "stratified", "robust")
_METHOD_IDS = {m: i for i, m in enumerate(METHODS)}

CSV_HEADER = "method,spp,trial,psnr,worst10,worst1,worst01,ms"


class MissingCheckpointError(RuntimeError):
    """Raised when proposal.source=checkpoint has no usable checkpoint file:
    none named, none at the path, or a malformed one."""


@dataclass
class ProposalField:
    """Per-pixel proposal PDFs at full resolution plus the probe they came from."""

    pdf: np.ndarray        # (N, Z) rows normalized; all-zero rows = background
    probe: ProbeOutput
    factor: int
    t_near: np.ndarray     # (N,) full-res ray intervals
    t_far: np.ndarray
    z: int

    def parent_rows(self, height: int, width: int) -> np.ndarray:
        """Full-res pixel -> flattened probe pixel index (nearest neighbor)."""
        rows = (np.arange(height) // self.factor)[:, None] * (width // self.factor)
        cols = (np.arange(width) // self.factor)[None, :]
        return (rows + cols).ravel()


def scene_from_config(cfg: Config) -> SceneOracle:
    return make_scene(cfg.get("scene.name"),
                      beta=cfg.get_opt_float("scene.beta"),
                      beta_band=cfg.get_opt_float("scene.beta_band"),
                      radius=cfg.get_opt_float("scene.radius"),
                      wall_z=cfg.get_opt_float("scene.wall_z"))


def camera_from_config(cfg: Config) -> Camera:
    return Camera(position=cfg.get_vec3("camera.position"),
                  look_at=cfg.get_vec3("camera.look_at"),
                  up=cfg.get_vec3("camera.up"),
                  fov_y=cfg.get_float("camera.fov"),
                  height=cfg.get_int("camera.height"),
                  width=cfg.get_int("camera.width"))


@dataclass
class BenchSpec:
    scene: SceneOracle
    camera: Camera
    methods: tuple = ("unstratified", "stratified", "robust")
    spp_list: tuple = (2, 4, 8, 16, 32, 64)
    trials: int = 1
    seed: int = 0
    z_bins: int = 192
    probe_factor: int = 4
    probe_mode: str = "midpoint"
    reference_spp: int = 384
    tau: float = 0.98
    merge_probe: bool = True
    proposal_source: str = "probe-lift"
    checkpoint: str = ""
    hidden_channels: int = 64
    lift_blur_sigma: float = 1.0
    deterministic: bool = False
    workers: int = 1

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown sampling method {m!r}; have {METHODS}")
        if any(s < 1 for s in self.spp_list):
            raise ConfigError("spp values must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")

    @classmethod
    def from_config(cls, cfg: Config, seed: int = 0, workers: int = 1,
                    deterministic: bool = False) -> "BenchSpec":
        if cfg.get("sampler.fallback") != "uniform":
            raise ConfigError("sampler.fallback supports only 'uniform'")
        return cls(scene=scene_from_config(cfg), camera=camera_from_config(cfg),
                   methods=tuple(cfg.get_list("bench.methods")),
                   spp_list=tuple(cfg.get_int_list("bench.spp")),
                   trials=cfg.get_int("bench.trials"), seed=seed,
                   z_bins=cfg.get_int("render.z_bins"),
                   probe_factor=cfg.get_int("render.probe_factor"),
                   probe_mode=cfg.get("render.probe_mode"),
                   reference_spp=cfg.get_int("render.reference_spp"),
                   tau=cfg.get_float("sampler.tau"),
                   merge_probe=cfg.get_bool("sampler.merge_probe_samples"),
                   proposal_source=cfg.get("proposal.source"),
                   checkpoint=cfg.get("proposal.checkpoint"),
                   hidden_channels=cfg.get_int("proposal.hidden_channels"),
                   lift_blur_sigma=cfg.get_float("proposal.lift_blur_sigma"),
                   deterministic=deterministic, workers=workers)


@dataclass
class MetricRow:
    method: str
    spp: int
    trial: int
    psnr: float
    worst10: float
    worst1: float
    worst01: float
    ms: float

    def to_csv(self) -> str:
        return (f"{self.method},{self.spp},{self.trial},{self.psnr:.6f},"
                f"{self.worst10:.6f},{self.worst1:.6f},{self.worst01:.6f},"
                f"{self.ms:.3f}")


def rows_to_csv(rows: list[MetricRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(r.to_csv() + "\n")
    return out.getvalue()


def parse_csv(text: str) -> list[MetricRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad CSV header")
    rows = []
    for ln in lines[1:]:
        m, spp, trial, p, w10, w1, w01, ms = ln.split(",")
        rows.append(MetricRow(m, int(spp), int(trial), float(p), float(w10),
                              float(w1), float(w01), float(ms)))
    return rows


def prepare_proposals(scene: SceneOracle, camera: Camera, z_bins: int = 192,
                      probe_factor: int = 4, source: str = "probe-lift",
                      checkpoint: str = "", hidden_channels: int = 64,
                      lift_blur_sigma: float = 1.0, probe_mode: str = "midpoint",
                      seed: int = 0, workers: int = 1,
                      net: ProposalNet | None = None) -> ProposalField:
    """Build per-pixel proposal PDFs at the target resolution."""
    h, w = camera.height, camera.width
    if h % probe_factor or w % probe_factor:
        raise ConfigError("camera resolution must be divisible by probe_factor")
    probe_cam = Camera(camera.position, camera.look_at, camera.up, camera.fov_y,
                       h // probe_factor, w // probe_factor)
    probe = render_probe(scene, probe_cam, z_bins, mode=probe_mode,
                         seed=seed, workers=workers)
    _, _, t_near, t_far = camera_geometry(camera)

    if source == "probe-lift":
        # Sampler-free fallback: each child pixel inherits its parent probe
        # ray's distribution, blurred along bins to hedge the parallax between
        # parent and child rays. Imperfect at depth edges by construction; the
        # trained checkpoint source is the full-quality path.
        lifted = upsample_nearest(probe.weights, probe_factor)
        if lift_blur_sigma > 0.0:
            lifted = blur_bins(lifted, lift_blur_sigma)
        pdf = normalize_pdf(lifted.reshape(z_bins, -1).T)
    elif source == "oracle-full":
        dense = render_probe(scene, camera, z_bins, mode=probe_mode,
                             seed=seed, workers=workers)
        pdf = normalize_pdf(dense.weights.reshape(z_bins, -1).T)
    elif source == "checkpoint":
        if net is None:
            if not checkpoint:
                raise MissingCheckpointError(
                    "proposal.source=checkpoint needs proposal.checkpoint; train one "
                    "with `volsampler train-proposal`, or set proposal.source=probe-lift "
                    "for sampler-free benchmarking")
            net = ProposalNet(z_bins=z_bins, hidden=hidden_channels)
            try:
                load_checkpoint(net, checkpoint)
            except FileNotFoundError:
                raise MissingCheckpointError(
                    f"checkpoint {checkpoint!r} not found; train one with "
                    "`volsampler train-proposal`, or set proposal.source=probe-lift "
                    "for sampler-free benchmarking") from None
            except CheckpointError as e:
                raise MissingCheckpointError(
                    f"checkpoint {checkpoint!r} is unusable: {e}") from None
        phat = net.predict(probe)
        if phat.shape[-2:] != (h, w):
            raise ConfigError("checkpoint resolution does not match the camera")
        pdf = phat.reshape(z_bins, -1).T.copy()
    else:
        raise ConfigError(f"unknown proposal source {source!r}")
    return ProposalField(pdf=pdf, probe=probe, factor=probe_factor,
                         t_near=t_near, t_far=t_far, z=z_bins)


def _fallback_rows(pdf: np.ndarray) -> np.ndarray:
    return pdf.sum(axis=1) <= 0.0


def _thin_support(support: np.ndarray, s: int) -> np.ndarray:
    """Keep exactly s evenly spaced bins of each row's support (rows must have
    more than s support bins)."""
    m, z = support.shape
    counts = support.sum(axis=1)
    order = np.argsort(~support, axis=1, kind="stable")  # support indices first
    pick = np.rint(np.linspace(0.0, 1.0, s) * (counts[:, None] - 1)).astype(np.int64)
    kept = np.take_along_axis(order, pick, axis=1)
    out = np.zeros_like(support)
    np.put_along_axis(out, kept, True, axis=1)
    return out


def method_samples(method: str, prop: ProposalField, spp: int, seed: int,
                   tau: float = 0.98, height: int = 0, width: int = 0,
                   merge_probe: bool = True) -> PixelSamples:
    """Per-pixel sample positions for one sampling method at a flat budget.

    The robust method always carries its probe share: the parent ray's coarse
    samples at the surviving support bins join the integral (the spp count
    covers the new samples, matching the probe's amortized-cost accounting).
    """
    n, z = prop.pdf.shape
    span = prop.t_far - prop.t_near
    stream = _METHOD_IDS[method] + 11
    if method == "uniform-dense":
        u = stratified_u_block(n, spp, seed, stream)
        t = prop.t_near[:, None] + u * span[:, None]
        return PixelSamples(height, width, [(np.arange(n), t, None)])

    if method in ("unstratified", "stratified"):
        if method == "unstratified":
            u = np.sort(block_uniforms(seed, stream, (n, spp)), axis=1)
        else:
            u = stratified_u_block(n, spp, seed, stream)
        t = inverse_cdf_sample_grid(prop.pdf, prop.t_near, prop.t_far, u)
        return PixelSamples(height, width, [(np.arange(n), t, None)])

    if method == "robust":
        spp_map = np.full(n, spp, dtype=np.int64)
        return robust_samples(prop, spp_map, seed, tau, height, width,
                              merge_probe=merge_probe)
    raise ConfigError(f"unknown sampling method {method!r}")


def robust_samples(prop: ProposalField, spp_map: np.ndarray, seed: int,
                   tau: float = 0.98, height: int = 0, width: int = 0,
                   merge_probe: bool = False) -> PixelSamples:
    """Nucleus-filtered stratified budgeting, grouped by per-pixel budget.

    Background pixels (all-zero proposals) fall back to stratified-uniform
    sampling. With merge_probe, each pixel also integrates its parent probe
    ray's coarse samples at the surviving support bins, realizing the probe's
    amortized sample share.
    """
    n, z = prop.pdf.shape
    support = nucleus_support_grid(prop.pdf, tau)
    fallback = _fallback_rows(prop.pdf)
    width_bins = (prop.t_far - prop.t_near) / z
    sizes = support.sum(axis=1)

    parents = prop.parent_rows(height, width) if merge_probe else None
    probe_tn = probe_tf = None
    lift_bins = None
    if merge_probe:
        probe_tn = prop.probe.t_near.ravel()
        probe_tf = prop.probe.t_far.ravel()
        lift_bins = _probe_lift_bins(prop.probe)

    groups = []
    for s in np.unique(spp_map):
        rows = np.flatnonzero((spp_map == s) & ~fallback)
        if rows.size:
            sup_rows = support[rows]
            wide = np.flatnonzero(sizes[rows] > s)
            if wide.size:
                # budgets below the support size would chase the largest
                # predicted bins only; an evenly thinned support keeps the
                # whole depth range covered at one sample per kept bin
                sup_rows = sup_rows.copy()
                sup_rows[wide] = _thin_support(sup_rows[wide], int(s))
            xi = block_uniforms(seed, 23, (n, int(s)))[rows]
            t, delta = budget_sample_grid(sup_rows, prop.pdf[rows], int(s),
                                          prop.t_near[rows], prop.t_far[rows], xi)
            if merge_probe:
                t, delta = _merge_probe_lift(t, lift_bins[parents[rows]],
                                             parents[rows], probe_tn, probe_tf,
                                             prop.t_near[rows], prop.t_far[rows],
                                             width_bins[rows], z)
            groups.append((rows, t, delta))
        rows_bg = np.flatnonzero((spp_map == s) & fallback)
        if rows_bg.size:
            u = stratified_u_block(n, int(s), seed, 29)[rows_bg]
            t = prop.t_near[rows_bg, None] + u * (prop.t_far - prop.t_near)[rows_bg, None]
            groups.append((rows_bg, t, None))
    return PixelSamples(height, width, groups)


LIFT_BINS = 16
LIFT_OWN_BINS = 8


def _probe_lift_bins(probe: ProbeOutput, k: int = LIFT_BINS,
                     own: int = LIFT_OWN_BINS, floor: float = 5e-3) -> np.ndarray:
    """Per probe pixel, the k most informative coarse bins (index z marks
    unused slots): the pixel's own top weight bins first, then the strongest
    bins of the 3x3 neighborhood pool.

    Own bins take priority so a weak graze is never crowded out by a
    neighbor's strong surface; the pool still covers silhouettes, where the
    surface depth slides several bins between adjacent parents.
    """
    pz, ph, pw = probe.weights.shape
    n = ph * pw
    pdf = normalize_pdf(probe.weights.reshape(pz, -1).T)
    grid = pdf.reshape(ph, pw, pz)
    padded = np.pad(grid, ((1, 1), (1, 1), (0, 0)), mode="edge")
    pooled = grid.copy()
    for dy in range(3):
        for dx in range(3):
            np.maximum(pooled, padded[dy:dy + ph, dx:dx + pw], out=pooled)
    pooled = pooled.reshape(n, pz)

    own_order = np.argsort(-pdf, axis=1, kind="stable")[:, :own]
    own_ok = np.take_along_axis(pdf, own_order, axis=1) >= floor
    pool_order = np.argsort(-pooled, axis=1, kind="stable")[:, :k]
    pool_ok = np.take_along_axis(pooled, pool_order, axis=1) >= floor

    cand = np.concatenate([own_order, pool_order], axis=1)
    ok = np.concatenate([own_ok, pool_ok], axis=1)
    out = np.full((n, k), pz, dtype=np.int64)
    taken = np.zeros((n, pz), dtype=bool)
    count = np.zeros(n, dtype=np.int64)
    ridx = np.arange(n)
    for j in range(cand.shape[1]):
        b = cand[:, j]
        use = ok[:, j] & ~taken[ridx, b] & (count < k)
        rows = np.flatnonzero(use)
        out[rows, count[rows]] = b[rows]
        taken[rows, b[rows]] = True
        count[rows] += 1
    return out


def _merge_probe_lift(t, bin_idx, par, probe_tn, probe_tf,
                      t_near, t_far, width_bins, z):
    """Append the parent probe ray's coarse sample positions at the given bins
    to each pixel's sample set; deltas re-derived and clipped."""
    p_tn = probe_tn[par][:, None]
    p_w = ((probe_tf - probe_tn)[par] / z)[:, None]
    t_lift = p_tn + (bin_idx + 0.5) * p_w
    t_lift = np.where(bin_idx == z, t_far[:, None], t_lift)
    t_lift = np.clip(t_lift, t_near[:, None], t_far[:, None])

    t_all = np.sort(np.concatenate([t, t_lift], axis=1), axis=1)
    delta = np.empty_like(t_all)
    delta[:, :-1] = t_all[:, 1:] - t_all[:, :-1]
    delta[:, -1] = t_far - t_all[:, -1]
    delta = np.minimum(delta, width_bins[:, None])
    return t_all, delta


def coverage_mask(prop: ProposalField, height: int, width: int,
                  threshold: float = 0.05) -> np.ndarray:
    """Pixels whose own parent probe ray carries opacity.

    Empty rays render black at any budget and their proposals are never
    supervised, so they must not absorb the boosted-budget ranking; the
    uncertain pixels that deserve the boost share a parent with real signal.
    """
    acc = prop.probe.weights.sum(axis=0)
    lifted = upsample_nearest(acc[None], prop.factor)[0]
    return (lifted > threshold).reshape(height * width)


def adaptive_pipeline_render(scene: SceneOracle, camera: Camera,
                             prop: ProposalField, budget: SampleBudget,
                             seed: int = 0, tau: float = 0.98,
                             score_bins: int = 16, merge_probe: bool = True,
                             workers: int = 1) -> tuple[RenderOutput, np.ndarray]:
    """Full low-sample render: leftover-mass scores pick boosted pixels, robust
    stratified sampling draws each pixel's budget. Returns (render, spp map)."""
    h, w = camera.height, camera.width
    scores = adaptive_score_grid(prop.pdf, score_bins)
    scores = (scores * coverage_mask(prop, h, w)).reshape(h, w)
    spp_map = allocate_budgets(scores, budget)
    samples = robust_samples(prop, spp_map.ravel(), seed, tau, h, w,
                             merge_probe=merge_probe)
    return render_full(scene, camera, samples, workers=workers), spp_map


def run_bench(spec: BenchSpec, out_dir=None, write_previews: bool = True
              ) -> tuple[list[MetricRow], str]:
    """Run the benchmark matrix and return (rows, csv_text).

    With out_dir set, writes bench.csv plus PFM/PPM previews of trial 0.
    """
    from pathlib import Path

    from .imageio import write_pfm, write_ppm

    scene, camera = spec.scene, spec.camera
    reference = render_reference(scene, camera, spec.reference_spp,
                                 seed=derive_seed(spec.seed, 999),
                                 workers=spec.workers)
    needs_proposal = any(m != "uniform-dense" for m in spec.methods)
    prop = None
    if needs_proposal:
        prop = prepare_proposals(scene, camera, spec.z_bins, spec.probe_factor,
                                 spec.proposal_source, spec.checkpoint,
                                 spec.hidden_channels, spec.lift_blur_sigma,
                                 probe_mode=spec.probe_mode, seed=spec.seed,
                                 workers=spec.workers)
    else:
        _, _, t_near, t_far = camera_geometry(camera)

    rows: list[MetricRow] = []
    previews = {}
    for method in spec.methods:
        for spp in spec.spp_list:
            for trial in range(spec.trials):
                seed_t = derive_seed(spec.seed, _METHOD_IDS[method], spp, trial)
                t0 = time.perf_counter()
                if method == "uniform-dense":
                    out = render_uniform(scene, camera, spp, mode="stratified",
                                         seed=seed_t, workers=spec.workers)
                else:
                    samples = method_samples(method, prop, spp, seed_t, spec.tau,
                                             camera.height, camera.width,
                                             merge_probe=spec.merge_probe)
                    out = render_full(scene, camera, samples, workers=spec.workers)
                ms = 0.0 if spec.deterministic else (time.perf_counter() - t0) * 1e3
                rows.append(MetricRow(
                    method=method, spp=spp, trial=trial,
                    psnr=psnr(out.radiance, reference.radiance),
                    worst10=worst_percentile_psnr(out.radiance, reference.radiance, 10.0),
                    worst1=worst_percentile_psnr(out.radiance, reference.radiance, 1.0),
                    worst01=worst_percentile_psnr(out.radiance, reference.radiance, 0.1),
                    ms=ms))
                if trial == 0:
                    previews[(method, spp)] = out.radiance
    csv_text = rows_to_csv(rows)

    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "bench.csv").write_text(csv_text, encoding="ascii")
        if write_previews:
            write_pfm(out_path / "reference.pfm", reference.radiance)
            write_ppm(out_path / "reference.ppm", reference.radiance)
            for (method, spp), img in previews.items():
                stem = f"{scene.name}_{method}_spp{spp}"
                write_pfm(out_path / f"{stem}.pfm", img)
                write_ppm(out_path / f"{stem}.ppm", img)
    return rows, csv_text
