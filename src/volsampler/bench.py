"""Benchmark orchestration: the configured Pipeline every entry point builds
from the config, sampling-method comparisons scored against the 384-sample
reference, CSV output, and the adaptive proposal-guided render pipeline.

Methods:
    uniform-dense  stratified-uniform positions, no proposal (render_uniform)
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
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import Config, ConfigError
from .geometry import Camera
from .metrics import psnr, worst_percentile_psnr
from .proposal import (UPSCALE, CheckpointError, ProposalNet, TrainConfig,
                       blur_bins, load_checkpoint, probe_camera)
from .render import (PixelSamples, ProbeOutput, RenderOutput, camera_geometry,
                     render_full, render_probe, render_reference,
                     render_uniform)
from .sampling import (SampleBudget, adaptive_score_grid, allocate_budgets,
                       block_uniforms, budget_sample_grid, derive_seed,
                       inverse_cdf_sample_grid, normalize_pdf,
                       nucleus_support_grid, stratified_u_block,
                       upsample_nearest)
from .scenes import BETA_MAX, BETA_MIN, SceneOracle, make_scene

METHODS = ("uniform-dense", "unstratified", "stratified", "robust")
_METHOD_IDS = {m: i for i, m in enumerate(METHODS)}

CSV_HEADER = "method,spp,trial,psnr,worst10,worst1,worst01,ms"


class MissingCheckpointError(RuntimeError):
    """Raised when proposal.source=checkpoint has no usable checkpoint file:
    none named, none at the path, or a malformed one."""


@dataclass
class ProposalField:
    """Per-pixel proposal PDFs at full resolution plus the probe they came
    from, which renders at 1/UPSCALE of the full resolution per side."""

    pdf: np.ndarray        # (N, Z) rows normalized; all-zero rows = background
    probe: ProbeOutput
    t_near: np.ndarray     # (N,) full-res ray intervals
    t_far: np.ndarray
    z: int

    def parent_rows(self, height: int, width: int) -> np.ndarray:
        """Full-res pixel -> flattened probe pixel index (nearest neighbor)."""
        rows = (np.arange(height) // UPSCALE)[:, None] * (width // UPSCALE)
        cols = (np.arange(width) // UPSCALE)[None, :]
        return (rows + cols).ravel()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _build(what: str, make, **kwargs):
    """make(**kwargs), its ValueError reported as a ConfigError."""
    try:
        return make(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{what}: {e}") from None


@dataclass(frozen=True)
class Pipeline:
    """The configured pipeline: scene, target camera (the probe renders at
    1/UPSCALE of it), proposal source, sampler and adaptive budget, the
    benchmark matrix and the proposal net's training configuration.

    Build it with from_config, which reads every config key once and checks
    every range; the functions of this module take it whole.
    """

    scene: SceneOracle
    camera: Camera
    z_bins: int
    probe_mode: str
    reference_spp: int
    tau: float
    score_bins: int
    budget: SampleBudget
    merge_probe: bool
    proposal_source: str
    checkpoint: str
    hidden_channels: int
    lift_blur_sigma: float
    training: TrainConfig
    methods: tuple
    spp_list: tuple
    trials: int
    seed: int = 0
    workers: int = 1
    deterministic: bool = False  # zero the ms column of bench.csv

    @classmethod
    def from_config(cls, cfg: Config, seed: int = 0, workers: int = 1,
                    deterministic: bool = False) -> "Pipeline":
        """Every invalid value raises ConfigError."""
        scene = _build("scene", make_scene, name=cfg.get("scene.name"),
                       **{k: cfg.get_opt_float(f"scene.{k}")
                          for k in ("beta", "beta_band", "radius", "wall_z")})
        camera = _build("camera", Camera, position=cfg.get_vec3("camera.position"),
                        look_at=cfg.get_vec3("camera.look_at"),
                        up=cfg.get_vec3("camera.up"),
                        fov_y=cfg.get_float("camera.fov"),
                        height=cfg.get_int("camera.height"),
                        width=cfg.get_int("camera.width"))
        budget = _build("sampler budget", SampleBudget,
                        base_spp=cfg.get_int("sampler.base_spp"),
                        boosted_spp=cfg.get_int("sampler.boosted_spp"),
                        boosted_fraction=cfg.get_float("sampler.boosted_fraction"))
        sp = scene.params
        _require(BETA_MIN <= sp["beta"] <= BETA_MAX,
                 f"scene.beta must be in [{BETA_MIN}, {BETA_MAX}]")
        _require(0.0 <= sp["beta_band"] <= BETA_MAX,
                 f"scene.beta_band must be in [0, {BETA_MAX}]")
        _require(0.0 < sp["radius"] < math.inf, "scene.radius must be positive")
        _require(math.isfinite(sp["wall_z"]), "scene.wall_z must be finite")
        _require(camera.height % UPSCALE == 0 and camera.width % UPSCALE == 0,
                 f"camera.height and camera.width must be multiples of {UPSCALE}"
                 f" (the probe renders at 1/{UPSCALE} of them)")

        z_bins = cfg.get_int("render.z_bins")
        _require(z_bins >= 2, "render.z_bins must be >= 2")
        probe_mode = cfg.get("render.probe_mode")
        _require(probe_mode in ("midpoint", "stratified"),
                 "render.probe_mode must be midpoint or stratified")
        reference_spp = cfg.get_int("render.reference_spp")
        _require(reference_spp >= 2, "render.reference_spp must be >= 2")
        tau = cfg.get_float("sampler.tau")
        _require(0.0 < tau <= 1.0, "sampler.tau must be in (0, 1]")
        score_bins = cfg.get_int("sampler.score_bins")
        _require(score_bins >= 1, "sampler.score_bins must be >= 1")
        source = cfg.get("proposal.source")
        _require(source in ("probe-lift", "checkpoint", "oracle-full"),
                 "proposal.source must be probe-lift, checkpoint or oracle-full")
        hidden = cfg.get_int("proposal.hidden_channels")
        _require(hidden >= 1, "proposal.hidden_channels must be >= 1")
        lift_blur_sigma = cfg.get_float("proposal.lift_blur_sigma")
        _require(0.0 <= lift_blur_sigma < math.inf,
                 "proposal.lift_blur_sigma must be finite and >= 0")

        training = TrainConfig(steps=cfg.get_int("train.steps"),
                               lr=cfg.get_float("train.lr"),
                               lr_end_factor=cfg.get_float("train.lr_end_factor"),
                               adam_beta1=cfg.get_float("train.adam_beta1"),
                               adam_beta2=cfg.get_float("train.adam_beta2"),
                               patch=cfg.get_int("train.patch"),
                               blur_sigma=cfg.get_float("train.blur_sigma"),
                               blur_radius=cfg.get_int("train.blur_radius"),
                               suppress_eps=cfg.get_float("train.suppress_eps"),
                               z_bins=z_bins, probe_mode=probe_mode)
        _require(training.steps >= 1, "train.steps must be >= 1")
        _require(0.0 < training.lr < math.inf, "train.lr must be positive")
        _require(0.0 <= training.lr_end_factor <= 1.0, "train.lr_end_factor must be in [0, 1]")
        _require(0.0 <= training.adam_beta1 < 1.0 and 0.0 <= training.adam_beta2 < 1.0,
                 "train.adam_beta1 and train.adam_beta2 must be in [0, 1)")
        _require(training.patch >= 1, "train.patch must be >= 1")
        _require(0.0 <= training.blur_sigma < math.inf, "train.blur_sigma must be finite and >= 0")
        _require(training.blur_radius >= 0, "train.blur_radius must be >= 0")
        _require(0.0 <= training.suppress_eps < math.inf,
                 "train.suppress_eps must be finite and >= 0")

        methods = tuple(cfg.get_list("bench.methods"))
        for m in methods:
            _require(m in METHODS, f"unknown sampling method {m!r}; have {METHODS}")
        spp_list = tuple(cfg.get_int_list("bench.spp"))
        _require(all(s >= 1 for s in spp_list), "bench.spp values must be >= 1")
        trials = cfg.get_int("bench.trials")
        _require(trials >= 1, "bench.trials must be >= 1")
        return cls(scene=scene, camera=camera, z_bins=z_bins, probe_mode=probe_mode,
                   reference_spp=reference_spp, tau=tau, score_bins=score_bins,
                   budget=budget,
                   merge_probe=cfg.get_bool("sampler.merge_probe_samples"),
                   proposal_source=source, checkpoint=cfg.get("proposal.checkpoint"),
                   hidden_channels=hidden, lift_blur_sigma=lift_blur_sigma,
                   training=training, methods=methods, spp_list=spp_list,
                   trials=trials, seed=seed, workers=workers,
                   deterministic=deterministic)


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


_TRAIN_HINT = ("train one with `volsampler train-proposal`, or set "
               "proposal.source=probe-lift for sampler-free benchmarking")


def _load_net(pipe: Pipeline) -> ProposalNet:
    if not pipe.checkpoint:
        raise MissingCheckpointError(
            f"proposal.source=checkpoint needs proposal.checkpoint; {_TRAIN_HINT}")
    net = ProposalNet(z_bins=pipe.z_bins, hidden=pipe.hidden_channels)
    try:
        load_checkpoint(net, pipe.checkpoint)
    except FileNotFoundError:
        raise MissingCheckpointError(
            f"checkpoint {pipe.checkpoint!r} not found; {_TRAIN_HINT}") from None
    except CheckpointError as e:
        raise MissingCheckpointError(
            f"checkpoint {pipe.checkpoint!r} is unusable: {e}") from None
    return net


def prepare_proposals(pipe: Pipeline, net: ProposalNet | None = None) -> ProposalField:
    """Build per-pixel proposal PDFs at the target resolution. With
    proposal.source=checkpoint, `net` (when given) stands in for the
    configured checkpoint file."""
    z = pipe.z_bins
    if pipe.proposal_source == "checkpoint" and net is None:
        net = _load_net(pipe)
    probe = render_probe(pipe.scene, probe_camera(pipe.camera), z,
                         mode=pipe.probe_mode, seed=pipe.seed, workers=pipe.workers)
    _, _, t_near, t_far = camera_geometry(pipe.camera)

    if pipe.proposal_source == "probe-lift":
        # Sampler-free fallback: each child pixel inherits its parent probe
        # ray's distribution, blurred along bins to hedge the parallax between
        # parent and child rays. Imperfect at depth edges by construction; the
        # trained checkpoint source is the full-quality path.
        lifted = upsample_nearest(probe.weights, UPSCALE)
        if pipe.lift_blur_sigma > 0.0:
            lifted = blur_bins(lifted, pipe.lift_blur_sigma)
        pdf = normalize_pdf(lifted.reshape(z, -1).T)
    elif pipe.proposal_source == "oracle-full":
        dense = render_probe(pipe.scene, pipe.camera, z, mode=pipe.probe_mode,
                             seed=pipe.seed, workers=pipe.workers)
        pdf = normalize_pdf(dense.weights.reshape(z, -1).T)
    elif pipe.proposal_source == "checkpoint":
        pdf = net.predict(probe).reshape(z, -1).T.copy()
    else:
        raise ConfigError(f"unknown proposal source {pipe.proposal_source!r}")
    return ProposalField(pdf=pdf, probe=probe, t_near=t_near, t_far=t_far, z=z)


def _fallback_rows(pdf: np.ndarray) -> np.ndarray:
    return pdf.sum(axis=1) <= 0.0


def method_samples(method: str, prop: ProposalField, spp: int, seed: int,
                   tau: float = 0.98, height: int = 0, width: int = 0,
                   merge_probe: bool = True) -> PixelSamples:
    """Per-pixel sample positions for one proposal-guided method at a flat
    budget (uniform-dense needs no proposal: render.render_uniform).

    The robust method always carries its probe share: the parent ray's coarse
    samples at the surviving support bins join the integral (the spp count
    covers the new samples, matching the probe's amortized-cost accounting).
    """
    n = prop.pdf.shape[0]
    stream = _METHOD_IDS[method] + 11
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
            xi = block_uniforms(seed, 23, (n, int(s)))[rows]
            t, delta = budget_sample_grid(support[rows], prop.pdf[rows], int(s),
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
    lifted = upsample_nearest(acc[None], UPSCALE)[0]
    return (lifted > threshold).reshape(height * width)


def adaptive_pipeline_render(pipe: Pipeline, prop: ProposalField
                             ) -> tuple[RenderOutput, np.ndarray]:
    """Full low-sample render: leftover-mass scores pick boosted pixels, robust
    stratified sampling draws each pixel's budget. Returns (render, spp map)."""
    _require(pipe.score_bins < pipe.z_bins,
             "sampler.score_bins must be below render.z_bins")
    h, w = pipe.camera.height, pipe.camera.width
    scores = adaptive_score_grid(prop.pdf, pipe.score_bins)
    scores = (scores * coverage_mask(prop, h, w)).reshape(h, w)
    spp_map = allocate_budgets(scores, pipe.budget)
    samples = robust_samples(prop, spp_map.ravel(), pipe.seed, pipe.tau, h, w,
                             merge_probe=pipe.merge_probe)
    return render_full(pipe.scene, pipe.camera, samples, workers=pipe.workers), spp_map


def run_bench(pipe: Pipeline, out_dir=None, write_previews: bool = True
              ) -> tuple[list[MetricRow], str]:
    """Run the benchmark matrix and return (rows, csv_text).

    With out_dir set, writes bench.csv plus PFM/PPM previews of trial 0.
    """
    from pathlib import Path

    from .imageio import write_pfm, write_ppm

    scene, camera = pipe.scene, pipe.camera
    reference = render_reference(scene, camera, pipe.reference_spp,
                                 seed=derive_seed(pipe.seed, 999),
                                 workers=pipe.workers)
    prop = (prepare_proposals(pipe)
            if any(m != "uniform-dense" for m in pipe.methods) else None)

    rows: list[MetricRow] = []
    previews = {}
    for method in pipe.methods:
        for spp in pipe.spp_list:
            for trial in range(pipe.trials):
                seed_t = derive_seed(pipe.seed, _METHOD_IDS[method], spp, trial)
                t0 = time.perf_counter()
                if method == "uniform-dense":
                    out = render_uniform(scene, camera, spp, mode="stratified",
                                         seed=seed_t, workers=pipe.workers)
                else:
                    samples = method_samples(method, prop, spp, seed_t, pipe.tau,
                                             camera.height, camera.width,
                                             merge_probe=pipe.merge_probe)
                    out = render_full(scene, camera, samples, workers=pipe.workers)
                ms = 0.0 if pipe.deterministic else (time.perf_counter() - t0) * 1e3
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
