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
import time
from dataclasses import dataclass

import numpy as np

from .config import Config, ConfigError
from .geometry import Camera
from .metrics import psnr, worst_percentile_psnr
from .proposal import (UPSCALE, CheckpointError, ProposalNet, TrainConfig,
                       blur_bins, live_pixels, load_checkpoint, max_pool3x3,
                       parent_rows, probe_camera)
from .render import (PixelSamples, ProbeOutput, RenderOutput, bin_midpoints,
                     camera_geometry, dense_weights, render_full, render_probe,
                     render_reference, render_uniform)
from .sampling import (SampleBudget, adaptive_score_grid, allocate_budgets,
                       block_uniforms, budget_sample_grid, derive_seed,
                       interval_deltas, inverse_cdf_sample_grid,
                       normalize_pdf, nucleus_support_grid,
                       stratified_u_block, top_k_mask)
from .scenes import BETA_MAX, BETA_MIN, SceneOracle, make_scene

METHODS = ("uniform-dense", "unstratified", "stratified", "robust")
_METHOD_IDS = {m: i for i, m in enumerate(METHODS)}

CSV_HEADER = "method,spp,trial,psnr,worst10,worst1,worst01,ms"
LIFT_BLUR_SIGMA = 1.0  # probe-lift's Gaussian blur along depth, in bins


@dataclass
class ProposalField:
    """Proposal PDFs at full resolution, held as the distinct rows plus the
    row each pixel reads, and the probe they came from, which renders at
    1/UPSCALE of the full resolution per side. A pixel is idle when its row
    is all-zero or it is not live (proposal.live_pixels); the checkpoint
    source points every pixel that is not live at one shared uniform row."""

    rows: np.ndarray       # (M, Z) C-order, normalized or all-zero
    index: np.ndarray      # (N,) each pixel's row of `rows`
    probe: ProbeOutput
    t_near: np.ndarray     # (N,) full-res ray intervals
    t_far: np.ndarray

    @property
    def pdf(self) -> np.ndarray:
        """(N, Z) per-pixel PDFs, gathered on every read. The sampler's
        stages run once per row of `rows` and reach pixels through `index`."""
        return self.rows[self.index]


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
    reference_spp: int
    tau: float
    budget: SampleBudget
    merge_probe: bool
    proposal_source: str
    checkpoint: str
    hidden_channels: int
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
        _require(0 <= seed < 2**64, "seed must be in [0, 2**64)")
        _require(workers >= 1, "workers must be >= 1")
        beta = cfg.get_opt_float("scene.beta")
        _require(beta is None or BETA_MIN <= beta <= BETA_MAX,
                 f"scene.beta must be in [{BETA_MIN}, {BETA_MAX}]")
        scene = _build("scene", make_scene, name=cfg.get("scene.name"), beta=beta)
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
        _require(camera.height % UPSCALE == 0 and camera.width % UPSCALE == 0,
                 f"camera.height and camera.width must be multiples of {UPSCALE}"
                 f" (the probe renders at 1/{UPSCALE} of them)")

        z_bins = cfg.get_int("render.z_bins")
        _require(z_bins >= 2, "render.z_bins must be >= 2")
        reference_spp = cfg.get_int("render.reference_spp")
        _require(reference_spp >= 2, "render.reference_spp must be >= 2")
        tau = cfg.get_float("sampler.tau")
        _require(0.0 < tau <= 1.0, "sampler.tau must be in (0, 1]")
        _require(budget.base_spp < z_bins, "sampler.base_spp must be below render.z_bins")
        source = cfg.get("proposal.source")
        _require(source in ("probe-lift", "checkpoint", "oracle-full"),
                 "proposal.source must be probe-lift, checkpoint or oracle-full")
        hidden = cfg.get_int("proposal.hidden_channels")
        _require(hidden >= 1, "proposal.hidden_channels must be >= 1")

        training = TrainConfig(steps=cfg.get_int("train.steps"),
                               lr=cfg.get_float("train.lr"),
                               patch=cfg.get_int("train.patch"), z_bins=z_bins)
        _require(training.steps >= 1, "train.steps must be >= 1")
        lr_max = float(np.finfo(np.float32).max)  # the net and its Adam update are float32
        _require(0.0 < training.lr <= lr_max, f"train.lr must be in (0, {lr_max}]")
        _require(training.patch >= 1, "train.patch must be >= 1")

        methods = tuple(cfg.get_list("bench.methods"))
        _require(len(methods) >= 1, "bench.methods must name at least one method")
        for m in methods:
            _require(m in METHODS, f"unknown sampling method {m!r}; have {METHODS}")
        spp_list = tuple(cfg.get_int_list("bench.spp"))
        _require(min(spp_list, default=0) >= 1, "bench.spp must list values >= 1")
        trials = cfg.get_int("bench.trials")
        _require(trials >= 1, "bench.trials must be >= 1")
        return cls(scene=scene, camera=camera, z_bins=z_bins,
                   reference_spp=reference_spp, tau=tau, budget=budget,
                   merge_probe=cfg.get_bool("sampler.merge_probe_samples"),
                   proposal_source=source, checkpoint=cfg.get("proposal.checkpoint"),
                   hidden_channels=hidden, training=training, methods=methods,
                   spp_list=spp_list, trials=trials, seed=seed, workers=workers,
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


_TRAIN_HINT = ("train one with `volsampler train-proposal`, or set "
               "proposal.source=probe-lift for sampler-free benchmarking")


def _load_net(pipe: Pipeline) -> ProposalNet:
    """The configured checkpoint's net; CheckpointError when there is none
    named, none at the path, or a malformed one."""
    if not pipe.checkpoint:
        raise CheckpointError(
            f"proposal.source=checkpoint needs proposal.checkpoint; {_TRAIN_HINT}")
    net = ProposalNet(z_bins=pipe.z_bins, hidden=pipe.hidden_channels)
    try:
        load_checkpoint(net, pipe.checkpoint)
    except FileNotFoundError:
        raise CheckpointError(
            f"checkpoint {pipe.checkpoint!r} not found; {_TRAIN_HINT}") from None
    except CheckpointError as e:
        raise CheckpointError(
            f"checkpoint {pipe.checkpoint!r} is unusable: {e}") from None
    return net


def prepare_proposals(pipe: Pipeline, net: ProposalNet | None = None) -> ProposalField:
    """Build the proposal PDFs at the target resolution: for probe-lift one
    row per probe pixel, which its children share; for oracle-full one row
    per pixel; for the checkpoint one row per live pixel, which the net
    computes, plus the uniform row every other pixel shares (predict with
    shared). With proposal.source=checkpoint, `net` (when given) stands in
    for the configured checkpoint file."""
    z = pipe.z_bins
    if pipe.proposal_source == "checkpoint" and net is None:
        net = _load_net(pipe)
    probe = render_probe(pipe.scene, probe_camera(pipe.camera), z,
                         workers=pipe.workers)
    _, _, t_near, t_far = camera_geometry(pipe.camera)

    if pipe.proposal_source == "probe-lift":
        # Sampler-free fallback: each child pixel inherits its parent probe
        # ray's row, built once per parent and blurred along bins to hedge
        # the parallax between parent and child rays. Imperfect at depth
        # edges by construction; the checkpoint source is the full-quality path.
        blurred = blur_bins(probe.weights.reshape(z, -1), LIFT_BLUR_SIGMA)
        rows = normalize_pdf(blurred.T)
        index = parent_rows(pipe.camera.height, pipe.camera.width)
    elif pipe.proposal_source == "oracle-full":
        dense = dense_weights(pipe.scene, pipe.camera, z, workers=pipe.workers)
        rows = normalize_pdf(dense.reshape(z, -1).T)
        index = np.arange(len(rows))
    elif pipe.proposal_source == "checkpoint":
        rows, index = net.predict(probe, shared=True)
    else:
        raise ConfigError(f"unknown proposal source {pipe.proposal_source!r}")
    return ProposalField(rows=np.ascontiguousarray(rows), index=index, probe=probe,
                         t_near=t_near, t_far=t_far)


def method_samples(method: str, prop: ProposalField, spp: int, seed: int,
                   pipe: Pipeline) -> PixelSamples:
    """Per-pixel sample positions for one proposal-guided method at a flat
    budget (uniform-dense needs no proposal: render.render_uniform); the
    robust method is robust_samples at spp everywhere."""
    n = prop.index.size
    stream = _METHOD_IDS[method] + 11
    if method in ("unstratified", "stratified"):
        if method == "unstratified":
            u = np.sort(block_uniforms(seed, stream, (n, spp)), axis=1)
        else:
            u = stratified_u_block(n, spp, seed, stream)
        t = inverse_cdf_sample_grid(prop.rows, prop.t_near, prop.t_far, u, prop.index)
        return PixelSamples(pipe.camera.height, pipe.camera.width,
                            [(np.arange(n), t, None)])

    if method == "robust":
        return robust_samples(prop, np.full(n, spp, dtype=np.int64), seed, pipe)
    raise ConfigError(f"unknown sampling method {method!r}")


def robust_samples(prop: ProposalField, spp_map: np.ndarray, seed: int,
                   pipe: Pipeline) -> PixelSamples:
    """Nucleus-filtered (pipe.tau) stratified budgeting, grouped by per-pixel
    budget.

    Idle pixels (all-zero proposal row, or no opacity on the parent probe
    ray) render black at any budget: they form one group of width 0 and
    leave their spp_map budget unspent. With pipe.merge_probe, every other
    pixel also integrates its parent probe ray's coarse samples at the bins
    _probe_lift_mask picks, realizing the probe's amortized sample share:
    its sample count is its budget (spp_map counts the new samples only)
    plus the number of bins its parent lifts that lie before its own t_far,
    and rows are grouped by both. Without the merge every pixel lifts none.
    The samples of the robust method and of the adaptive render get their
    quadrature delta here: the gap to the next sample (the last one's to
    t_far), clipped to one bin width. The unstratified and stratified
    methods pass no deltas, so field_weights takes their gaps unclipped.

    The nucleus, the thinning and the allocation run once per distinct
    proposal row (per budget); per-pixel intervals and variates enter after.
    """
    n, z = prop.index.size, prop.rows.shape[1]
    height, width = pipe.camera.height, pipe.camera.width
    # the masks come back one row per pixel, as perfbench's trace hook reads
    # them; the budget loop takes each distinct row's mask from its first pixel
    support = nucleus_support_grid(prop.rows, pipe.tau, prop.index)
    idle = ~prop.rows.any(axis=1)[prop.index] | ~live_pixels(prop.probe, height, width)
    bin_width = (prop.t_far - prop.t_near) / z

    if pipe.merge_probe:
        # the parent probe ray's samples (its bin_midpoints) at its lifted
        # bins, ascending; one at or past the pixel's t_far would sit there
        # with delta 0 and weigh nothing, so it is not taken
        probe_t = bin_midpoints(prop.probe.t_near.ravel(), prop.probe.t_far.ravel(), z)
        lift_t = np.sort(np.where(_probe_lift_mask(prop.probe.weights), probe_t, np.inf),
                         axis=1)[:, :LIFT_BINS][parent_rows(height, width)]
    else:
        lift_t = np.empty((n, 0))
    lift_count = np.sum(lift_t < prop.t_far[:, None], axis=1)

    groups = []
    for s in np.unique(spp_map):
        pix = np.flatnonzero((spp_map == s) & ~idle)
        if pix.size:
            xi = block_uniforms(seed, 23, (n, int(s)))[pix]
            distinct, first, inverse = np.unique(prop.index[pix], return_index=True,
                                                 return_inverse=True)
            t = budget_sample_grid(support[pix[first]], prop.rows[distinct], int(s),
                                   prop.t_near[pix], prop.t_far[pix], xi, inverse)
            for c in np.unique(lift_count[pix]):
                sel = lift_count[pix] == c
                r = pix[sel]
                t_lift = np.maximum(lift_t[r, :c], prop.t_near[r, None])
                t_all = np.sort(np.concatenate([t[sel], t_lift], axis=1), axis=1)
                delta = np.minimum(interval_deltas(t_all, prop.t_far[r]),
                                   bin_width[r, None])
                groups.append((r, t_all, delta))
    pix = np.flatnonzero(idle)
    if pix.size:
        groups.append((pix, np.empty((pix.size, 0)), None))
    return PixelSamples(height, width, groups)


LIFT_BINS = 16
LIFT_OWN_BINS = 8
LIFT_FLOOR = 5e-3  # least normalized probe mass of a lifted bin


def _probe_lift_mask(weights: np.ndarray) -> np.ndarray:
    """Per probe pixel of a (Z, H, W) weight grid, a (H*W, Z) mask of its at
    most LIFT_BINS most informative coarse bins, each at or above LIFT_FLOOR
    in normalized mass: the pixel's own top LIFT_OWN_BINS bins first, then
    the strongest bins of its 3x3 neighborhood pool.

    Own bins take priority so a weak graze is never crowded out by a
    neighbor's strong surface; the pool still covers silhouettes, where the
    surface depth slides several bins between adjacent parents.
    """
    pz, ph, pw = weights.shape
    grid = normalize_pdf(weights.reshape(pz, -1).T).reshape(ph, pw, pz)
    pdf, pooled = grid.reshape(-1, pz), max_pool3x3(grid).reshape(-1, pz)
    mine = top_k_mask(pdf, np.full(len(pdf), LIFT_OWN_BINS)) & (pdf >= LIFT_FLOOR)
    keys = np.where(mine, np.inf, np.where(pooled >= LIFT_FLOOR, pooled, -np.inf))
    return top_k_mask(keys, np.full(len(pdf), LIFT_BINS)) & (keys > -np.inf)


COVERAGE_OPACITY = 0.05  # least parent probe opacity of a covered pixel


def coverage_mask(prop: ProposalField, height: int, width: int) -> np.ndarray:
    """Pixels whose own parent probe ray carries opacity.

    Empty rays render black at any budget and their proposals are never
    supervised, so they must not absorb the boosted-budget ranking; the
    uncertain pixels that deserve the boost share a parent with real signal.
    """
    return live_pixels(prop.probe, height, width, COVERAGE_OPACITY)


def adaptive_pipeline_render(pipe: Pipeline, prop: ProposalField
                             ) -> tuple[RenderOutput, np.ndarray]:
    """Full low-sample render: a pixel's score is the proposal mass outside
    its base_spp strongest bins, the covered pixels with the highest scores
    get the boosted budget, and robust stratified sampling draws each
    pixel's budget. Returns (render, spp map)."""
    h, w = pipe.camera.height, pipe.camera.width
    scores = adaptive_score_grid(prop.rows, pipe.budget.base_spp)[prop.index]
    scores = (scores * coverage_mask(prop, h, w)).reshape(h, w)
    spp_map = allocate_budgets(scores, pipe.budget)
    samples = robust_samples(prop, spp_map.ravel(), pipe.seed, pipe)
    return render_full(pipe.scene, pipe.camera, samples, workers=pipe.workers), spp_map


def render_method(pipe: Pipeline, prop: ProposalField | None, method: str,
                  spp: int, seed: int) -> RenderOutput:
    """One frame of a flat-budget method at spp samples per pixel;
    uniform-dense needs no proposal, and prop may then be None."""
    if method == "uniform-dense":
        return render_uniform(pipe.scene, pipe.camera, spp, seed=seed,
                              workers=pipe.workers)
    samples = method_samples(method, prop, spp, seed, pipe)
    return render_full(pipe.scene, pipe.camera, samples, workers=pipe.workers)


def run_bench(pipe: Pipeline, out_dir=None) -> tuple[list[MetricRow], str]:
    """Run the benchmark matrix and return (rows, csv_text).

    With out_dir set, writes bench.csv plus PFM/PPM previews of trial 0.
    """
    from pathlib import Path

    from .imageio import write_pfm, write_ppm

    reference = render_reference(pipe.scene, pipe.camera, pipe.reference_spp,
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
                out = render_method(pipe, prop, method, spp, seed_t)
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
        write_pfm(out_path / "reference.pfm", reference.radiance)
        write_ppm(out_path / "reference.ppm", reference.radiance)
        for (method, spp), img in previews.items():
            stem = f"{pipe.scene.name}_{method}_spp{spp}"
            write_pfm(out_path / f"{stem}.pfm", img)
            write_ppm(out_path / f"{stem}.ppm", img)
    return rows, csv_text
