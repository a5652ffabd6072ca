"""Layer boundaries of the program, the taps every run needs, and the
per-layer metrics computed from a traced run.

Span names are `<module>.<function>`; the benchmark's own operations are the
root spans `op.*`. A `.ms` metric is the inclusive time of a function's spans,
a `.self_ms` metric the time they spend outside their child spans, and each
comes with a `.calls` count. All per-layer figures are totals over one traced
run, which is the set-up plus exactly one round of the workload.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from spans import Instruments, Tracer

# (name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("render.probe.ms", "ms", "lower"),
    ("render.probe.calls", "count", "lower"),
    ("render.full.self_ms", "ms", "lower"),
    ("render.full.calls", "count", "lower"),
    ("render.reference.self_ms", "ms", "lower"),
    ("render.reference.calls", "count", "lower"),
    ("render.camera_geometry.calls", "count", "lower"),
    ("render.points_evaluated", "count", "lower"),
    ("render.points_weighted", "count", "lower"),
    ("render.weighted_point_ratio", "ratio", "higher"),
    ("scenes.sdf.ms", "ms", "lower"),
    ("scenes.sdf.calls", "count", "lower"),
    ("scenes.beta.ms", "ms", "lower"),
    ("scenes.beta.calls", "count", "lower"),
    ("scenes.radiance.ms", "ms", "lower"),
    ("scenes.radiance.calls", "count", "lower"),
    ("sampling.nucleus_support_grid.ms", "ms", "lower"),
    ("sampling.nucleus_support_grid.calls", "count", "lower"),
    ("sampling.adaptive_score_grid.ms", "ms", "lower"),
    ("sampling.adaptive_score_grid.calls", "count", "lower"),
    ("sampling.allocate_budgets.ms", "ms", "lower"),
    ("sampling.allocate_budgets.calls", "count", "lower"),
    ("sampling.budget_sample_grid.ms", "ms", "lower"),
    ("sampling.budget_sample_grid.calls", "count", "lower"),
    ("sampling.inverse_cdf_sample_edges.ms", "ms", "lower"),
    ("sampling.inverse_cdf_sample_edges.calls", "count", "lower"),
    ("sampling.block_uniforms.ms", "ms", "lower"),
    ("sampling.block_uniforms.calls", "count", "lower"),
    ("sampling.block_uniforms.values", "count", "lower"),
    ("sampling.support_bins_mean", "bins", "lower"),
    ("bench.prepare_proposals.self_ms", "ms", "lower"),
    ("bench.prepare_proposals.calls", "count", "lower"),
    ("bench.robust_samples.self_ms", "ms", "lower"),
    ("bench.robust_samples.calls", "count", "lower"),
    ("bench.coverage_mask.ms", "ms", "lower"),
    ("bench.coverage_mask.calls", "count", "lower"),
    ("bench.budget_spp_mean", "points/pixel", "lower"),
    ("bench.lift_samples_per_pixel", "points/pixel", "lower"),
    ("bench.lift_slots_at_far_per_pixel", "points/pixel", "lower"),
    ("proposal.predict.ms", "ms", "lower"),
    ("proposal.predict.calls", "count", "lower"),
    ("proposal.load_checkpoint.ms", "ms", "lower"),
    ("proposal.load_checkpoint.calls", "count", "lower"),
    ("proposal.checkpoint_bytes", "bytes", "lower"),
    ("proposal.forward.ms", "ms", "lower"),
    ("proposal.forward.calls", "count", "lower"),
    ("proposal.backward.ms", "ms", "lower"),
    ("proposal.backward.calls", "count", "lower"),
    ("proposal.render_gt_patch.ms", "ms", "lower"),
    ("proposal.render_gt_patch.calls", "count", "lower"),
    ("proposal.build_target.ms", "ms", "lower"),
    ("proposal.build_target.calls", "count", "lower"),
    ("proposal.train_step.self_ms", "ms", "lower"),
    ("proposal.train_step.calls", "count", "lower"),
    ("proposal.supervised_logit_ratio", "ratio", "higher"),
    ("nn.conv2d_forward.ms", "ms", "lower"),
    ("nn.conv2d_forward.calls", "count", "lower"),
    ("nn.conv2d_backward.ms", "ms", "lower"),
    ("nn.conv2d_backward.calls", "count", "lower"),
    ("nn.upsample.ms", "ms", "lower"),
    ("nn.upsample.calls", "count", "lower"),
    ("nn.softmax_ce.ms", "ms", "lower"),
    ("nn.softmax_ce.calls", "count", "lower"),
    ("nn.adam_step.ms", "ms", "lower"),
    ("nn.adam_step.calls", "count", "lower"),
    ("nn.conv_gflop_per_step", "GFLOP", "lower"),
    ("imageio.write.ms", "ms", "lower"),
    ("imageio.write.calls", "count", "lower"),
    ("imageio.bytes_written", "bytes", "lower"),
    ("cli.render.self_ms", "ms", "lower"),
    ("cli.render.calls", "count", "lower"),
    ("trace.frame.ms", "ms", "lower"),
    ("trace.train_step.ms", "ms", "lower"),
    ("trace.reference_frame.ms", "ms", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


@dataclass
class Taps:
    """What the always-on hooks capture: field evaluations and the latest
    outputs of the adaptive pipeline, plus per-step training times."""

    points: int = 0
    prop: object = None
    render: object = None
    spp_map: object = None
    samples: object = None
    step_s: list = field(default_factory=list)


@dataclass
class LayerStats:
    """Counts gathered by trace-only hooks."""

    points: int = 0
    weighted: int = 0
    uniforms: int = 0
    support: object = None          # last nucleus mask (N, Z)
    support_means: list = field(default_factory=list)
    budget_means: list = field(default_factory=list)
    lift_per_px: list = field(default_factory=list)
    far_per_px: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    bytes_written: int = 0
    train_flops: float = 0.0
    logits_hw: int = 0
    logit_ratios: list = field(default_factory=list)


def install_taps(ins: Instruments, taps: Taps) -> None:
    """Hooks every run needs: field-evaluation counts and the outputs the
    benchmark checks. They cost a few Python calls per frame."""
    from volsampler import bench, proposal, scenes

    def on_fields(result, dt, self, p, v):
        taps.points += int(np.shape(p)[0])

    def on_prepare(result, dt, *args, **kwargs):
        taps.prop = result

    def on_adaptive(result, dt, *args, **kwargs):
        taps.render, taps.spp_map = result

    def on_robust(result, dt, *args, **kwargs):
        taps.samples = result

    def on_step(result, dt, *args, **kwargs):
        taps.step_s.append(dt)

    ins.method(scenes.SceneOracle, "fields", "scenes.fields", on_fields)
    ins.function(bench, "prepare_proposals", "bench.prepare_proposals", on_prepare)
    ins.function(bench, "adaptive_pipeline_render", "bench.adaptive_pipeline_render",
                 on_adaptive)
    ins.function(bench, "robust_samples", "bench.robust_samples", on_robust)
    ins.function(proposal, "train_step", "proposal.train_step", on_step)


def install_layers(ins: Instruments, tracer: Tracer, stats: LayerStats) -> None:
    """Spans at every layer boundary the per-layer metrics name, with the
    hooks that count work where it happens. Install after `install_taps`."""
    from volsampler import bench, cli, imageio, nn, proposal, render, sampling, scenes

    coverage_mask = bench.coverage_mask

    def guarded(hook):
        """Count only while tracing: checks run with the tracer paused."""
        if hook is None:
            return None
        return lambda *args, **kwargs: hook(*args, **kwargs) if tracer.enabled else None

    def in_training() -> bool:
        return tracer.root_name() == "op.train"

    def on_integrate(result, dt, scene, origins, dirs, t, *args, **kwargs):
        stats.points += int(np.size(t))
        stats.weighted += int(np.count_nonzero(result["weights"] > 0.0))

    def on_uniforms(result, dt, *args, **kwargs):
        stats.uniforms += int(result.size)

    def on_nucleus(result, dt, *args, **kwargs):
        stats.support = result

    def on_robust(result, dt, prop, spp_map, *args, **kwargs):
        n = prop.pdf.shape[0]
        fg = coverage_mask(prop, result.height, result.width)
        if stats.support is not None and np.any(fg):
            stats.support_means.append(float(stats.support[fg].sum(axis=1).mean()))
        stats.budget_means.append(float(np.mean(spp_map)))
        lift = far = 0
        for rows, t, delta in result.groups:
            lift += (t.shape[1] - int(spp_map[rows[0]])) * rows.size
            if delta is not None:
                far += int(np.count_nonzero((t == prop.t_far[rows, None]) & (delta == 0.0)))
        stats.lift_per_px.append(lift / n)
        stats.far_per_px.append(far / n)

    def on_save(result, dt, net, path):
        stats.checkpoint_bytes = os.path.getsize(path)

    def on_write(result, dt, path, *args, **kwargs):
        stats.bytes_written += os.path.getsize(path)

    def on_conv_forward(result, dt, x, weight, bias):
        if in_training():
            b, _, h, w = x.shape
            stats.train_flops += 2.0 * b * weight.size * h * w

    def on_conv_backward(result, dt, dy, weight, cache):
        if in_training():
            b, _, h, w = dy.shape
            stats.train_flops += 4.0 * b * weight.size * h * w  # dW and dX

    def on_forward(result, dt, *args, **kwargs):
        stats.logits_hw = result.shape[-2] * result.shape[-1]

    def on_softmax_ce(result, dt, logits, *args, **kwargs):
        if stats.logits_hw:
            stats.logit_ratios.append(logits.shape[-2] * logits.shape[-1] / stats.logits_hw)

    for mod, attr, span, hook in [
        (render, "render_probe", "render.probe", None),
        (render, "render_full", "render.full", None),
        (render, "render_reference", "render.reference", None),
        (render, "render_uniform", "render.uniform", None),
        (render, "camera_geometry", "render.camera_geometry", None),
        (render, "integrate_batch", "render.integrate_batch", on_integrate),
        (sampling, "nucleus_support_grid", "sampling.nucleus_support_grid", on_nucleus),
        (sampling, "adaptive_score_grid", "sampling.adaptive_score_grid", None),
        (sampling, "allocate_budgets", "sampling.allocate_budgets", None),
        (sampling, "budget_sample_grid", "sampling.budget_sample_grid", None),
        (sampling, "inverse_cdf_sample_edges", "sampling.inverse_cdf_sample_edges", None),
        (sampling, "block_uniforms", "sampling.block_uniforms", on_uniforms),
        (bench, "coverage_mask", "bench.coverage_mask", None),
        (proposal, "load_checkpoint", "proposal.load_checkpoint", None),
        (proposal, "save_checkpoint", "proposal.save_checkpoint", on_save),
        (proposal, "render_gt_patch", "proposal.render_gt_patch", None),
        (proposal, "build_target", "proposal.build_target", None),
        (nn, "conv2d_forward", "nn.conv2d_forward", on_conv_forward),
        (nn, "conv2d_backward", "nn.conv2d_backward", on_conv_backward),
        (nn, "upsample_forward", "nn.upsample", None),
        (nn, "upsample_backward", "nn.upsample", None),
        (nn, "softmax_ce", "nn.softmax_ce", on_softmax_ce),
        (nn, "adam_step", "nn.adam_step", None),
        (imageio, "write_pfm", "imageio.write", on_write),
        (imageio, "write_ppm", "imageio.write", on_write),
        (cli, "cmd_render", "cli.render", None),
    ]:
        ins.function(mod, attr, span, guarded(hook))
    # robust_samples already carries the capture tap; its trace hook wraps it
    ins.function(bench, "robust_samples", None, guarded(on_robust))
    for cls, attr, span, hook in [
        (scenes.SceneOracle, "sdf", "scenes.sdf", None),
        (scenes.SceneOracle, "beta_field", "scenes.beta", None),
        (scenes.SceneOracle, "radiance", "scenes.radiance", None),
        (proposal.ProposalNet, "forward", "proposal.forward", on_forward),
        (proposal.ProposalNet, "backward", "proposal.backward", None),
        (proposal.ProposalNet, "predict", "proposal.predict", None),
    ]:
        ins.method(cls, attr, span, guarded(hook))


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def per_layer_metrics(tracer: Tracer, stats: LayerStats) -> dict[str, float]:
    """The PER_LAYER metrics taken from spans and counts, all but the traced
    timings (`trace.*.ms`, which the workload computes as it computes the
    untraced ones); a layer the workload never reaches reads 0."""
    names, parents = tracer.names, tracer.parents
    dur = tracer.durations()
    self_t = tracer.self_times()
    roots = tracer.roots_of()
    inc: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        inc[name] = inc.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_t[i]
        calls[name] = calls.get(name, 0) + 1

    m: dict[str, float] = {}

    def timed(metric: str, span: str, self_time: bool = False) -> None:
        m[metric + (".self_ms" if self_time else ".ms")] = \
            1e3 * (own if self_time else inc).get(span, 0.0)
        m[metric + ".calls"] = calls.get(span, 0)

    timed("render.probe", "render.probe")
    m["render.full.self_ms"] = 1e3 * (own.get("render.full", 0.0) + sum(
        self_t[i] for i, name in enumerate(names)
        if name == "render.integrate_batch" and parents[i] >= 0
        and names[parents[i]] == "render.full"))
    m["render.full.calls"] = calls.get("render.full", 0)
    timed("render.reference", "render.reference", self_time=True)
    frames = [i for i, p in enumerate(parents) if p < 0 and names[i] == "op.frame"]
    geo_in_frames = sum(1 for i, name in enumerate(names)
                        if name == "render.camera_geometry" and names[roots[i]] == "op.frame")
    m["render.camera_geometry.calls"] = geo_in_frames / len(frames) if frames else 0.0
    m["render.points_evaluated"] = stats.points
    m["render.points_weighted"] = stats.weighted
    m["render.weighted_point_ratio"] = stats.weighted / stats.points if stats.points else 0.0
    timed("scenes.sdf", "scenes.sdf")
    timed("scenes.beta", "scenes.beta")
    timed("scenes.radiance", "scenes.radiance")
    for fn in ("nucleus_support_grid", "adaptive_score_grid", "allocate_budgets",
               "budget_sample_grid", "inverse_cdf_sample_edges", "block_uniforms"):
        timed(f"sampling.{fn}", f"sampling.{fn}")
    m["sampling.block_uniforms.values"] = stats.uniforms
    m["sampling.support_bins_mean"] = _mean(stats.support_means)
    timed("bench.prepare_proposals", "bench.prepare_proposals", self_time=True)
    timed("bench.robust_samples", "bench.robust_samples", self_time=True)
    timed("bench.coverage_mask", "bench.coverage_mask")
    m["bench.budget_spp_mean"] = _mean(stats.budget_means)
    m["bench.lift_samples_per_pixel"] = _mean(stats.lift_per_px)
    m["bench.lift_slots_at_far_per_pixel"] = _mean(stats.far_per_px)
    for fn in ("predict", "load_checkpoint", "forward", "backward",
               "render_gt_patch", "build_target"):
        timed(f"proposal.{fn}", f"proposal.{fn}")
    m["proposal.checkpoint_bytes"] = stats.checkpoint_bytes
    timed("proposal.train_step", "proposal.train_step", self_time=True)
    m["proposal.supervised_logit_ratio"] = _mean(stats.logit_ratios)
    for fn, span in (("conv2d_forward", "nn.conv2d_forward"),
                     ("conv2d_backward", "nn.conv2d_backward"),
                     ("upsample", "nn.upsample"), ("softmax_ce", "nn.softmax_ce"),
                     ("adam_step", "nn.adam_step")):
        timed(f"nn.{fn}", span)
    steps = calls.get("proposal.train_step", 0)
    m["nn.conv_gflop_per_step"] = stats.train_flops / steps / 1e9 if steps else 0.0
    timed("imageio.write", "imageio.write")
    m["imageio.bytes_written"] = stats.bytes_written
    timed("cli.render", "cli.render", self_time=True)

    root_idx = [i for i, p in enumerate(parents) if p < 0]
    total = sum(dur[i] for i in root_idx)
    m["trace.unattributed_share"] = sum(self_t[i] for i in root_idx) / total if total else 0.0
    return m
