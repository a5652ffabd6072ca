"""The three workloads. Each runs in one process: a set-up; then the timed
part, an optional prelude (training) followed by whole rounds of the same
operations until the run's seconds are spent (a traced run does exactly one
round). Every output is checked outside the timed operations.

Every workload reports every end-to-end metric. Each has a main part, the
work it was chosen for, and a small share of the other operations so that
all metrics have a measured value on it; README.md lists both.
"""
from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from layers import (PER_LAYER, LayerStats, Taps, install_layers, install_taps,
                    per_layer_metrics)
from spans import Instruments, Tracer

# program functions are called through their modules, so that the wrappers
# installed there see the calls
from volsampler import cli, proposal, render
from volsampler.geometry import Camera, default_camera
from volsampler.metrics import psnr, worst_percentile_psnr
from volsampler.proposal import ProposalNet, TrainConfig
from volsampler.sampling import SampleBudget
from volsampler.scenes import make_scene

# (name, unit, better, bound); the order is the order of BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("frame_s", "s", "lower", 0.25),
    ("psnr_db", "dB", "higher", 0.02),
    ("worst1_psnr_db", "dB", "higher", 0.03),
    ("field_evals_per_pixel", "points/pixel", "lower", 0.02),
    ("train_step_s", "s", "lower", 0.25),
    ("train_loss", "nats", "lower", 0.05),
    ("reference_frame_s", "s", "lower", 0.25),
    ("uniform96_frame_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

RES = 128
TIGHT_BETA = 0.0015
REFERENCE_SPP = 384
BUDGET = SampleBudget()  # the config defaults: 16 / 32 at 10%, mean 17.6
# acceptance training configuration; a fixed training seed makes train_loss
# a property of the code, not of the run's seed
TRAIN = dict(lr=2e-3, patch=24, z_bins=192)
HIDDEN = 64
TRAIN_SEED = 0
LEARNED_STEPS = 20
LOSS_WINDOW = 4
LEARNED_FRAMES = 3
BURST_STEPS = 5
MIN_GAIN_DB = 3.0
# reference-384 against converged midpoint-4096 on an 8x8 camera, at a
# fixed seed, so whether it passes does not depend on the run's seed
CONSISTENCY_RES = 8
CONSISTENCY_SPP = 4096
CONSISTENCY_SEED = 1
CONSISTENCY_DB = 99.5

WORKLOADS = ("learned-sampler", "probe-lift", "dense-render")


class OpFailed(Exception):
    """An operation ran but its result fails the property it must have."""


@dataclass(frozen=True)
class SceneSpec:
    name: str
    beta: float | None = None  # None: the catalog's beta (and fuzzy band)

    def make(self):
        return make_scene(self.name, beta=self.beta)

    def config(self, extra: str = "") -> str:
        text = f"scene.name = {self.name}\n"
        if self.beta is not None:
            text += f"scene.beta = {self.beta!r}\n"
        return text + extra


TWO_SPHERES = SceneSpec("two-spheres", TIGHT_BETA)
TORUS = SceneSpec("torus", TIGHT_BETA)
TEXTURED = SceneSpec("textured-sphere")
SPHERE = SceneSpec("sphere", TIGHT_BETA)


class Run:
    """One benchmark process: seeds, instruments, timings, checks, counts."""

    def __init__(self, workload: str, seed: int, trace: bool, out_root: Path):
        self.trace = trace
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.tracer = Tracer(trace)
        self.ins = Instruments(self.tracer)
        self.taps = Taps()
        self.stats = LayerStats()
        install_taps(self.ins, self.taps)
        if trace:
            install_layers(self.ins, self.tracer, self.stats)
        self.work = out_root / f"work-{workload}-seed{seed}-trace{int(trace)}"
        self.work.mkdir(parents=True, exist_ok=True)
        # metric -> scene -> values; a run's figure is the mean over scenes
        self.samples: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.failures: list[str] = []
        self.op_failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.camera = default_camera(RES, RES)

    def new_seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def record(self, metric: str, key: str, value: float) -> None:
        self.samples[metric][key].append(float(value))

    def op(self, name: str, fn, metric: str | None = None, key: str = ""):
        """Run one timed operation under a root span; returns its result, or
        None if it failed (counted in `failed`). Its wall time goes to
        metric, under key (the scene)."""
        self.attempted += 1
        idx = self.tracer.begin(name) if self.trace else -1
        t0 = time.perf_counter()
        try:
            result = fn()
        except OpFailed as e:
            self.failed += 1
            self.op_failures.append(f"{name}: {e}")
            return None
        except Exception:
            self.failed += 1
            self.op_failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            dt = time.perf_counter() - t0
            if idx >= 0:
                self.tracer.end(idx)
        if metric is not None:
            self.record(metric, key, dt)
        return result

    @contextlib.contextmanager
    def untraced(self):
        """Checks call the program too; keep them out of the trace."""
        enabled = self.tracer.enabled
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = enabled

    def check(self, failures: list[str]) -> None:
        self.failures.extend(failures)

    # operations shared by the workloads ---------------------------------

    def write_config(self, spec: SceneSpec, extra: str = "") -> Path:
        path = self.work / f"{spec.name}.cfg"
        path.write_text(spec.config(extra), encoding="ascii")
        return path

    def reference(self, spec: SceneSpec, scene):
        seed = self.new_seed()
        out = self.op("op.reference", lambda: render.render_reference(
            scene, self.camera, REFERENCE_SPP, seed=seed), "reference_frame_s", spec.name)
        if out is not None:
            with self.untraced():
                self.check(checks.image_in_range(f"{spec.name} reference-384", out))
        return out

    def uniform96(self, spec: SceneSpec, scene) -> None:
        seed = self.new_seed()
        out = self.op("op.uniform96", lambda: render.render_uniform(
            scene, self.camera, 96, seed=seed), "uniform96_frame_s", spec.name)
        if out is not None:
            with self.untraced():
                self.check(checks.image_in_range(f"{spec.name} uniform-96", out))

    def frame(self, spec: SceneSpec, config: Path, reference, seed: int | None = None):
        """One adaptive frame made the way `volsampler render --method
        adaptive` makes it: config load, probe, proposals, scores, budgets,
        samples, integration, PFM/PPM output. Returns the render or None."""
        seed = self.new_seed() if seed is None else seed
        argv = ["render", "--method", "adaptive", "--config", str(config),
                "--seed", str(seed), "--out-dir", str(self.work)]
        self.taps.points = 0
        self.taps.render = self.taps.spp_map = self.taps.samples = None

        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"volsampler {' '.join(argv)} exited {code}")
            return True

        if self.op("op.frame", run_cli, "frame_s", spec.name) is None:
            return None
        points = self.taps.points
        out = self.taps.render
        if points == 0:
            raise RuntimeError("no field evaluations were counted in an adaptive frame; "
                               "SceneOracle.fields is no longer the evaluation boundary")
        with self.untraced():
            name = f"{spec.name} adaptive seed {seed}"
            self.check(checks.adaptive_frame(
                name, self.camera, BUDGET, out, self.taps.spp_map, self.taps.samples,
                self.work / f"{spec.name}_adaptive.pfm"))
            self.record("psnr_db", spec.name, psnr(out.radiance, reference.radiance))
            self.record("worst1_psnr_db", spec.name,
                        worst_percentile_psnr(out.radiance, reference.radiance, 1.0))
            self.record("field_evals_per_pixel", spec.name, points / (RES * RES))
        return out

    def train_op(self, spec: SceneSpec, scene, steps: int, window: int):
        """Train a fresh ProposalNet for a fixed number of steps at the
        acceptance configuration; returns (net, losses) or None. train_loss
        is the mean over the last `window` supervised steps: a step whose
        patch holds no valid pixel returns loss 0 and is not counted."""
        self.taps.step_s.clear()

        def run_train():
            net = ProposalNet(z_bins=TRAIN["z_bins"], hidden=HIDDEN, seed=TRAIN_SEED)
            cfg = TrainConfig(steps=steps, **TRAIN)
            return net, proposal.train(net, scene, self.camera, cfg, seed=TRAIN_SEED)

        result = self.op("op.train", run_train)
        if result is None:
            return None
        net, losses = result
        for dt in self.taps.step_s:
            self.record("train_step_s", spec.name, dt)
        supervised = [v for v in losses if v > 0.0]
        if not np.all(np.isfinite(losses)) or not supervised:
            self.check([f"training losses not finite or none supervised: {losses}"])
        else:
            self.record("train_loss", spec.name, np.mean(supervised[-window:]))
        return net, losses


# the workloads -----------------------------------------------------------

@dataclass
class Workload:
    """setup() -> state, before the timed part; prelude(state), if any, once
    at the start of the timed part; round_(state) repeated until time is up.
    A cheap set-up runs setup_repeats times and setup_s is their median."""

    setup: object
    prelude: object
    round_: object
    setup_repeats: int = 1


def _setup_references(run: Run, specs) -> dict:
    """Scenes, config files and the reference-384 images PSNR is taken
    against."""
    state = {}
    for spec in specs:
        scene = spec.make()
        config = run.write_config(spec)
        state[spec] = (scene, config, run.reference(spec, scene))
    return state


def learned_sampler(run: Run) -> Workload:
    spec = TWO_SPHERES
    ckpt = run.work / "proposal.vsmp"

    def setup():
        state = _setup_references(run, [spec])
        scene, _, ref = state[spec]
        config = run.write_config(spec, "proposal.source = checkpoint\n"
                                        f"proposal.checkpoint = {ckpt}\n")
        return scene, config, ref

    def prelude(state):
        scene, _, _ = state
        trained = run.train_op(spec, scene, LEARNED_STEPS, LOSS_WINDOW)
        if trained is None:
            return
        net, losses = trained
        supervised = [v for v in losses if v > 0.0]
        first = np.mean(supervised[:LOSS_WINDOW])
        last = np.mean(supervised[-LOSS_WINDOW:])
        if not last < first:
            run.check([f"last-window loss {last:.4f} not below first-window {first:.4f}"])

        def save_and_reload():
            proposal.save_checkpoint(net, ckpt)
            loaded = ProposalNet(z_bins=TRAIN["z_bins"], hidden=HIDDEN, seed=TRAIN_SEED + 1)
            proposal.load_checkpoint(loaded, ckpt)
            return loaded

        loaded = run.op("op.checkpoint", save_and_reload)
        if loaded is None:
            return
        with run.untraced():
            probe_cam = Camera(run.camera.position, run.camera.look_at, run.camera.up,
                               run.camera.fov_y, RES // 4, RES // 4)
            probe = render.render_probe(scene, probe_cam, TRAIN["z_bins"])
            loaded_p = loaded.predict(probe)
            if not np.array_equal(net.predict(probe), loaded_p):
                run.check(["reloaded checkpoint predicts differently from the trained net"])
            sums = loaded_p.sum(axis=0)
            if np.abs(sums - 1.0).max() > 1e-9:
                run.check([f"predicted distributions sum to {sums.min()!r}..{sums.max()!r}"])

    def round_(state):
        scene, config, ref = state
        for _ in range(LEARNED_FRAMES):
            seed = run.new_seed()
            out = run.frame(spec, config, ref, seed)
            if out is None:
                continue
            with run.untraced():
                sums = run.taps.prop.pdf.sum(axis=1)
                if np.abs(sums - 1.0).max() > 1e-9:
                    run.check([f"learned proposals sum to {sums.min()!r}..{sums.max()!r}"])
                learned = psnr(out.radiance, ref.radiance)
                u17 = psnr(render.render_uniform(scene, run.camera, 17, seed=seed).radiance,
                           ref.radiance)
                if learned < u17 + MIN_GAIN_DB:
                    run.check([f"learned frame {learned:.2f} dB does not beat uniform-17 "
                               f"{u17:.2f} dB by {MIN_GAIN_DB} dB (seed {seed})"])
        # usually one round per run: two frames give uniform96_frame_s a median
        for _ in range(2):
            run.uniform96(spec, scene)

    return Workload(setup, prelude, round_)


def probe_lift(run: Run) -> Workload:
    specs = (TWO_SPHERES, TORUS, TEXTURED)

    def prelude(state):
        run.train_op(TWO_SPHERES, state[TWO_SPHERES][0], BURST_STEPS, BURST_STEPS)

    def round_(state):
        for spec in specs:
            _, config, ref = state[spec]
            run.frame(spec, config, ref)
        run.uniform96(TWO_SPHERES, state[TWO_SPHERES][0])

    return Workload(lambda: _setup_references(run, specs), prelude, round_)


def dense_render(run: Run) -> Workload:
    specs = (SPHERE, TWO_SPHERES, TORUS, TEXTURED)
    small = Camera(run.camera.position, run.camera.look_at, run.camera.up,
                   run.camera.fov_y, CONSISTENCY_RES, CONSISTENCY_RES)

    def setup():
        """Scenes, config files and the converged midpoint-4096 images the
        small-camera references are held to."""
        state = {}
        for spec in specs:
            scene = spec.make()
            config = run.write_config(spec)
            oracle = render.render_uniform(scene, small, CONSISTENCY_SPP, mode="midpoint")
            state[spec] = (scene, config, oracle)
        return state

    def consistency(spec, scene, oracle):
        ref = render.render_reference(scene, small, REFERENCE_SPP, seed=CONSISTENCY_SEED)
        value = psnr(ref.radiance, oracle.radiance)
        if value <= CONSISTENCY_DB:
            raise OpFailed(f"{spec.name}: reference-384 vs midpoint-{CONSISTENCY_SPP} "
                           f"{value:.2f} dB on {CONSISTENCY_RES}x{CONSISTENCY_RES}, "
                           f"needs > {CONSISTENCY_DB}")

    def round_(state):
        # the training burst is part of the round (no prelude), so the three
        # failing consistency operations are the same share of every run
        run.train_op(SPHERE, state[SPHERE][0], BURST_STEPS, BURST_STEPS)
        for spec in specs:
            scene, config, oracle = state[spec]
            ref = run.reference(spec, scene)
            run.uniform96(spec, scene)
            if ref is not None:
                if spec is SPHERE:
                    with run.untraced():
                        run.check(checks.sphere_analytic("sphere reference-384", run.camera,
                                                         ref, TIGHT_BETA))
                run.frame(spec, config, ref)
            run.op("op.consistency", lambda: consistency(spec, scene, oracle))

    return Workload(setup, None, round_, setup_repeats=3)


WORKLOAD_DEFS = {"learned-sampler": learned_sampler, "probe-lift": probe_lift,
            "dense-render": dense_render}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_root: Path) -> dict:
    """Set up, run whole rounds, and return the result object."""
    run = Run(workload, seed, trace, out_root)
    try:
        work = WORKLOAD_DEFS[workload](run)
        setups = []
        for _ in range(work.setup_repeats):
            idx = run.tracer.begin("op.setup") if trace else -1
            t0 = time.perf_counter()
            state = work.setup()
            setups.append(time.perf_counter() - t0)
            if idx >= 0:
                run.tracer.end(idx)
        setup_s = statistics.median(setups)

        start = time.perf_counter()
        if work.prelude is not None:
            work.prelude(state)
        rounds = 0
        while True:
            t_round = time.perf_counter()
            work.round_(state)
            rounds += 1
            now = time.perf_counter()
            # stop before a round that would end past the run's seconds
            if trace or now - start + (now - t_round) > seconds:
                break

        for line in run.op_failures:
            print(f"failed operation: {line}", file=sys.stderr)
        for line in run.failures:
            print(f"check failed: {line}", file=sys.stderr)

        if trace:
            metrics = per_layer_metrics(run.tracer, run.stats)
            # the traced runs' own figures for the operations, taken as the
            # untraced run takes them: the difference is the tracing overhead
            for name, metric in (("trace.frame.ms", "frame_s"),
                                 ("trace.train_step.ms", "train_step_s"),
                                 ("trace.reference_frame.ms", "reference_frame_s")):
                metrics[name] = 1e3 * _timing(run, metric)
            metrics = {name: float(metrics[name]) for name, _, _ in PER_LAYER}
            units = {name: unit for name, unit, _ in PER_LAYER}
            trace_path = out_root / f"trace-{workload}-seed{seed}.json"
            run.tracer.write(trace_path)
            print(f"trace written to {trace_path}")
        else:
            metrics, units = _end_to_end(run, setup_s)
        for name, value in metrics.items():
            got = [x for v in run.samples.get(name, {}).values() for x in v]
            spread = (f"  ({len(got)} samples, {min(got):.6g} to {max(got):.6g})"
                      if len(got) > 1 else "")
            print(f"{workload} {name} = {value:.6g} {units[name]}{spread}")
        print(f"{workload}: {rounds} round(s), {run.attempted} operations, "
              f"{run.failed} failed, {len(run.failures)} check failures")
        return {"correct": not run.failures, "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}
    finally:
        run.ins.restore()
        shutil.rmtree(run.work, ignore_errors=True)


def _timing(run: Run, metric: str) -> float:
    """The median per scene, averaged over the workload's scenes (each round
    renders the same scenes, so the mix is fixed)."""
    return float(np.mean([statistics.median(v) for v in run.samples[metric].values()]))


def _end_to_end(run: Run, setup_s: float):
    """Timings as `_timing`; quality and work: the mean over all frames."""
    def mean(metric):
        return float(np.mean([x for v in run.samples[metric].values() for x in v]))

    measured = {name: fn(name) for fn, names in (
        (lambda metric: _timing(run, metric),
         ("frame_s", "train_step_s", "reference_frame_s", "uniform96_frame_s")),
        (mean, ("psnr_db", "worst1_psnr_db", "field_evals_per_pixel", "train_loss")))
        for name in names if run.samples[name]}
    missing = [name for name, _, _, _ in END_TO_END
               if name not in measured and name not in ("setup_s", "peak_rss_mb")]
    if missing:
        raise RuntimeError(f"no successful operation measured {missing}")
    measured["setup_s"] = setup_s
    measured["peak_rss_mb"] = _peak_rss_mb()
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return {name: float(measured[name]) for name, _, _, _ in END_TO_END}, units
