"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py`. The heavyweight pieces
(criteria 7 and 8) share one trained sampler via a module fixture.
"""
import itertools
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_diff, ray_sphere_hit, rel_err, small_camera
from volsampler import nn
from volsampler.bench import (Pipeline, adaptive_pipeline_render,
                              method_samples, prepare_proposals)
from volsampler.config import Config
from volsampler.metrics import foreground_psnr, psnr, worst_percentile_psnr
from volsampler.proposal import ProposalNet, TrainConfig, train
from volsampler.regularizers import decision_loss, surface_loss
from volsampler.render import (camera_geometry, integrate_batch, render_full,
                               render_reference, render_uniform)
from volsampler.sampling import (SampleBudget, block_uniforms,
                                 budget_sample_grid, derive_seed,
                                 inverse_cdf_sample_grid, normalize_pdf,
                                 nucleus_support_grid, stratified_u_block)
from volsampler.scenes import beta_activation, make_scene

# Scaled acceptance configuration: probe 32x32 -> full 128x128 (the paper-scale
# 128 -> 512 pipeline divided by 4), 192 bins, tight surfaces.
ACCEPT_BETA = 0.0015
TRAIN_STEPS = 500
TRAIN_LR = 2e-3
TRAIN_PATCH = 24
# the variance study wants a center pixel whose estimate mixes radiances
# (front sphere's soft shell over the back sphere); softer surfaces there
C3_BETA = 0.05


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS", flush=True)


def test_c1_dense_render_correctness():
    with criterion(1, "dense-render-correctness"):
        scene = make_scene("sphere", beta=0.001)
        cam = small_camera(64)
        t0 = time.perf_counter()
        out = render_uniform(scene, cam, 512, mode="midpoint", workers=1)
        elapsed = time.perf_counter() - t0
        o, d, t_near, t_far = camera_geometry(cam)
        k = 32 * 64 + 32
        t_hit = ray_sphere_hit(o[k], d[k], (0, 0, 0), 1.0)
        tol = 2.0 * (t_far[k] - t_near[k]) / 512
        err = abs(out.expected_depth[32, 32] - t_hit)
        print(f"\n  depth err {err:.2e} (tol {tol:.2e}), render {elapsed:.2f}s")
        assert err <= tol
        assert elapsed < 5.0


@pytest.mark.slow
def test_c2_estimator_consistency():
    with criterion(2, "estimator-consistency"):
        cam = small_camera(64)
        results = {}
        for name in ("sphere", "two-spheres", "torus", "blended-union",
                     "textured-sphere"):
            scene = make_scene(name)
            ref = render_reference(scene, cam, total=384,
                                   seed=derive_seed(2, 1), workers=2)
            dense = render_uniform(scene, cam, 4096, mode="stratified",
                                   seed=derive_seed(2, 2), workers=2)
            results[name] = psnr(ref.radiance, dense.radiance)
        print("\n  " + "  ".join(f"{k}={v:.2f}dB" for k, v in results.items()))
        for name, value in results.items():
            assert value > 100.0 - 0.5, (
                f"{name}: PSNR(reference-384, uniform-4096) = {value:.2f} dB, "
                f"needs > 99.5 dB")


def _center_pixel_setup():
    scene = make_scene("two-spheres", beta=C3_BETA)
    cam = small_camera(128)
    o, d, t_near, t_far = camera_geometry(cam)
    k = 64 * 128 + 64
    z = 192
    frac = (np.arange(z) + 0.5) / z
    t = t_near[k] + frac * (t_far[k] - t_near[k])
    coarse = integrate_batch(scene, o[k][None], d[k][None], t[None],
                             np.array([t_far[k]]))
    pdf = normalize_pdf(coarse["weights"])[0]
    return scene, o[k], d[k], t_near[k], t_far[k], pdf


def _estimate_radiance(scene, o, d, t_far, t):
    out = integrate_batch(scene, np.broadcast_to(o, (t.shape[0], 3)),
                          np.broadcast_to(d, (t.shape[0], 3)), t,
                          np.full(t.shape[0], t_far))
    return out["rgb"].mean(axis=1)


def test_c3_stratification_variance():
    with criterion(3, "stratification-variance"):
        scene, o, d, t_near, t_far, pdf = _center_pixel_setup()
        trials, s = 1000, 8
        pdf_rows = np.broadcast_to(pdf, (trials, pdf.size))
        tn = np.full(trials, t_near)
        tf = np.full(trials, t_far)
        u_plain = np.sort(block_uniforms(31, 1, (trials, s)), axis=1)
        u_strat = stratified_u_block(trials, s, 31, 2)
        est_plain = _estimate_radiance(
            scene, o, d, t_far, inverse_cdf_sample_grid(pdf_rows, tn, tf, u_plain))
        est_strat = _estimate_radiance(
            scene, o, d, t_far, inverse_cdf_sample_grid(pdf_rows, tn, tf, u_strat))
        v_plain, v_strat = est_plain.var(), est_strat.var()

        rng = np.random.default_rng(77)
        boots = 2000
        diffs = np.empty(boots)
        for i in range(boots):
            diffs[i] = (est_plain[rng.integers(0, trials, trials)].var()
                        - est_strat[rng.integers(0, trials, trials)].var())
        lo = np.percentile(diffs, 1.0)
        print(f"\n  var plain {v_plain:.3e} strat {v_strat:.3e} "
              f"bootstrap 1st pct of diff {lo:.3e}")
        assert v_strat < v_plain
        assert lo > 0.0


def test_c4_mode_coverage():
    with criterion(4, "mode-coverage"):
        z, trials, s = 192, 10_000, 16
        mode_a = np.arange(40, 44)
        mode_b = np.arange(120, 124)
        support = np.zeros((trials, z), dtype=bool)
        support[:, mode_a] = True
        support[:, mode_b] = True
        phat = normalize_pdf(support.astype(float))
        xi = block_uniforms(5, 9, (trials, s))
        t = budget_sample_grid(support, phat, s, np.zeros(trials),
                               np.ones(trials), xi)
        b = np.clip((t * z).astype(int), 0, z - 1)
        in_a = ((b >= 40) & (b < 44)).any(axis=1)
        in_b = ((b >= 120) & (b < 124)).any(axis=1)
        both = (in_a & in_b).mean()

        # mispredicted unimodal proposal: almost no mass on the second mode
        mispredicted = np.zeros(z)
        mispredicted[mode_a] = 0.25 * (1.0 - 4e-4)
        mispredicted[mode_b] = 1e-4
        rows = np.broadcast_to(mispredicted, (trials, z))
        u = np.sort(block_uniforms(5, 10, (trials, s)), axis=1)
        t_cdf = inverse_cdf_sample_grid(rows, np.zeros(trials), np.ones(trials), u)
        b_cdf = np.clip((t_cdf * z).astype(int), 0, z - 1)
        missed = 1.0 - ((b_cdf >= 120) & (b_cdf < 124)).any(axis=1).mean()
        print(f"\n  robust both-modes {both:.4f}; plain inverse-CDF miss rate {missed:.4f}")
        assert both == 1.0
        assert missed >= 0.99


def test_c5_nucleus_minimality():
    with criterion(5, "nucleus-minimality"):
        rng = np.random.default_rng(55)
        for case in range(100):
            z = int(rng.integers(3, 13))
            p = rng.random(z) ** 2
            p /= p.sum()
            tau = float(rng.uniform(0.4, 1.0))
            support = nucleus_support_grid(p[None], tau)[0]
            assert p[support].sum() >= tau - 1e-9
            # exhaustive enumeration over all subsets, smallest cardinality first
            k_min = z
            for k in range(1, z + 1):
                if any(p[list(sub)].sum() >= tau - 1e-12
                       for sub in itertools.combinations(range(z), k)):
                    k_min = k
                    break
            assert support.sum() == k_min, f"case {case}: {support.sum()} vs {k_min}"


def test_c6_gradient_correctness():
    with criterion(6, "gradient-correctness"):
        rng = np.random.default_rng(66)
        worst = 0.0
        h = 1e-3

        def check(analytic, fd):
            nonlocal worst
            e = rel_err(analytic, fd)
            worst = max(worst, e)
            assert e < 1e-4

        for _ in range(10):  # conv
            b, ci, co = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
            hh, ww = rng.integers(2, 6), rng.integers(2, 6)
            x = rng.standard_normal((b, ci, hh, ww))
            w = rng.standard_normal((co, ci, 3, 3)) * 0.5
            bias = rng.standard_normal(co) * 0.2
            proj = rng.standard_normal((b, co, hh, ww))

            def loss():
                y, _ = nn.conv2d_forward(x, w, bias)
                return float(np.sum(y * proj))
            _, cache = nn.conv2d_forward(x, w, bias)
            dx, dw, db = nn.conv2d_backward(proj, w, cache)
            check(dx, finite_diff(loss, x, h))
            check(dw, finite_diff(loss, w, h))
            check(db, finite_diff(loss, bias, h))

        for _ in range(10):  # relu, inputs kept away from the kink
            x = rng.standard_normal((2, 3, 4, 4))
            x += 0.1 * np.sign(x)
            proj = rng.standard_normal(x.shape)

            def loss():
                y, _ = nn.relu_forward(x)
                return float(np.sum(y * proj))
            _, mask = nn.relu_forward(x)
            check(nn.relu_backward(proj, mask), finite_diff(loss, x, h))

        for _ in range(10):  # bilinear upsample
            f = int(rng.choice([2, 4]))
            x = rng.standard_normal((1, int(rng.integers(1, 4)),
                                     int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            proj = rng.standard_normal((x.shape[0], x.shape[1],
                                        x.shape[2] * f, x.shape[3] * f))

            def loss():
                y, _ = nn.upsample_forward(x, f)
                return float(np.sum(y * proj))
            _, cache = nn.upsample_forward(x, f)
            check(nn.upsample_backward(proj, cache), finite_diff(loss, x, h))

        for _ in range(10):  # skip-add
            a = rng.standard_normal((1, 3, 4, 4))
            b2 = rng.standard_normal((1, 3, 4, 4))
            proj = rng.standard_normal(a.shape)

            def loss_a():
                return float(np.sum((a + b2) * proj))
            check(proj, finite_diff(loss_a, a, h))
            check(proj, finite_diff(loss_a, b2, h))

        for _ in range(10):  # fused softmax cross-entropy
            z = int(rng.integers(3, 9))
            logits = rng.standard_normal((1, z, 3, 3))
            tgt = rng.random((1, z, 3, 3))
            tgt /= tgt.sum(axis=1, keepdims=True)
            valid = rng.random((1, 3, 3)) > 0.2

            def loss():
                l, _, _ = nn.softmax_ce(logits, tgt, valid)
                return l
            _, _, d = nn.softmax_ce(logits, tgt, valid)
            check(d, finite_diff(loss, logits, h))
        print(f"\n  50 configurations, worst relative error {worst:.2e}")


class TrainedSampler:
    def __init__(self):
        t0 = time.perf_counter()
        self.scene = make_scene("two-spheres", beta=ACCEPT_BETA)
        self.camera = small_camera(128)
        self.pipeline = replace(Pipeline.from_config(Config.load(None), workers=2),
                                scene=self.scene, camera=self.camera,
                                proposal_source="checkpoint")
        self.net = ProposalNet(z_bins=192, hidden=64, seed=0)
        cfg = TrainConfig(steps=TRAIN_STEPS, lr=TRAIN_LR, patch=TRAIN_PATCH)
        self.losses = train(self.net, self.scene, self.camera, cfg, seed=0,
                            workers=2)
        self.reference = render_reference(self.scene, self.camera, 384,
                                          seed=derive_seed(0, 999), workers=2)
        self.foreground = self.reference.accumulated_opacity > 0.5
        self.proposals = prepare_proposals(self.pipeline, net=self.net)
        self.elapsed = time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained():
    return TrainedSampler()


@pytest.mark.slow
def test_c7_sampler_training(trained):
    with criterion(7, "sampler-training"):
        t0 = time.perf_counter()
        first = float(np.mean(trained.losses[:50]))
        last = float(np.mean(trained.losses[-50:]))
        reduction = 1.0 - last / first

        out, spp_map = adaptive_pipeline_render(
            replace(trained.pipeline, budget=SampleBudget(16, 32, 0.10), seed=13,
                    merge_probe=True), trained.proposals)
        u96 = render_uniform(trained.scene, trained.camera, 96, seed=11, workers=2)
        u17 = render_uniform(trained.scene, trained.camera, 17, seed=12, workers=2)
        ref = trained.reference.radiance
        fg = trained.foreground
        p_pipe = foreground_psnr(out.radiance, ref, fg)
        p_u96 = foreground_psnr(u96.radiance, ref, fg)
        p_u17 = foreground_psnr(u17.radiance, ref, fg)
        total = trained.elapsed + (time.perf_counter() - t0)
        print(f"\n  loss window {first:.3f} -> {last:.3f} ({reduction * 100:.1f}%)"
              f"\n  fg-PSNR pipeline {p_pipe:.2f} (mean spp {spp_map.mean():.2f})"
              f" vs uniform-96 {p_u96:.2f} / uniform-17 {p_u17:.2f}"
              f"\n  total runtime {total:.0f}s")
        assert reduction >= 0.50
        assert p_pipe >= p_u96 - 1.5
        assert p_pipe >= p_u17 + 3.0
        assert total < 1800.0


@pytest.mark.slow
def test_c8_worst_percentile_ordering(trained):
    with criterion(8, "worst-percentile-ordering"):
        ref = trained.reference.radiance
        ok = True
        for seed in range(5):
            for spp in (4, 8, 16):
                w1 = {}
                for i, m in enumerate(("unstratified", "stratified", "robust")):
                    samples = method_samples(m, trained.proposals, spp,
                                             derive_seed(8, seed, spp, i),
                                             trained.pipeline)
                    out = render_full(trained.scene, trained.camera, samples,
                                      workers=2)
                    w1[m] = worst_percentile_psnr(out.radiance, ref, 1.0)
                line_ok = w1["robust"] > w1["stratified"] > w1["unstratified"]
                ok = ok and line_ok
                print(f"\n  seed {seed} spp {spp:2d}: robust {w1['robust']:.2f} > "
                      f"stratified {w1['stratified']:.2f} > "
                      f"unstratified {w1['unstratified']:.2f}"
                      f" {'ok' if line_ok else 'VIOLATED'}")
                assert line_ok
        assert ok


@pytest.mark.slow
def test_c9_regularizer_behavior():
    with criterion(9, "regularizer-behavior"):
        # surface tightening: descend the beta-field parameter by central
        # finite differences of the rendered-B loss
        cam = small_camera(32)
        b_target = 0.001
        theta = 0.5

        def scene_at(th):
            return make_scene("sphere", beta=float(beta_activation(th)))

        def loss_at(th):
            out = render_uniform(scene_at(th), cam, 128, mode="midpoint")
            return surface_loss(out.beta_image, b_target)

        start = loss_at(theta)
        h, lr = 0.05, 1.0
        current = start
        for _ in range(200):
            g = (loss_at(theta + h) - loss_at(theta - h)) / (2 * h)
            theta -= lr * g
            current = loss_at(theta)
        print(f"\n  surface loss {start:.4f} -> {current:.6f} "
              f"({(1 - current / start) * 100:.1f}% reduction), "
              f"beta -> {float(beta_activation(theta)):.5f}")
        assert current <= 0.10 * start

        rng = np.random.default_rng(99)
        for _ in range(10):
            s = rng.normal(scale=0.4, size=(6, 8, 8))
            losses = [decision_loss(s * c) for c in (1.0, 1.3, 1.7, 2.5)]
            assert all(a > b for a, b in zip(losses, losses[1:]))


BENCH_CFG = """
scene.name = two-spheres
scene.beta = 0.004
camera.height = 32
camera.width = 32
render.z_bins = 64
bench.methods = stratified,robust
bench.spp = 2,4
bench.trials = 1
"""


def test_c10_determinism(tmp_path):
    with criterion(10, "determinism"):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(BENCH_CFG)
        outputs = []
        for run, workers in (("a", 1), ("b", 1), ("c", 4)):
            out_dir = tmp_path / run
            res = subprocess.run(
                [sys.executable, "-m", "volsampler", "bench",
                 "--config", str(cfg), "--deterministic", "--seed", "7",
                 "--workers", str(workers), "--out-dir", str(out_dir)],
                capture_output=True, text=True,
                cwd=str(Path(__file__).resolve().parent.parent))
            assert res.returncode == 0, res.stderr
            outputs.append((out_dir / "bench.csv").read_bytes())
        assert outputs[0] == outputs[1], "same seed must give identical CSV"
        assert outputs[0] == outputs[2], "worker count must not change CSV"
        print(f"\n  3 runs, {len(outputs[0])} CSV bytes, all identical")
