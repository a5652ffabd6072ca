import copy

import numpy as np
import pytest

from conftest import small_camera, vacuum_scene
from volsampler import proposal
from volsampler.geometry import Camera
from volsampler.nn import (AdamState, adam_step, he_init, softmax_ce,
                          softmax_channels)
from volsampler.proposal import (HALO, CheckpointError, ProposalNet,
                                 TrainConfig, build_target,
                                 forward_patch, gaussian_kernel, live_pixels,
                                 load_checkpoint, patch_pixels, probe_camera,
                                 probe_inputs, render_gt_patch, save_checkpoint,
                                 train, train_step)
from volsampler.render import (bin_midpoints, camera_geometry, integrate_batch,
                               render_probe)
from volsampler.scenes import SceneOracle, make_scene


def per_patch_gt(scene, camera_full, row, col, patch, z_bins):
    """Reference truth patch (Z, patch, patch): the rays of the wrapped patch
    alone, integrated at the probe's bin midpoints."""
    o, d, t_near, t_far = camera_geometry(camera_full)
    h, w = camera_full.height, camera_full.width
    r, c = patch_pixels(row, col, patch, h, w)
    rows = (r[:, None] * w + c[None, :]).ravel()
    t = bin_midpoints(t_near[rows], t_far[rows], z_bins)
    out = integrate_batch(scene, o[rows], d[rows], t, t_far[rows])
    return out["weights"].reshape(patch, patch, z_bins).transpose(2, 0, 1)


def dense_truth(scene, cam, z_bins):
    """The truth grid train() renders: dense weights at full resolution."""
    return render_probe(scene, cam, z_bins).weights


def naive_cross_entropy(phat, target_probs, valid, eps=1e-12):
    """Scalar double-loop oracle for the sampler loss."""
    total, count = 0.0, 0
    z, h, w = phat.shape
    for i in range(h):
        for j in range(w):
            if not valid[i, j]:
                continue
            acc = 0.0
            for k in range(z):
                acc -= target_probs[k, i, j] * np.log(phat[k, i, j] + eps)
            total += acc
            count += 1
    return total / count


class TestBuildTarget:
    def test_one_hot_blur_suppress_support(self):
        # hand-convolve a one-hot ray with the sigma=1 radius-3 kernel:
        # taps below 5e-3 are the two outermost; support shrinks to 5 bins
        z = 9
        p = np.zeros((z, 1, 1))
        p[4, 0, 0] = 1.0
        kernel = gaussian_kernel(1.0)
        tgt = build_target(p)
        expected = np.zeros(z)
        expected[1:8] = kernel
        expected[np.abs(expected) < 5e-3] = 0.0
        expected /= expected.sum()
        np.testing.assert_allclose(tgt.probs[:, 0, 0], expected, atol=1e-12)
        assert np.count_nonzero(tgt.probs[:, 0, 0]) == 5
        assert tgt.valid[0, 0]

    def test_all_zero_ray_flagged_invalid(self):
        p = np.zeros((8, 2, 1))
        p[3, 0, 0] = 1.0
        tgt = build_target(p)
        assert tgt.valid[0, 0] and not tgt.valid[1, 0]
        np.testing.assert_array_equal(tgt.probs[:, 1, 0], np.zeros(8))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            build_target(np.array([[[-0.1]]]))

    def test_rows_sum_to_one_where_valid(self, rng):
        p = rng.random((32, 4, 4)) * 0.05
        tgt = build_target(p)
        sums = tgt.probs.sum(axis=0)
        np.testing.assert_allclose(sums[tgt.valid], 1.0, atol=1e-6)


class TestSamplerLoss:
    """softmax_ce, the loss train_step runs: logits (1, Z, h, w), target
    distributions of the same shape, valid (1, h, w)."""

    def test_one_hot_match_is_zero(self):
        z = 16
        target = np.zeros((1, z, 1, 1))
        target[0, 5] = 1.0
        # exp(-1000) underflows to 0: the prediction is exactly one-hot
        logits = np.where(target > 0.0, 0.0, -1000.0)
        loss, probs, _ = softmax_ce(logits, target, np.ones((1, 1, 1), bool))
        np.testing.assert_array_equal(probs, target)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_costs_log_z(self):
        z = 192
        target = np.zeros((1, z, 1, 1))
        target[0, 17] = 1.0
        loss, _, _ = softmax_ce(np.zeros((1, z, 1, 1)), target,
                                np.ones((1, 1, 1), bool))
        assert loss == pytest.approx(np.log(192), rel=1e-9)

    def test_matches_double_loop_oracle(self, rng):
        z, h, w = 12, 4, 3
        phat = rng.random((z, h, w))
        phat /= phat.sum(axis=0)
        tgt_p = rng.random((z, h, w))
        tgt_p /= tgt_p.sum(axis=0)
        valid = rng.random((h, w)) > 0.3
        loss, _, _ = softmax_ce(np.log(phat)[None], tgt_p[None], valid[None])
        assert loss == pytest.approx(naive_cross_entropy(phat, tgt_p, valid),
                                     abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            softmax_ce(np.zeros((1, 4, 3, 3)), np.ones((1, 4, 2, 2)) / 4,
                       np.ones((1, 2, 2), bool))


class TestProposalNetForward:
    def make_inputs(self, rng, z=8, hw=4, batch=1):
        return (rng.random((batch, z, hw, hw)),
                rng.random((batch, 3, hw, hw)),
                rng.standard_normal((batch, 3, hw, hw)))

    def test_zero_final_layer_gives_uniform(self, rng):
        z = 8
        net = ProposalNet(z_bins=z, hidden=6, seed=0)
        p, i, d = self.make_inputs(rng, z)
        logits = net.forward(p, i, d)
        probs = softmax_channels(logits)
        np.testing.assert_allclose(probs, 1.0 / z, atol=1e-7)

    def test_output_shape_is_4x(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=0)
        p, i, d = self.make_inputs(rng, 8, hw=6)
        assert net.forward(p, i, d).shape == (1, 8, 24, 24)

    def test_batch_permutation_equivariance(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=3)
        for prm in net.params:  # randomize head so outputs differ per image
            prm.value = rng.standard_normal(prm.value.shape).astype(np.float32) * 0.2
        p, i, d = self.make_inputs(rng, 8, hw=4, batch=2)
        out = net.forward(p, i, d)
        flipped = net.forward(p[::-1].copy(), i[::-1].copy(), d[::-1].copy())
        np.testing.assert_allclose(flipped, out[::-1], atol=1e-5)

    def test_shape_mismatch_rejected(self, rng):
        net = ProposalNet(z_bins=8, hidden=6)
        p, i, d = self.make_inputs(rng, 8)
        with pytest.raises(ValueError):
            net.forward(p[:, :4], i, d)
        with pytest.raises(ValueError):
            net.forward(p, i[:, :, :2, :2], d)

    def test_softmax_head_normalized(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=1)
        probe = render_probe(make_scene("sphere"), small_camera(4), z_bins=8)
        probs = net.predict(probe)
        assert probs.shape == (8, 16, 16)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)
        assert np.all(probs > 0)


class TestLiveRows:
    """predict runs the full-resolution layers for the live pixels alone and
    gives every idle pixel one shared uniform row. The net has the default
    sizes, so every GEMM stays above BLAS's small-matrix kernel (nn._conv)."""

    def setup_net(self):
        rng = np.random.default_rng(5)
        net = ProposalNet(z_bins=192, hidden=64, seed=0)
        final = net.convs["conv6"][0]  # zero at init: give the logits texture
        final.value = (rng.standard_normal(final.value.shape) * 0.05).astype(np.float32)
        probe = render_probe(make_scene("two-spheres", beta=0.004), small_camera(8), 192)
        live = live_pixels(probe, 32, 32)
        assert live.any() and not live.all()  # corners miss both spheres
        return net, probe, live

    def test_live_logits_are_forward_bits(self):
        net, probe, live = self.setup_net()
        dense = net.forward(*probe_inputs(probe))
        sparse = net.forward(*probe_inputs(probe), live=live.reshape(32, 32))
        assert sparse.shape == dense.shape == (1, 192, 32, 32)
        flat_dense, flat_sparse = dense.reshape(192, -1), sparse.reshape(192, -1)
        assert np.array_equal(flat_sparse[:, live], flat_dense[:, live])
        assert np.all(flat_sparse[:, ~live] == 0.0)

    def test_idle_pixels_share_one_uniform_row(self):
        net, probe, live = self.setup_net()
        rows, index = net.predict(probe, shared=True)
        n_live = int(live.sum())
        assert rows.shape == (n_live + 1, 192) and rows.flags.c_contiguous
        assert np.all(rows[n_live] == 1.0 / 192)
        assert np.all(index[~live] == n_live)
        assert np.array_equal(index[live], np.arange(n_live))
        logits = net.forward(*probe_inputs(probe)).astype(np.float64)
        want = softmax_channels(logits)[0].reshape(192, -1)[:, live].T
        assert np.array_equal(rows[:n_live], want)
        # the dense grid is the same rows, one column per pixel
        grid = net.predict(probe)
        assert grid.shape == (192, 32, 32)
        assert np.array_equal(grid.reshape(192, -1).T, rows[index])
        np.testing.assert_allclose(grid.sum(axis=0), 1.0, atol=1e-12)

    def test_no_live_pixel_runs_no_net(self, monkeypatch):
        net = ProposalNet(z_bins=16, hidden=4, seed=0)
        probe = render_probe(make_scene("two-spheres", beta=0.004), Camera(
            (0.0, 0.0, 2.8), (0.0, 0.0, 9.0), (0.0, 1.0, 0.0), 0.69, 4, 4), 16)
        assert not probe.weights.any()  # the camera looks away from the scene
        monkeypatch.setattr(ProposalNet, "forward", None)
        rows, index = net.predict(probe, shared=True)
        assert rows.shape == (1, 16) and np.all(rows == 1.0 / 16)
        assert np.array_equal(index, np.zeros(256, dtype=index.dtype))


class TestBackwardProperties:
    def test_zero_upstream_zero_grads(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=0, dtype=np.float64)
        p = rng.random((1, 8, 4, 4))
        i = rng.random((1, 3, 4, 4))
        d = rng.standard_normal((1, 3, 4, 4))
        cache = []
        logits = net.forward(p, i, d, cache=cache)
        net.zero_grads()
        net.backward(np.zeros_like(logits), cache)
        for prm in net.params:
            assert np.all(prm.grad == 0.0)

    def test_gradient_linearity(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=2, dtype=np.float64)
        p = rng.random((1, 8, 4, 4))
        i = rng.random((1, 3, 4, 4))
        d = rng.standard_normal((1, 3, 4, 4))
        upstream = rng.standard_normal((1, 8, 16, 16))
        cache = []
        net.forward(p, i, d, cache=cache)
        net.zero_grads()
        net.backward(upstream, cache)
        g1 = [prm.grad.copy() for prm in net.params]
        net.zero_grads()
        net.backward(2.0 * upstream, cache)
        for prm, g in zip(net.params, g1):
            np.testing.assert_allclose(prm.grad, 2.0 * g, rtol=1e-9, atol=1e-12)

    def test_backward_requires_cache(self, rng):
        # a cache this net's forward did not fill is refused before any
        # gradient is touched
        net = ProposalNet(z_bins=8, hidden=6)
        p, i, d = rng.random((1, 8, 4, 4)), rng.random((1, 3, 4, 4)), rng.random((1, 3, 4, 4))
        short = []
        net.forward(p, i, d, cache=short)
        short.pop()
        for cache in ([], short):
            with pytest.raises(RuntimeError):
                net.backward(np.ones((1, 8, 16, 16)), cache)
            for prm in net.params:
                assert not prm.grad.any(), prm.name

    def test_whole_net_matches_finite_differences(self):
        # every parameter live, so each layer of the chain carries gradient
        rng = np.random.default_rng(0)
        z, hw, h = 6, 3, 1e-6
        net = ProposalNet(z_bins=z, hidden=4, seed=0, dtype=np.float64)
        for prm in net.params:
            prm.value = rng.standard_normal(prm.value.shape) * 0.5
        inputs = (rng.random((1, z, hw, hw)), rng.random((1, 3, hw, hw)),
                  rng.standard_normal((1, 3, hw, hw)))
        proj = rng.standard_normal((1, z, 4 * hw, 4 * hw))
        cache = []
        net.forward(*inputs, cache=cache)
        net.zero_grads()
        net.backward(proj, cache)
        for prm in net.params:
            flat = prm.value.reshape(-1)
            picks = rng.choice(flat.size, min(5, flat.size), replace=False)
            numeric = []
            for j in picks:
                x0 = flat[j]
                flat[j] = x0 + h
                up = np.sum(proj * net.forward(*inputs))
                flat[j] = x0 - h
                down = np.sum(proj * net.forward(*inputs))
                flat[j] = x0
                numeric.append((up - down) / (2.0 * h))
            analytic = prm.grad.reshape(-1)[picks]
            scale = np.abs(analytic).max()
            assert scale > 0.0, prm.name
            assert np.abs(np.array(numeric) - analytic).max() / scale < 1e-4, prm.name

    def test_layers_call_the_module_functions(self, rng, monkeypatch):
        # each layer looks its op up in the proposal module when it runs, so
        # rebinding a name there (as a profiler does) sees every call
        calls = {}
        for name in ("conv2d_forward", "conv2d_backward",
                     "upsample_forward", "upsample_backward"):
            def counting(*args, _fn=getattr(proposal, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(proposal, name, counting)
        net = ProposalNet(z_bins=8, hidden=6)
        cache = []
        logits = net.forward(rng.random((1, 8, 4, 4)), rng.random((1, 3, 4, 4)),
                             rng.random((1, 3, 4, 4)), cache=cache)
        net.backward(np.ones_like(logits), cache)
        assert calls == {"conv2d_forward": 6, "conv2d_backward": 6,
                         "upsample_forward": 3, "upsample_backward": 2}


class TestTrainStep:
    def small_setup(self):
        scene = make_scene("wall", beta=5e-3)
        cam = small_camera(16)  # probe 4x4 -> full 16x16
        cfg = TrainConfig(steps=3, lr=1e-3, patch=8, z_bins=16)
        return scene, cam, cfg

    def test_deterministic_loss_sequence(self):
        scene, cam, cfg = self.small_setup()
        seqs = []
        for _ in range(2):
            net = ProposalNet(z_bins=16, hidden=4, seed=5)
            losses = train(net, scene, cam, cfg, seed=11)
            seqs.append((losses, [p.value.copy() for p in net.params]))
        assert seqs[0][0] == seqs[1][0]
        for a, b in zip(seqs[0][1], seqs[1][1]):
            assert np.array_equal(a, b)

    def test_zero_lr_keeps_parameters(self):
        scene, cam, cfg = self.small_setup()
        cfg = TrainConfig(steps=2, lr=0.0, patch=8, z_bins=16)
        net = ProposalNet(z_bins=16, hidden=4, seed=5)
        before = [p.value.copy() for p in net.params]
        train(net, scene, cam, cfg, seed=11)
        for a, b in zip(before, net.params):
            assert np.array_equal(a, b.value)

    def test_resolution_must_match_upscale(self):
        scene = make_scene("wall")
        cam = Camera((0, 0, 2.8), (0, 0, 0), (0, 1, 0), 0.69, 18, 18)
        net = ProposalNet(z_bins=16, hidden=4)
        with pytest.raises(ValueError):
            train_step(net, AdamState(), dense_truth(scene, cam, 16),
                       np.random.default_rng(0), TrainConfig(patch=8, z_bins=16),
                       render_probe(scene, probe_camera(cam), 16))

    def test_patch_larger_than_image_rejected(self):
        scene, cam, _ = self.small_setup()
        with pytest.raises(ValueError):
            train_step(ProposalNet(z_bins=16, hidden=4), AdamState(),
                       dense_truth(scene, cam, 16), np.random.default_rng(0),
                       TrainConfig(patch=32, z_bins=16),
                       render_probe(scene, probe_camera(cam), 16))

    # a slice of the truth grid is bitwise the patch's own rays rendered
    # alone, whatever rays share their batch (and with 2 workers)
    SCENES = [("wall", 5e-3, 16, 32), ("two-spheres", 1.5e-3, 64, 24)]

    def test_gt_patch_matches_probe_convention(self):
        for name, beta, res, z in self.SCENES:
            scene, cam = make_scene(name, beta=beta), small_camera(res)
            truth = render_probe(scene, cam, z_bins=z, workers=2).weights
            patch = res // 2
            # corner, interior, bottom-right corner, last columns
            for row, col in [(0, 0), (res // 4, res // 4 + 1),
                             (res - patch, res - patch), (3, res - patch)]:
                got = render_gt_patch(truth, row, col, patch)
                assert got.shape == (z, patch, patch)
                assert np.array_equal(got, per_patch_gt(scene, cam, row, col, patch, z))

    def test_gt_patch_wraps_around_image_edges(self):
        for name, beta, res, z in self.SCENES:
            scene, cam = make_scene(name, beta=beta), small_camera(res)
            truth = render_probe(scene, cam, z_bins=z, workers=2).weights
            patch = res // 2
            # both edges wrap, rows wrap, columns wrap
            for row, col in [(res - 4, res - 6), (res - 3, 5), (2, res - 1)]:
                got = render_gt_patch(truth, row, col, patch)
                assert np.array_equal(got, per_patch_gt(scene, cam, row, col, patch, z))
            rows = [res - 4 + i for i in range(4)] + list(range(patch - 4))
            cols = [res - 6 + i for i in range(6)] + list(range(patch - 6))
            assert np.array_equal(render_gt_patch(truth, res - 4, res - 6, patch),
                                  truth[:, rows][:, :, cols])

    def test_truth_is_rendered_once_per_training(self, monkeypatch):
        # train() sends the probe's and the full-resolution grid's points to
        # the scene once each, however many steps it runs
        scene, cam, _ = self.small_setup()
        points = []
        fields = SceneOracle.fields

        def counting_fields(self, p, v):
            points.append(len(p))
            return fields(self, p, v)

        monkeypatch.setattr(SceneOracle, "fields", counting_fields)
        expected = (4 * 4 + 16 * 16) * 16
        for steps in (2, 6):
            points.clear()
            net = ProposalNet(z_bins=16, hidden=4, seed=5)
            train(net, scene, cam, TrainConfig(steps=steps, lr=1e-3, patch=8, z_bins=16),
                  seed=11)
            assert sum(points) == expected, steps

    def test_every_pixel_supervised_equally_often(self, monkeypatch):
        # run train_step at every patch origin it can draw: border pixels
        # must be supervised as often as interior ones
        class ScriptedRng:
            """Returns queued draws and records each integer range drawn from."""

            def __init__(self, values=()):
                self.values, self.ranges = list(values), []

            def integers(self, low, high=None):
                if high is None:
                    low, high = 0, low
                self.ranges.append((low, high))
                return self.values.pop(0) if self.values else low

        origins = []
        real_gt_patch = proposal.render_gt_patch

        def recording_gt_patch(truth, row, col, *args, **kwargs):
            origins.append((row, col))
            return real_gt_patch(truth, row, col, *args, **kwargs)

        monkeypatch.setattr(proposal, "render_gt_patch", recording_gt_patch)
        scene, cam, cfg = self.small_setup()
        net = ProposalNet(z_bins=16, hidden=4)
        probe = render_probe(scene, small_camera(4), z_bins=16)
        truth = dense_truth(scene, cam, 16)
        discover = ScriptedRng()
        train_step(net, AdamState(), truth, discover, cfg, probe=probe)
        (row_lo, row_hi), (col_lo, col_hi) = discover.ranges
        origins.clear()
        for row in range(row_lo, row_hi):
            for col in range(col_lo, col_hi):
                train_step(net, AdamState(), truth, ScriptedRng([row, col]),
                           cfg, probe=probe)
        count = np.zeros((cam.height, cam.width), dtype=int)
        for row, col in origins:
            r, c = patch_pixels(row, col, cfg.patch, cam.height, cam.width)
            count[np.ix_(r, c)] += 1
        assert count.min() == count.max()


class FixedOrigin:
    """Stands in for the generator: returns the queued patch origin."""

    def __init__(self, row, col):
        self.values = [row, col]

    def integers(self, high):
        return self.values.pop(0)


class TestPatchWindows:
    """train_step runs the net on probe windows around the patch only."""

    RES = 64    # probe 16x16, so windows are real crops of it
    PATCH = 12
    # interior, top edge, bottom-right corner, wrapping rows, wrapping corner
    ORIGINS = [(26, 30), (0, 30), (52, 52), (58, 30), (58, 60)]

    def make_net(self):
        scene = make_scene("wall", beta=5e-3)
        net = ProposalNet(z_bins=16, hidden=6, seed=3)
        # a live head, so every layer reaches the logits
        net.params[-2].value = he_init(np.random.default_rng(7), 16, 6, 3, np.float32)
        probe = render_probe(scene, small_camera(self.RES // 4), z_bins=16)
        return scene, net, probe

    def patch_slice(self, logits, row, col):
        r, c = patch_pixels(row, col, self.PATCH, self.RES, self.RES)
        return logits[:, :, r[:, None], c[None, :]]

    def test_window_logits_match_full_forward(self):
        _, net, probe = self.make_net()
        inputs = probe_inputs(probe)
        full = net.forward(*inputs)
        for (row, col), n_rect in zip(self.ORIGINS, (1, 1, 1, 2, 4)):
            logits, windows = forward_patch(net, inputs, row, col, self.PATCH)
            assert len(windows) == n_rect
            np.testing.assert_allclose(logits, self.patch_slice(full, row, col),
                                       rtol=1e-5, atol=1e-6)
        # the interior patch's window is a crop, not the whole probe
        _, windows = forward_patch(net, inputs, 26, 30, self.PATCH)
        assert windows[0][1][-2:] == (4 * (2 * HALO + 4), 4 * (2 * HALO + 4))

    @pytest.mark.parametrize("row,col,n_rect", [(26, 30, 1), (58, 60, 4)])
    def test_masked_window_passes_are_dense_bits(self, monkeypatch, row, col, n_rect):
        # forward_patch runs conv4-conv6 only where each window's rectangle
        # of the patch reads them; its patch logits and the gradients
        # backward_patch accumulates are the bits of dense window passes.
        # 48 bins and 32 channels keep every GEMM of a window above BLAS's
        # small-matrix kernel, as at the trained sizes (see nn._conv).
        scene = make_scene("wall", beta=5e-3)
        net = ProposalNet(z_bins=48, hidden=32, seed=3)
        net.params[-2].value = he_init(np.random.default_rng(7), 48, 32, 3, np.float32)
        inputs = probe_inputs(render_probe(scene, small_camera(self.RES // 4), z_bins=48))
        d_patch = np.random.default_rng(5).standard_normal((1, 48, self.PATCH, self.PATCH))

        def passes():
            logits, windows = forward_patch(net, inputs, row, col, self.PATCH)
            net.zero_grads()
            proposal.backward_patch(net, windows, d_patch)
            return logits, [prm.grad.copy() for prm in net.params], len(windows)

        subset_convs = []
        conv2d_at = proposal.conv2d_at
        monkeypatch.setattr(proposal, "conv2d_at",
                            lambda *a: subset_convs.append(1) or conv2d_at(*a))
        logits, grads, windows = passes()
        assert windows == n_rect and len(subset_convs) == 3 * n_rect

        forward = ProposalNet.forward
        monkeypatch.setattr(ProposalNet, "forward",
                            lambda self, *a, live=None, **kw: forward(self, *a, **kw))
        dense_logits, dense_grads, _ = passes()
        assert len(subset_convs) == 3 * n_rect  # the dense passes ran none
        assert np.array_equal(logits, dense_logits)
        for prm, g, dense in zip(net.params, grads, dense_grads):
            assert np.abs(dense).max() > 0.0, prm.name
            assert np.array_equal(g, dense), prm.name

    def test_halo_covers_receptive_field(self):
        # the patch rows 26..37 have parent probe rows 6..9 (cols 7..10);
        # a probe pixel one beyond the halo cannot reach the patch logits,
        # one on the halo's edge does
        _, net, probe = self.make_net()
        inputs = probe_inputs(probe)
        row, col = 26, 30
        base = self.patch_slice(net.forward(*inputs), row, col)
        for (pr, pc), reaches in [((6 - HALO - 1, 8), False), ((9 + HALO + 1, 8), False),
                                  ((8, 7 - HALO - 1), False), ((8, 10 + HALO + 1), False),
                                  ((6 - HALO, 8), True), ((8, 10 + HALO), True)]:
            moved = [a.copy() for a in inputs]
            for a in moved:
                a[:, :, pr, pc] += 1.0
            out = self.patch_slice(net.forward(*moved), row, col)
            assert np.array_equal(out, base) != reaches, (pr, pc)

    def test_step_gradients_match_full_image(self):
        scene, net, probe = self.make_net()
        cam = small_camera(self.RES)
        cfg = TrainConfig(patch=self.PATCH, z_bins=16)
        truth = dense_truth(scene, cam, 16)
        for row, col in self.ORIGINS:
            train_step(net, AdamState(lr=0.0), truth, FixedOrigin(row, col),
                       cfg, probe=probe)
            got = [prm.grad.copy() for prm in net.params]

            # reference: full-image forward, loss on the patch slice, zero
            # head gradient elsewhere, full-image backward
            gt = render_gt_patch(truth, row, col, self.PATCH)
            target = build_target(gt)
            cache = []
            logits = net.forward(*probe_inputs(probe), cache=cache)
            r, c = patch_pixels(row, col, self.PATCH, self.RES, self.RES)
            sel = (slice(None), slice(None), r[:, None], c[None, :])
            _, _, d_patch = softmax_ce(logits[sel].astype(np.float64),
                                       target.probs[None], target.valid[None])
            d_logits = np.zeros_like(logits)
            d_logits[sel] = d_patch
            net.zero_grads()
            net.backward(d_logits, cache)
            for prm, g in zip(net.params, got):
                scale = np.abs(prm.grad).max()
                assert scale > 0.0, prm.name
                np.testing.assert_allclose(g, prm.grad, rtol=1e-4, atol=1e-5 * scale,
                                           err_msg=prm.name)

    def test_empty_patch_skips_net_and_steps_on_momentum(self, monkeypatch):
        scene, net, probe = self.make_net()
        cam = small_camera(self.RES)
        cfg = TrainConfig(patch=self.PATCH, z_bins=16)
        opt = AdamState(lr=1e-3)
        train_step(net, opt, dense_truth(scene, cam, 16), FixedOrigin(26, 30), cfg,
                   probe=probe)
        ref_net, ref_opt = copy.deepcopy(net), copy.deepcopy(opt)

        calls = []
        forward = ProposalNet.forward

        def counting_forward(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(ProposalNet, "forward", counting_forward)
        empty = vacuum_scene()  # no surface anywhere
        loss = train_step(net, opt, dense_truth(empty, cam, 16), FixedOrigin(26, 30),
                          cfg, probe=render_probe(empty, probe_camera(cam), 16))
        assert loss == 0.0 and not calls
        ref_net.zero_grads()
        adam_step(ref_net.params, ref_opt)
        for a, b in zip(net.params, ref_net.params):
            assert np.array_equal(a.value, b.value), a.name


@pytest.mark.slow
class TestWallTraining:
    def test_trained_argmax_matches_analytic_wall_bin(self):
        z = 64
        scene = make_scene("wall", beta=4e-3)
        cam = small_camera(64)  # probe 16x16 -> full 64x64
        net = ProposalNet(z_bins=z, hidden=16, seed=0)
        cfg = TrainConfig(steps=150, lr=3e-3, patch=16, z_bins=z)
        train(net, scene, cam, cfg, seed=4)
        probe_cam = small_camera(16)
        probe = render_probe(scene, probe_cam, z_bins=z)
        phat = net.predict(probe)
        o, d, t_near, t_far = camera_geometry(cam)
        t_hit = o[:, 2] / -d[:, 2]
        hit_bin = ((t_hit - t_near) / (t_far - t_near) * z).astype(int)
        arg = phat.reshape(z, -1).argmax(axis=0)
        agree = np.abs(arg - hit_bin) <= 1
        assert agree.mean() >= 0.95


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=7)
        for prm in net.params:
            prm.value = rng.standard_normal(prm.value.shape).astype(np.float32)
        path = tmp_path / "net.vsmp"
        save_checkpoint(net, path)
        other = ProposalNet(z_bins=8, hidden=6, seed=0)
        load_checkpoint(other, path)
        for a, b in zip(net.params, other.params):
            assert np.array_equal(a.value, b.value)

    def test_magic_and_version_enforced(self, tmp_path):
        net = ProposalNet(z_bins=8, hidden=6)
        path = tmp_path / "net.vsmp"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        bad = tmp_path / "bad.vsmp"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(net, bad)
        tampered = bytearray(raw)
        tampered[4] = 99
        bad.write_bytes(bytes(tampered))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(net, bad)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = ProposalNet(z_bins=8, hidden=6)
        path = tmp_path / "net.vsmp"
        save_checkpoint(net, path)
        other = ProposalNet(z_bins=8, hidden=4)
        with pytest.raises(ValueError):
            load_checkpoint(other, path)

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        net = ProposalNet(z_bins=8, hidden=6)
        path = tmp_path / "net.vsmp"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.vsmp"
        for cut in list(range(64)) + list(range(64, len(raw), 7)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(net, bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = ProposalNet(z_bins=8, hidden=6)
        path = tmp_path / "net.vsmp"
        save_checkpoint(net, path)
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(net, path)

