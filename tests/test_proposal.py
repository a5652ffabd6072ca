import copy

import numpy as np
import pytest

from conftest import small_camera
from volsampler import proposal
from volsampler.geometry import Camera
from volsampler.nn import (AdamState, adam_step, he_init, softmax_ce,
                          softmax_channels)
from volsampler.proposal import (HALO, CheckpointError, ProposalNet,
                                 SupervisionTarget, TrainConfig, build_target,
                                 forward_patch, gaussian_kernel, load_checkpoint,
                                 patch_pixels, probe_inputs, render_gt_patch,
                                 sampler_loss, save_checkpoint, train, train_step)
from volsampler.render import camera_geometry, render_probe
from volsampler.scenes import make_scene


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
        kernel = gaussian_kernel(1.0, 3)
        tgt = build_target(p, blur_sigma=1.0, suppress_eps=5e-3)
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

    def test_suppress_without_blur(self):
        p = np.zeros((8, 1, 1))
        p[0, 0, 0] = 0.004
        p[1, 0, 0] = 0.996
        tgt = build_target(p, blur_sigma=0.0, suppress_eps=5e-3)
        expected = np.zeros(8)
        expected[1] = 1.0
        np.testing.assert_allclose(tgt.probs[:, 0, 0], expected, atol=1e-15)

    def test_idempotent_after_normalization(self, rng):
        # valid weight rows sum to <= 1, so normalization only scales entries
        # up and the second suppress pass removes nothing
        p = rng.random((16, 3, 3)) * 0.05
        assert np.all(p.sum(axis=0) <= 1.0)
        once = build_target(p, blur_sigma=0.0)
        twice = build_target(once.probs, blur_sigma=0.0)
        np.testing.assert_allclose(twice.probs, once.probs, atol=1e-12)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            build_target(np.array([[[-0.1]]]))

    def test_rows_sum_to_one_where_valid(self, rng):
        p = rng.random((32, 4, 4)) * 0.05
        tgt = build_target(p)
        sums = tgt.probs.sum(axis=0)
        np.testing.assert_allclose(sums[tgt.valid], 1.0, atol=1e-6)


class TestSamplerLoss:
    def test_one_hot_match_is_zero(self):
        z = 16
        probs = np.zeros((z, 1, 1))
        probs[5] = 1.0
        tgt = SupervisionTarget(probs=probs.copy(), valid=np.ones((1, 1), bool))
        assert sampler_loss(probs, tgt) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_costs_log_z(self):
        z = 192
        tgt_p = np.zeros((z, 1, 1))
        tgt_p[17] = 1.0
        tgt = SupervisionTarget(probs=tgt_p, valid=np.ones((1, 1), bool))
        phat = np.full((z, 1, 1), 1.0 / z)
        assert sampler_loss(phat, tgt) == pytest.approx(np.log(192), rel=1e-9)

    def test_matches_double_loop_oracle(self, rng):
        z, h, w = 12, 4, 3
        phat = rng.random((z, h, w))
        phat /= phat.sum(axis=0)
        tgt_p = rng.random((z, h, w))
        tgt_p /= tgt_p.sum(axis=0)
        valid = rng.random((h, w)) > 0.3
        tgt = SupervisionTarget(probs=tgt_p, valid=valid)
        assert sampler_loss(phat, tgt) == pytest.approx(
            naive_cross_entropy(phat, tgt_p, valid), abs=1e-10)

    def test_shape_mismatch(self):
        tgt = SupervisionTarget(probs=np.ones((4, 2, 2)) / 4,
                                valid=np.ones((2, 2), bool))
        with pytest.raises(ValueError):
            sampler_loss(np.ones((4, 3, 3)) / 4, tgt)


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


class TestBackwardProperties:
    def test_zero_upstream_zero_grads(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=0, dtype=np.float64)
        p = rng.random((1, 8, 4, 4))
        i = rng.random((1, 3, 4, 4))
        d = rng.standard_normal((1, 3, 4, 4))
        logits = net.forward(p, i, d, keep_cache=True)
        net.zero_grads()
        net.backward(np.zeros_like(logits))
        for prm in net.params:
            assert np.all(prm.grad == 0.0)

    def test_gradient_linearity(self, rng):
        net = ProposalNet(z_bins=8, hidden=6, seed=2, dtype=np.float64)
        p = rng.random((1, 8, 4, 4))
        i = rng.random((1, 3, 4, 4))
        d = rng.standard_normal((1, 3, 4, 4))
        upstream = rng.standard_normal((1, 8, 16, 16))
        net.forward(p, i, d, keep_cache=True)
        net.zero_grads()
        net.backward(upstream)
        g1 = [prm.grad.copy() for prm in net.params]
        net.forward(p, i, d, keep_cache=True)
        net.zero_grads()
        net.backward(2.0 * upstream)
        for prm, g in zip(net.params, g1):
            np.testing.assert_allclose(prm.grad, 2.0 * g, rtol=1e-9, atol=1e-12)

    def test_backward_requires_cache(self, rng):
        net = ProposalNet(z_bins=8, hidden=6)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 8, 16, 16)))


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
            train_step(net, AdamState(), scene, cam, np.random.default_rng(0),
                       TrainConfig(patch=8, z_bins=16))

    def test_patch_larger_than_image_rejected(self):
        scene, cam, _ = self.small_setup()
        with pytest.raises(ValueError):
            train_step(ProposalNet(z_bins=16, hidden=4), AdamState(), scene, cam,
                       np.random.default_rng(0), TrainConfig(patch=32, z_bins=16))

    def test_gt_patch_matches_probe_convention(self):
        scene = make_scene("wall", beta=5e-3)
        cam = small_camera(16)
        patch = render_gt_patch(scene, cam, 4, 4, 8, 32)
        assert patch.shape == (32, 8, 8)
        full = render_probe(scene, cam, z_bins=32)
        np.testing.assert_allclose(patch, full.weights[:, 4:12, 4:12], atol=1e-12)

    def test_gt_patch_wraps_around_image_edges(self):
        scene = make_scene("wall", beta=5e-3)
        cam = small_camera(16)
        patch = render_gt_patch(scene, cam, 12, 10, 8, 32)
        full = render_probe(scene, cam, z_bins=32)
        rows = [12, 13, 14, 15, 0, 1, 2, 3]
        cols = [10, 11, 12, 13, 14, 15, 0, 1]
        np.testing.assert_allclose(patch, full.weights[:, rows][:, :, cols],
                                   atol=1e-12)

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

        def recording_gt_patch(scene, cam, row, col, *args, **kwargs):
            origins.append((row, col))
            return real_gt_patch(scene, cam, row, col, *args, **kwargs)

        monkeypatch.setattr(proposal, "render_gt_patch", recording_gt_patch)
        scene, cam, cfg = self.small_setup()
        net = ProposalNet(z_bins=16, hidden=4)
        probe = render_probe(scene, small_camera(4), z_bins=16)
        discover = ScriptedRng()
        train_step(net, AdamState(), scene, cam, discover, cfg, probe=probe)
        (row_lo, row_hi), (col_lo, col_hi) = discover.ranges
        origins.clear()
        for row in range(row_lo, row_hi):
            for col in range(col_lo, col_hi):
                train_step(net, AdamState(), scene, cam, ScriptedRng([row, col]),
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
        for row, col in self.ORIGINS:
            train_step(net, AdamState(lr=0.0), scene, cam, FixedOrigin(row, col),
                       cfg, probe=probe)
            got = [prm.grad.copy() for prm in net.params]

            # reference: full-image forward, loss on the patch slice, zero
            # head gradient elsewhere, full-image backward
            gt = render_gt_patch(scene, cam, row, col, self.PATCH, 16)
            target = build_target(gt)
            logits = net.forward(*probe_inputs(probe), keep_cache=True)
            r, c = patch_pixels(row, col, self.PATCH, self.RES, self.RES)
            sel = (slice(None), slice(None), r[:, None], c[None, :])
            _, _, d_patch = softmax_ce(logits[sel].astype(np.float64),
                                       target.probs[None], target.valid[None])
            d_logits = np.zeros_like(logits)
            d_logits[sel] = d_patch
            net.zero_grads()
            net.backward(d_logits)
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
        train_step(net, opt, scene, cam, FixedOrigin(26, 30), cfg, probe=probe)
        ref_net, ref_opt = copy.deepcopy(net), copy.deepcopy(opt)

        calls = []
        forward = ProposalNet.forward

        def counting_forward(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(ProposalNet, "forward", counting_forward)
        behind = make_scene("wall", beta=5e-3, wall_z=-1.5)  # behind the scene box
        loss = train_step(net, opt, behind, cam, FixedOrigin(26, 30), cfg)
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


class TestSceneFamilyTraining:
    def test_randomized_scene_parameters_deterministic(self):
        from volsampler.scenes import make_scene as mk

        def factory(rng):
            return mk("sphere", radius=float(rng.uniform(0.6, 0.9)))

        cam = small_camera(16)
        cfg = TrainConfig(steps=3, lr=1e-3, patch=8, z_bins=16)
        runs = []
        for _ in range(2):
            net = ProposalNet(z_bins=16, hidden=4, seed=2)
            losses = train(net, mk("sphere"), cam, cfg, seed=9,
                           scene_factory=factory)
            runs.append(losses)
        assert runs[0] == runs[1]
        assert len(set(np.round(runs[0], 12))) > 1  # scenes actually vary
