import numpy as np
import pytest

from conftest import finite_diff, rel_err
from volsampler import nn


def hand_conv3x3(x, w, b):
    """Naive nested-loop same-padding convolution; the oracle."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((bsz, cout, h, wd))
    for n in range(bsz):
        for o in range(cout):
            for i in range(h):
                for j in range(wd):
                    acc = b[o]
                    for c in range(cin):
                        for ky in range(3):
                            for kx in range(3):
                                acc += w[o, c, ky, kx] * xp[n, c, i + ky, j + kx]
                    y[n, o, i, j] = acc
    return y


class TestConv:
    def test_matches_naive_loop(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        y, _ = nn.conv2d_forward(x, w, b)
        np.testing.assert_allclose(y, hand_conv3x3(x, w, b), atol=1e-12)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 4, 4, 4))
        w = rng.standard_normal((2, 3, 3, 3))
        with pytest.raises(ValueError):
            nn.conv2d_forward(x, w, np.zeros(2))

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 3, 5, 4))
        w = rng.standard_normal((4, 3, 3, 3)) * 0.4
        b = rng.standard_normal(4) * 0.1
        proj = rng.standard_normal((2, 4, 5, 4))

        def loss():
            y, _ = nn.conv2d_forward(x, w, b)
            return float(np.sum(y * proj))

        _, cache = nn.conv2d_forward(x, w, b)
        dx, dw, db = nn.conv2d_backward(proj, w, cache)
        assert rel_err(dx, finite_diff(loss, x)) < 1e-6
        assert rel_err(dw, finite_diff(loss, w)) < 1e-6
        assert rel_err(db, finite_diff(loss, b)) < 1e-6

    @pytest.mark.parametrize("box", [(1, 4, 2, 5), (0, 1, 5, 6), (3, 6, 0, 6)])
    def test_gradients_of_confined_upstream(self, rng, box):
        # backward visits only the bounding box of the nonzero upstream
        # entries: inside the grid, in a corner, and across its whole width
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3)) * 0.4
        b = rng.standard_normal(4) * 0.1
        r0, r1, c0, c1 = box
        proj = np.zeros((2, 4, 6, 6))
        proj[:, :, r0:r1, c0:c1] = rng.standard_normal((2, 4, r1 - r0, c1 - c0))

        def loss():
            y, _ = nn.conv2d_forward(x, w, b)
            return float(np.sum(y * proj))

        _, cache = nn.conv2d_forward(x, w, b)
        dx, dw, db = nn.conv2d_backward(proj, w, cache)
        assert rel_err(dx, finite_diff(loss, x)) < 1e-6
        assert rel_err(dw, finite_diff(loss, w)) < 1e-6
        assert rel_err(db, finite_diff(loss, b)) < 1e-6

    def test_zero_upstream_gives_exact_zeros(self, rng):
        x = rng.standard_normal((1, 3, 4, 5)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        _, cache = nn.conv2d_forward(x, w, np.zeros(2, np.float32))
        dx, dw, db = nn.conv2d_backward(np.zeros((1, 2, 4, 5), np.float32), w, cache)
        for got, like in ((dx, x), (dw, w), (db, np.zeros(2, np.float32))):
            assert got.shape == like.shape and got.dtype == like.dtype
            assert np.all(got == 0.0)


class TestReluAndUpsample:
    def test_relu(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        y, mask = nn.relu_forward(x)
        assert np.all(y[x < 0] == 0) and np.all(y[x > 0] == x[x > 0])
        dy = rng.standard_normal(x.shape)
        np.testing.assert_array_equal(nn.relu_backward(dy, mask), dy * (x > 0))

    def test_upsample_preserves_constants_exactly(self):
        for f in (2, 4):
            x = np.full((1, 2, 3, 5), 0.7)
            y, _ = nn.upsample_forward(x, f)
            assert y.shape == (1, 2, 3 * f, 5 * f)
            assert np.all(y == 0.7)

    def test_upsample_rows_are_convex(self):
        m = nn.bilinear_matrix(6, 4)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=0)
        assert np.all(m >= 0.0)

    def test_upsample_gradient_is_adjoint(self, rng):
        x = rng.standard_normal((1, 2, 3, 4))
        proj = rng.standard_normal((1, 2, 6, 8))

        def loss():
            y, _ = nn.upsample_forward(x, 2)
            return float(np.sum(y * proj))

        _, cache = nn.upsample_forward(x, 2)
        dx = nn.upsample_backward(proj, cache)
        assert rel_err(dx, finite_diff(loss, x)) < 1e-6


class TestSoftmaxCe:
    def test_softmax_rows_normalized_positive(self, rng):
        x = rng.standard_normal((2, 7, 3, 3)) * 5
        p = nn.softmax_channels(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_fused_gradient(self, rng):
        logits = rng.standard_normal((1, 6, 4, 4))
        tgt = rng.random((1, 6, 4, 4))
        tgt /= tgt.sum(axis=1, keepdims=True)
        valid = rng.random((1, 4, 4)) > 0.25

        def loss():
            l, _, _ = nn.softmax_ce(logits, tgt, valid)
            return l

        _, _, d = nn.softmax_ce(logits, tgt, valid)
        assert rel_err(d, finite_diff(loss, logits)) < 1e-6

    def test_no_valid_pixels_gives_zero(self, rng):
        logits = rng.standard_normal((1, 4, 2, 2))
        tgt = np.zeros_like(logits)
        loss, _, d = nn.softmax_ce(logits, tgt, np.zeros((1, 2, 2), bool))
        assert loss == 0.0 and np.all(d == 0.0)


class TestAdam:
    def test_zero_lr_keeps_params(self, rng):
        p = nn.Param("w", rng.standard_normal((3, 3)))
        before = p.value.copy()
        p.grad = rng.standard_normal((3, 3))
        nn.adam_step([p], nn.AdamState(lr=0.0))
        np.testing.assert_array_equal(p.value, before)

    def test_first_step_matches_hand_formula(self):
        p = nn.Param("w", np.array([1.0]))
        p.grad = np.array([2.0])
        st = nn.AdamState(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        nn.adam_step([p], st)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 1.0 - 0.1 * 2.0 / (np.sqrt(4.0) + 1e-8)
        assert p.value[0] == pytest.approx(expected, rel=1e-9)
        assert st.step_count == 1

    def test_state_tracks_parameters_by_name(self, rng):
        p = nn.Param("w", rng.standard_normal((2,)))
        st = nn.AdamState(lr=1e-2)
        p.grad = np.ones(2)
        nn.adam_step([p], st)
        assert "w" in st.m and st.m["w"].shape == (2,)
