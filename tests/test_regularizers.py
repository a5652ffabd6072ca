import numpy as np
import pytest

from conftest import small_camera
from volsampler.regularizers import RegularizerConfig, decision_loss, surface_loss
from volsampler.render import render_uniform
from volsampler.scenes import make_scene


class TestSurfaceLoss:
    def test_zero_at_target(self):
        assert surface_loss(np.full((4, 4), 0.003), 0.003) == 0.0

    def test_hand_arithmetic_2x2(self):
        b = np.array([[0.01, 0.01], [0.02, 0.0]])
        # (0)^2 + (0)^2 + (0.01)^2 + (-0.01)^2 = 2e-4
        assert surface_loss(b, 0.01) == pytest.approx(2e-4, rel=1e-12)

    def test_opaque_constant_beta_scene(self):
        beta = 0.02
        sc = make_scene("wall", beta=beta)  # every ray hits the plane head-on
        cam = small_camera(8)
        out = render_uniform(sc, cam, 256, mode="midpoint")
        target = 0.005
        expected = 64 * (beta - target) ** 2
        assert np.all(out.accumulated_opacity > 1 - 1e-6)
        assert surface_loss(out.beta_image, target) == pytest.approx(expected, rel=1e-5)

    def test_nonnegative_and_rejects_nonfinite(self, rng):
        assert surface_loss(rng.random((5, 5)), 0.01) >= 0.0
        with pytest.raises(ValueError):
            surface_loss(np.array([np.inf]), 0.01)


class TestDecisionLoss:
    def test_zero_entry_contributes_one(self):
        s = np.full((2, 2, 2), 100.0)
        s[0, 0, 0] = 0.0
        assert decision_loss(s) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_half_hand_arithmetic(self):
        s = np.full((2, 2, 2), 0.5)
        assert decision_loss(s) == pytest.approx(8.0 * np.exp(-1.0), rel=1e-12)

    def test_vanishes_for_large_magnitudes(self):
        assert decision_loss(np.full((3, 3), 1e3)) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_decreases_when_any_entry_inflates(self, rng):
        s = rng.normal(scale=0.3, size=(4, 5, 5))
        base = decision_loss(s)
        for scale in (1.1, 1.5, 3.0):
            assert decision_loss(s * scale) < base

    def test_sign_symmetric(self, rng):
        s = rng.normal(size=(3, 3))
        assert decision_loss(s) == pytest.approx(decision_loss(-s), rel=1e-12)


class TestTotalLoss:
    def cfg(self, **kw):
        return RegularizerConfig(**kw)

    def test_anneal_schedule_linear(self):
        cfg = self.cfg(b_target_start=0.01, b_target_end=0.001, b_target_steps=100)
        assert cfg.b_target_at(0) == pytest.approx(0.01)
        assert cfg.b_target_at(50) == pytest.approx(0.0055)
        assert cfg.b_target_at(100) == pytest.approx(0.001)
        assert cfg.b_target_at(500) == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.cfg(b_target_end=0.0)
