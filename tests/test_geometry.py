import math

import numpy as np
import pytest

from volsampler.geometry import Camera, clip_to_box, default_camera


class TestCamera:
    def test_rays_are_unit_norm(self):
        cam = default_camera(9, 13)
        _, d = cam.rays()
        norms = np.linalg.norm(d, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_center_pixel_points_at_target(self):
        cam = Camera((0, 0, 2.8), (0, 0, 0), (0, 1, 0), 0.69, 3, 3)
        _, d = cam.rays()
        np.testing.assert_allclose(d[1, 1], [0, 0, -1], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Camera((0, 0, 2), (0, 0, 0), (0, 1, 0), 0.0, 4, 4)
        with pytest.raises(ValueError):
            Camera((0, 0, 2), (0, 0, 0), (0, 1, 0), math.pi, 4, 4)
        with pytest.raises(ValueError):
            Camera((0, 0, 2), (0, 0, 0), (0, 1, 0), 0.5, 0, 4)

    def test_overflowing_pose_rejected_without_warning(self):
        # look_at - position overflows to inf: refused as a pose with no
        # image plane, not with an overflow RuntimeWarning
        with pytest.raises(ValueError, match="parallel"):
            Camera((1e308, 1e308, 1e308), (-1e308, 0, 0), (0, 1, 0), 0.5, 4, 4)

    def test_scaled_keeps_pose(self):
        cam = default_camera(16, 16).scaled(4)
        assert (cam.height, cam.width) == (64, 64)
        np.testing.assert_array_equal(cam.position, default_camera().position)


class TestBoxClip:
    def test_axis_ray_hits_box_faces(self):
        t_near, t_far = clip_to_box(np.array([[0.0, 0.0, 2.8]]),
                                    np.array([[0.0, 0.0, -1.0]]))
        assert t_near[0] == pytest.approx(1.8, abs=1e-12)
        assert t_far[0] == pytest.approx(3.8, abs=1e-12)

    def test_ray_inside_box_starts_at_zero(self):
        t_near, t_far = clip_to_box(np.array([[0.0, 0.0, 0.0]]),
                                    np.array([[1.0, 0.0, 0.0]]))
        assert t_near[0] == 0.0
        assert t_far[0] == pytest.approx(1.0, abs=1e-12)

    def test_miss_gets_valid_fallback_interval(self):
        t_near, t_far = clip_to_box(np.array([[0.0, 5.0, 2.8]]),
                                    np.array([[0.0, 0.0, -1.0]]))
        assert np.isfinite(t_near[0]) and np.isfinite(t_far[0])
        assert 0.0 <= t_near[0] < t_far[0]

    def test_batch_shapes(self, rng):
        o = rng.uniform(-3, 3, size=(4, 5, 3))
        d = rng.standard_normal((4, 5, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        t_near, t_far = clip_to_box(o, d)
        assert t_near.shape == (4, 5)
        assert np.all(t_far > t_near)
        assert np.all(t_near >= 0.0)
