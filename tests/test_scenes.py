import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vacuum_scene
from volsampler.scenes import (BETA_MAX, BETA_MIN, DENSITY_ZERO_BETAS, SCENE_NAMES,
                               beta_activation, laplace_density, make_scene)

ALL_SCENES = SCENE_NAMES + ("wall",)


def pts(*rows):
    return np.array(rows, dtype=np.float64)


class TestSceneQueries:
    def test_unit_sphere_outside(self):
        sc = make_scene("sphere")
        assert sc.sdf(pts([0, 0, 2]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_unit_sphere_center(self):
        sc = make_scene("sphere")
        assert sc.sdf(pts([0, 0, 0]))[0] == pytest.approx(-1.0, abs=1e-12)

    def test_two_spheres_matches_min_of_analytic_sdfs(self, rng):
        # oracle: direct min over the two primitives, written out by hand
        from volsampler.scenes import _TWO_SPHERES
        sc = make_scene("two-spheres")
        ca, ra, cb, rb = _TWO_SPHERES
        p = rng.uniform(-1, 1, size=(256, 3))
        expected = np.minimum(np.linalg.norm(p - ca, axis=1) - ra,
                              np.linalg.norm(p - cb, axis=1) - rb)
        np.testing.assert_allclose(sc.sdf(p), expected, atol=1e-12)

    def test_query_deterministic_bitwise(self, rng):
        sc = make_scene("textured-sphere")
        p = rng.uniform(-1, 1, size=(64, 3))
        v = np.tile([0.0, 0.0, -1.0], (64, 1))
        a_s, _, a_shade = sc.fields(p, v)
        b_s, _, b_shade = sc.fields(p, v)
        assert np.array_equal(a_s, b_s)
        assert np.array_equal(a_shade(slice(None)), b_shade(slice(None)))
        assert np.array_equal(a_shade(slice(None)), sc.radiance(p, v, np.arange(64)))

    @pytest.mark.parametrize("name", ALL_SCENES)
    def test_sample_invariants(self, name, rng):
        sc = make_scene(name)
        p = rng.uniform(-1, 1, size=(512, 3))
        v = rng.standard_normal((512, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        _, beta, shade = sc.fields(p, v)
        radiance = shade(slice(None))
        assert np.array_equal(radiance, sc.radiance(p, v, np.arange(512)))
        assert np.all(beta >= BETA_MIN) and np.all(beta <= BETA_MAX)
        assert np.all(radiance >= 0.0) and np.all(radiance <= 1.0)

    @pytest.mark.parametrize("name", ALL_SCENES)
    def test_sdf_lipschitz_along_rays(self, name, rng):
        sc = make_scene(name)
        a = rng.uniform(-1, 1, size=(256, 3))
        b = a + rng.normal(scale=0.05, size=(256, 3))
        lhs = np.abs(sc.sdf(a) - sc.sdf(b))
        rhs = np.linalg.norm(a - b, axis=1)
        assert np.all(lhs <= rhs + 1e-9)

    @pytest.mark.parametrize("name", ALL_SCENES)
    def test_analytic_normals_match_finite_difference(self, name, rng):
        sc = make_scene(name)
        p = rng.uniform(-0.9, 0.9, size=(64, 3))
        h = 1e-5
        g = np.empty_like(p)
        for ax in range(3):
            dp = np.zeros(3)
            dp[ax] = h
            g[:, ax] = sc.sdf(p + dp) - sc.sdf(p - dp)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        keep = norms[:, 0] > 1e-6
        np.testing.assert_allclose(np.stack(sc._surface(p)[0], axis=-1)[keep], (g / norms)[keep],
                                   atol=5e-4)

    def test_two_spheres_shades_with_the_nearer_sphere(self, rng):
        # oracle: each point shaded as the sphere it is nearer to, alone
        from volsampler.scenes import _TWO_SPHERES
        ca, ra, cb, rb = _TWO_SPHERES
        p = rng.uniform(-1, 1, size=(512, 3))
        v = np.tile([0.0, 0.0, -1.0], (512, 1))
        near_a = np.linalg.norm(p - ca, axis=1) - ra <= np.linalg.norm(p - cb, axis=1) - rb
        assert 0 < near_a.sum() < 512
        expected = np.empty((512, 3))
        for near, center, rgb in [(near_a, ca, (0.85, 0.30, 0.25)),
                                  (~near_a, cb, (0.25, 0.45, 0.85))]:
            n = (p[near] - center) / np.linalg.norm(p[near] - center, axis=1, keepdims=True)
            light = np.array([0.45, 0.70, 0.55]) / np.linalg.norm([0.45, 0.70, 0.55])
            shade = 0.25 + 0.75 * np.maximum(n @ light, 0.0)
            expected[near] = np.clip(np.array(rgb) * shade[:, None], 0.0, 1.0)
        np.testing.assert_allclose(make_scene("two-spheres").radiance(p, v, np.arange(512)),
                                   expected, atol=1e-12)

    def test_textured_sphere_lobe_follows_each_points_ray(self, rng):
        # oracle: the lobe by hand, 0.35 * max(n . h, 0)^16 with n = p / |p|
        # and h the unit bisector of the light and the reversed view of the
        # point's ray, added to the same scene's colour without the lobe
        sc = make_scene("textured-sphere")
        matte = dataclasses.replace(sc, specular=0.0)
        p = rng.uniform(-1, 1, size=(512, 3))
        v = rng.standard_normal((8, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ray = rng.integers(0, 8, size=512)
        light = np.array([0.45, 0.70, 0.55]) / np.linalg.norm([0.45, 0.70, 0.55])
        h = light - v[ray]
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        n = p / np.linalg.norm(p, axis=1, keepdims=True)
        lobe = 0.35 * np.maximum(np.sum(n * h, axis=1), 0.0) ** 16
        base = matte.radiance(p, v, ray)
        unclipped = np.all(base + lobe[:, None] < 1.0, axis=1)
        assert np.count_nonzero(lobe[unclipped] > 1e-3) > 10
        np.testing.assert_allclose(sc.radiance(p, v, ray)[unclipped],
                                   base[unclipped] + lobe[unclipped, None], atol=1e-12)

    def test_fields_take_k_points_per_view(self):
        with pytest.raises(ValueError, match="k per view"):
            make_scene("sphere").fields(np.zeros((7, 3)), np.ones((2, 3)))

    def test_unknown_scene_and_param(self):
        with pytest.raises(ValueError):
            make_scene("mystery")
        with pytest.raises(TypeError):
            make_scene("sphere", wobble=3)
        with pytest.raises(TypeError):
            make_scene("sphere", wall_z=0.0)


class TestBetaMax:
    @pytest.mark.parametrize("name", ALL_SCENES)
    @pytest.mark.parametrize("beta", [None, 0.0015, 1e-5, 0.5])
    def test_bounds_the_beta_field(self, name, beta, rng):
        sc = make_scene(name, beta=beta)
        p = rng.uniform(-1.5, 1.5, size=(4096, 3))
        p[:256, 1] = 0.0  # the textured sphere's band peaks at y = 0
        assert BETA_MIN <= sc.beta_max <= BETA_MAX
        assert np.all(sc.beta_field(p) <= sc.beta_max)

    def test_textured_sphere_bound_is_base_plus_band(self):
        assert make_scene("textured-sphere").beta_max == 0.025 + 0.04
        assert make_scene("textured-sphere", beta=1e-5).beta_max == 1e-5 + 0.04
        assert make_scene("sphere", beta=1e-5).beta_max == BETA_MIN

    def test_default_is_the_clip(self):
        assert vacuum_scene().beta_max == BETA_MAX


class TestLaplaceDensity:
    def test_zero_crossing_exact(self):
        assert laplace_density(0.0, 0.01) == 50.0

    def test_both_branches_closed_form(self):
        # oracle: the two CDF branches evaluated directly
        beta = 0.01
        s = 10.0 * beta
        inside = (1.0 - 0.5 * np.exp(-s / beta)) / beta
        outside = 0.5 * np.exp(-s / beta) / beta
        assert laplace_density(-s, beta) == pytest.approx(inside, rel=1e-12)
        assert laplace_density(+s, beta) == pytest.approx(outside, rel=1e-12)
        assert laplace_density(+s, beta) == pytest.approx(2.27e-3, rel=1e-3)

    def test_continuity_at_zero(self):
        for beta in (1e-4, 1e-2, 1e-1):
            gap = abs(laplace_density(-1e-12, beta) - laplace_density(1e-12, beta))
            assert gap < 1e-6 / beta

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            laplace_density(0.1, 0.0)
        with pytest.raises(ValueError):
            laplace_density(0.1, -1e-3)

    @given(s1=st.floats(-5, 5), s2=st.floats(-5, 5),
           beta=st.floats(1e-4, 1e-1))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonincreasing(self, s1, s2, beta):
        lo, hi = min(s1, s2), max(s1, s2)
        assert laplace_density(lo, beta) >= laplace_density(hi, beta) - 1e-12

    @given(s=st.floats(-50, 50), beta=st.floats(1e-4, 1e-1))
    @settings(max_examples=200, deadline=None)
    def test_range(self, s, beta):
        sigma = float(laplace_density(s, beta))
        assert 0.0 <= sigma <= 1.0 / beta
        if abs(s) < 30 * beta:
            assert sigma > 0.0

    def test_exactly_zero_from_the_named_distance(self):
        # the sphere-tracing skip of the reference rests on this exact zero
        beta = np.geomspace(BETA_MIN, BETA_MAX, 61)
        for scale in (1.0, 1.001, 2.0, 1e3, 1e6):
            s = DENSITY_ZERO_BETAS * scale * beta
            assert np.all(laplace_density(s, beta) == 0.0), scale
        assert np.all(laplace_density(37.0 * beta, beta) > 0.0)


class TestBetaActivation:
    def test_zero_maps_to_default_variance(self):
        assert beta_activation(0.0) == pytest.approx(0.01, abs=1e-15)

    def test_limits(self):
        assert beta_activation(-1e3) == pytest.approx(0.0001, rel=1e-9)
        assert beta_activation(+1e3) == pytest.approx(0.0199, rel=1e-9)

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_always_in_valid_interval(self, pre):
        b = float(beta_activation(pre))
        assert 0.0001 <= b <= 0.0199
        if abs(pre) < 5.0:  # away from tanh saturation the interval is open
            assert 0.0001 < b < 0.02
